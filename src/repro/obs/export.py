"""Exporters for the observability layer.

Three output formats, all produced from one :class:`MetricsRegistry`:

* :func:`to_chrome_trace` / :func:`dump_chrome_trace` — the Chrome
  ``trace_event`` JSON format, loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev.  Each simulated host (and the Ethernet
  segment) becomes a thread; spans become complete ('X') events and
  instants become instant ('i') events.  Simulated seconds map to
  trace microseconds.
* :func:`to_jsonl` — a line-per-record JSON event
  log (spans, instants, then one ``snapshot`` and one ``ledger``
  record), convenient for ad-hoc ``jq``/pandas analysis.
* :func:`cost_breakdown` / :func:`format_breakdown` /
  :func:`format_counters` — the per-run ASCII report: the attributable
  virtual-time decomposition (copies / wire / interpretation / compute
  / …) the paper's whole argument is phrased in, plus a metrics dump.

The breakdown's accounting identity: every attributed second lies on
some resource timeline (a host CPU or the shared wire), so with
``n_tracks`` resources over ``elapsed`` simulated seconds,

    sum(categories) + idle == n_tracks * elapsed

holds to float precision whenever every charge in the run went through
an instrumented path — which ``tests/test_obs.py`` asserts.
"""

from __future__ import annotations

import json
from typing import IO, Optional, Union

from .registry import CATEGORIES, MetricsRegistry

__all__ = [
    "cost_breakdown",
    "dump_chrome_trace",
    "format_breakdown",
    "format_counters",
    "to_chrome_trace",
    "to_jsonl",
]

_SECONDS_TO_US = 1e6


# -- Chrome trace_event -------------------------------------------------------


def to_chrome_trace(registry: MetricsRegistry, pid: int = 1) -> dict:
    """Render the registry as a Chrome ``trace_event`` JSON object.

    Returns the standard ``{"traceEvents": [...], ...}`` envelope with
    thread-name metadata so tracks show up with their host names.
    """
    events: list[dict] = []
    tracks = registry.tracks()
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    for track in tracks:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tids[track],
                "args": {"name": track},
            }
        )
    for span in registry.spans:
        event = {
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": span.t0 * _SECONDS_TO_US,
            "dur": span.duration * _SECONDS_TO_US,
            "pid": pid,
            "tid": tids[span.track],
        }
        if span.args:
            event["args"] = span.args
        events.append(event)
    for instant in registry.instants:
        event = {
            "name": instant.name,
            "cat": "instant",
            "ph": "i",
            "s": "t",  # thread-scoped
            "ts": instant.t * _SECONDS_TO_US,
            "pid": pid,
            "tid": tids[instant.track],
        }
        if instant.args:
            event["args"] = instant.args
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "clock": "simulated virtual time (1 virtual second = 1s)",
            "dropped_spans": registry.spans_dropped,
            "dropped_instants": registry.instants_dropped,
        },
    }


def dump_chrome_trace(
    registry: MetricsRegistry, destination: Union[str, IO[str]]
) -> int:
    """Write the Chrome trace JSON to a path or file object.

    Returns the number of trace events written.
    """
    trace = to_chrome_trace(registry)
    if hasattr(destination, "write"):
        json.dump(trace, destination)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
    return len(trace["traceEvents"])


# -- JSONL event log ----------------------------------------------------------


# The JSONL exporter the README documents; no run writes it itself.
def to_jsonl(registry: MetricsRegistry) -> list[str]:
    """The registry as a list of JSON lines (spans, instants, summary)."""
    lines: list[str] = []
    for span in registry.spans:
        record = {
            "type": "span",
            "track": span.track,
            "name": span.name,
            "category": span.category,
            "t0": span.t0,
            "t1": span.t1,
        }
        if span.args:
            record["args"] = span.args
        lines.append(json.dumps(record, sort_keys=True))
    for instant in registry.instants:
        record = {
            "type": "instant",
            "track": instant.track,
            "name": instant.name,
            "t": instant.t,
        }
        if instant.args:
            record["args"] = instant.args
        lines.append(json.dumps(record, sort_keys=True))
    lines.append(
        json.dumps(
            {"type": "snapshot", "metrics": registry.snapshot()},
            sort_keys=True,
        )
    )
    lines.append(
        json.dumps(
            {"type": "ledger", "categories": dict(sorted(registry.ledger.items()))},
            sort_keys=True,
        )
    )
    return lines


# -- ASCII reporting ----------------------------------------------------------


def cost_breakdown(
    registry: MetricsRegistry,
    elapsed_s: float,
    n_tracks: Optional[int] = None,
) -> dict:
    """The per-category virtual-time decomposition of one run.

    ``elapsed_s`` is the run's simulated duration; ``n_tracks`` is the
    number of serial resources the charges occupied (hosts + the shared
    wire; defaults to the number of span tracks seen, or 1).  Returns::

        {
          "elapsed_s": ..., "n_tracks": ..., "timeline_s": ...,
          "accounted_s": ...,  # sum over categories
          "idle_s": ...,       # timeline - accounted (>= 0)
          "categories": {category: {"seconds": s, "percent": p}, ...},
        }

    ``percent`` is of the total timeline, so all categories plus idle
    sum to 100.
    """
    if n_tracks is None:
        n_tracks = max(1, len(registry.tracks()))
    timeline = elapsed_s * n_tracks
    accounted = registry.ledger_total()
    idle = max(0.0, timeline - accounted)
    categories: dict[str, dict] = {}
    ordered = [c for c in CATEGORIES if c in registry.ledger]
    ordered += sorted(set(registry.ledger) - set(CATEGORIES))
    for category in ordered:
        seconds = registry.ledger[category]
        categories[category] = {
            "seconds": seconds,
            "percent": 100.0 * seconds / timeline if timeline else 0.0,
        }
    return {
        "elapsed_s": elapsed_s,
        "n_tracks": n_tracks,
        "timeline_s": timeline,
        "accounted_s": accounted,
        "idle_s": idle,
        "categories": categories,
    }


def _format_table(headers, rows, title=None) -> str:
    """Minimal fixed-width table (kept local: repro.bench imports the
    application packages, which transitively import this module)."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(str(headers[col])), *(len(row[col]) for row in cells))
        if cells
        else len(str(headers[col]))
        for col in range(len(headers))
    ]
    lines = [] if title is None else [title]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  ".join(value.rjust(w) for value, w in zip(row, widths))
        )
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def format_breakdown(breakdown: dict, title: Optional[str] = None) -> str:
    """Render :func:`cost_breakdown` output as an ASCII table."""
    rows = [
        [category, data["seconds"], f"{data['percent']:.2f}%"]
        for category, data in breakdown["categories"].items()
    ]
    timeline = breakdown["timeline_s"]
    idle_pct = 100.0 * breakdown["idle_s"] / timeline if timeline else 0.0
    rows.append(["idle", breakdown["idle_s"], f"{idle_pct:.2f}%"])
    rows.append(["total", timeline, "100.00%"])
    header = title or (
        f"virtual-time cost breakdown "
        f"({breakdown['elapsed_s']:.6f}s elapsed x "
        f"{breakdown['n_tracks']} resources)"
    )
    return _format_table(
        ["category", "virtual_seconds", "share"], rows, title=header
    )


def format_counters(
    registry: MetricsRegistry, prefix: str = "", limit: Optional[int] = None
) -> str:
    """Render the (optionally prefix-filtered) metric snapshot."""
    snapshot = registry.snapshot()
    rows = []
    for name, value in snapshot.items():
        if prefix and not name.startswith(prefix):
            continue
        if isinstance(value, dict):  # histogram: show count/sum only
            rows.append([name, f"n={value['count']} sum={value['sum']:g}"])
        elif isinstance(value, float):
            rows.append([name, f"{value:g}"])
        else:
            rows.append([name, str(value)])
    if limit is not None and len(rows) > limit:
        rows = rows[:limit] + [["...", f"({len(rows) - limit} more)"]]
    if not rows:
        return "(no metrics)"
    return _format_table(["metric", "value"], rows)
