"""The metrics registry: counters, gauges, histograms, spans, and the
virtual-time cost ledger.

One :class:`MetricsRegistry` observes one simulation.  It is attached to
a :class:`~repro.des.core.Simulator` (``sim.metrics = registry``) and
every layer of the reproduction — the DES kernel, the Ethernet model,
the PVM workalike, the MESSENGERS daemons and VM, both GVT engines —
reports into it through three channels:

* **metrics** — hierarchically named counters / gauges / fixed-bucket
  histograms (``des.events_executed``, ``netsim.eth.bytes``,
  ``mp.pack.bytes_copied``, ``messengers.hops_remote``, …), plus
  labelled counter families (``mcl.vm.instructions{opcode=...}``);
* **the cost ledger** — every virtual-time charge attributed to one of
  the paper's cost categories (:data:`CATEGORIES`): buffer copies,
  wire occupancy, script interpretation, compute, daemon dispatch,
  protocol overhead, GVT synchronization.  The ledger is what turns an
  end-to-end simulated-seconds number into the decomposition the paper
  argues from ("where does the time go?");
* **spans / instants** — timestamped intervals and point events on the
  *simulated* clock, grouped by track (one track per host, one for the
  wire), exportable as a Chrome ``trace_event`` JSON
  (:mod:`repro.obs.export`).

When a registry is absent (``sim.metrics is None``) instrumented code
skips recording entirely; when a registry is *disabled*
(``MetricsRegistry(enabled=False)``) every accessor returns a shared
null object whose methods are no-ops, so instrumentation points can be
written unconditionally at zero cost.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Optional, Sequence

__all__ = [
    "CATEGORIES",
    "CAT_COMPUTE",
    "CAT_COPIES",
    "CAT_DISPATCH",
    "CAT_GVT",
    "CAT_INTERP",
    "CAT_PROTOCOL",
    "CAT_WIRE",
    "Counter",
    "CounterFamily",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "MetricNameError",
    "MetricsRegistry",
    "Span",
]

# -- cost categories ---------------------------------------------------------

#: Numpy kernels / native-mode functions (the useful work).
CAT_COMPUTE = "compute"
#: Memory copies: PVM pack/unpack marshalling, local messenger-state moves.
CAT_COPIES = "copies"
#: Occupancy of the shared Ethernet medium.
CAT_WIRE = "wire"
#: MCL bytecode interpretation + native-call overhead.
CAT_INTERP = "interpretation"
#: Daemon bookkeeping: hop dispatch, logical node/link table updates.
CAT_DISPATCH = "dispatch"
#: Per-message software overhead: endpoint syscalls, pvm_send/recv
#: bookkeeping, task spawning.
CAT_PROTOCOL = "protocol"
#: Virtual-time synchronization: min-reduction rounds, state saving.
CAT_GVT = "gvt"

#: Every cost category, in report order.  The first four are the
#: decomposition the paper's argument rests on (§2.1/§3).
CATEGORIES = (
    CAT_COMPUTE,
    CAT_COPIES,
    CAT_WIRE,
    CAT_INTERP,
    CAT_DISPATCH,
    CAT_PROTOCOL,
    CAT_GVT,
)


class MetricNameError(ValueError):
    """A metric name collides with an existing metric or subtree."""


# -- metric kinds ------------------------------------------------------------


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (must be >= 0)."""
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {n}")
        self.value += n

    def snapshot_value(self):
        return self.value

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that can go up and down (queue depths, utilization)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def snapshot_value(self):
        return self.value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``buckets`` are upper bounds in increasing order; an implicit
    +inf bucket catches the overflow.  ``count`` and ``sum`` track the
    whole stream, so averages survive bucketing.
    """

    kind = "histogram"
    __slots__ = ("name", "buckets", "counts", "count", "sum")

    #: Default bounds for second-valued observations (1µs .. 10s).
    DEFAULT_BUCKETS = (
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
    )

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None):
        bounds = tuple(buckets) if buckets is not None else self.DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"histogram {name}: buckets must be strictly increasing"
            )
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1).

        Prometheus-style: find the bucket holding the target rank and
        interpolate linearly inside it (the lowest bucket interpolates
        from 0; the +inf bucket returns its lower bound — the estimate
        saturates).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, n in enumerate(self.counts):
            if n == 0:
                continue
            if seen + n >= rank:
                if index == len(self.buckets):  # +inf bucket: saturate
                    return self.buckets[-1]
                lo = self.buckets[index - 1] if index > 0 else 0.0
                hi = self.buckets[index]
                return lo + (hi - lo) * max(0.0, rank - seen) / n
            seen += n
        return self.buckets[-1]

    def snapshot_value(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                ("+inf" if index == len(self.buckets) else repr(bound)): n
                for index, (bound, n) in enumerate(
                    zip(self.buckets + (float("inf"),), self.counts)
                )
            },
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} sum={self.sum:g}>"


class CounterFamily:
    """A set of counters distinguished by one label (e.g. per opcode).

    Snapshot keys render Prometheus-style:
    ``mcl.vm.instructions{opcode=CALL}``.
    """

    kind = "counter_family"
    __slots__ = ("name", "label", "values")

    def __init__(self, name: str, label: str):
        self.name = name
        self.label = label
        self.values: dict[str, float] = {}

    def inc(self, label_value: str, n: float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {n}")
        self.values[label_value] = self.values.get(label_value, 0) + n

    def get(self, label_value: str) -> float:
        return self.values.get(label_value, 0)

    def snapshot_value(self):
        return dict(sorted(self.values.items()))

    def __repr__(self) -> str:
        return f"<CounterFamily {self.name}{{{self.label}}}>"


# -- null objects (disabled registry) ---------------------------------------


class _NullMetric:
    """Absorbs every metric operation at near-zero cost."""

    kind = "null"
    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, *args, **kwargs) -> None:
        pass

    def set(self, *args, **kwargs) -> None:
        pass

    def observe(self, *args, **kwargs) -> None:
        pass

    def get(self, *args, **kwargs) -> int:
        return 0

    def snapshot_value(self):
        return 0


_NULL_METRIC = _NullMetric()


# -- spans & instants ---------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One interval on the simulated clock, on one track.

    ``track`` groups spans into Chrome-trace threads (one per host plus
    one for the wire); ``category`` is the cost category charged (or
    ``None`` for purely visual spans that were already charged
    elsewhere, component by component).
    """

    track: str
    name: str
    category: Optional[str]
    t0: float
    t1: float
    args: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class InstantEvent:
    """One point event on the simulated clock.

    This is the shared event model: :class:`~repro.messengers.trace.Tracer`
    consumes these (it renders them as its ``TraceEvent`` records) and
    the Chrome exporter emits them as instant ('i') events.
    """

    track: str
    name: str
    t: float
    args: Optional[dict] = None


# -- the registry -------------------------------------------------------------


class MetricsRegistry:
    """Counters + gauges + histograms + spans + the cost ledger.

    Parameters
    ----------
    enabled:
        When False every accessor returns a shared null metric and all
        record/charge calls are no-ops (the zero-cost-when-disabled
        contract).
    span_capacity:
        Maximum number of spans/instants retained (each), so tracing a
        long run cannot exhaust memory; overflow is counted in
        ``spans_dropped`` / ``instants_dropped``.  The ledger and all
        metrics keep exact totals regardless.
    opcode_counts:
        Record per-opcode VM instruction counts
        (``mcl.vm.instructions{opcode}``).  Counted slices run through
        the reference interpreter loop (:func:`repro.messengers.mcl.vm.run`)
        instead of the compiled closures, one increment per
        instruction, so it costs more than every other hook combined;
        off by default, switched on by ``python -m repro stats
        --opcodes`` and tests.
    """

    def __init__(
        self,
        enabled: bool = True,
        span_capacity: int = 200_000,
        opcode_counts: bool = False,
    ):
        self.enabled = enabled
        self.span_capacity = span_capacity
        self.opcode_counts = opcode_counts if enabled else False
        self._metrics: dict[str, Any] = {}
        #: Every dot-path that is an *ancestor* of a registered metric.
        self._branches: set[str] = set()
        #: category -> attributed virtual seconds (the cost ledger).
        self.ledger: dict[str, float] = {}
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self.spans_dropped = 0
        self.instants_dropped = 0

    # -- registration -------------------------------------------------------

    def _register(self, name: str, factory, kind: str, *args):
        if not self.enabled:
            return _NULL_METRIC
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise MetricNameError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {kind}"
                )
            return existing
        if name in self._branches:
            raise MetricNameError(
                f"metric name {name!r} collides with an existing "
                "metric subtree (it is a prefix of another metric)"
            )
        if not name or name.startswith(".") or name.endswith("."):
            raise MetricNameError(f"bad metric name {name!r}")
        parts = name.split(".")
        ancestors = [".".join(parts[:i]) for i in range(1, len(parts))]
        for ancestor in ancestors:
            if ancestor in self._metrics:
                raise MetricNameError(
                    f"metric name {name!r} collides with existing "
                    f"metric {ancestor!r} (hierarchical prefix)"
                )
        metric = factory(name, *args)
        self._metrics[name] = metric
        self._branches.update(ancestors)
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._register(name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._register(name, Gauge, "gauge")

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._register(name, Histogram, "histogram", buckets)

    def counter_family(self, name: str, label: str) -> CounterFamily:
        """Get or create the labelled counter family ``name``."""
        return self._register(name, CounterFamily, "counter_family", label)

    def count(self, name: str, n: float = 1) -> None:
        """Convenience: get-or-create counter ``name`` and add ``n``."""
        if not self.enabled:
            return
        metric = self._metrics.get(name)
        if metric is None:
            metric = self.counter(name)
        metric.inc(n)

    def observe(self, name: str, value: float) -> None:
        """Convenience: get-or-create histogram ``name``, observe."""
        if not self.enabled:
            return
        metric = self._metrics.get(name)
        if metric is None:
            metric = self.histogram(name)
        metric.observe(value)

    # -- ledger & spans -----------------------------------------------------

    def charge(self, category: str, seconds: float) -> None:
        """Attribute ``seconds`` of virtual time to a cost category."""
        if not self.enabled or seconds == 0:
            return
        self.ledger[category] = self.ledger.get(category, 0.0) + seconds

    def span(
        self,
        track: str,
        name: str,
        category: Optional[str],
        t0: float,
        t1: float,
        args: Optional[dict] = None,
        charge: bool = True,
    ) -> None:
        """Record one interval; charges its category unless told not to.

        Pass ``charge=False`` for envelope spans whose components were
        already charged individually (e.g. a daemon slice charged as
        interpretation + compute + copies).
        """
        if not self.enabled:
            return
        if charge and category is not None and t1 > t0:
            self.ledger[category] = (
                self.ledger.get(category, 0.0) + (t1 - t0)
            )
        if len(self.spans) >= self.span_capacity:
            self.spans_dropped += 1
            return
        self.spans.append(Span(track, name, category, t0, t1, args))

    def instant(
        self, track: str, name: str, t: float, args: Optional[dict] = None
    ) -> Optional[InstantEvent]:
        """Record a point event; returns it (None when not recorded)."""
        if not self.enabled:
            return None
        event = InstantEvent(track, name, t, args)
        self.record_instant(event)
        return event

    def record_instant(self, event: InstantEvent) -> None:
        """Record an already-built :class:`InstantEvent`."""
        if not self.enabled:
            return
        if len(self.instants) >= self.span_capacity:
            self.instants_dropped += 1
            return
        self.instants.append(event)

    # -- introspection ------------------------------------------------------

    def get(self, name: str):
        """The registered metric called ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    @property
    def names(self) -> list[str]:
        return sorted(self._metrics)

    def value(self, name: str):
        """Shortcut: the snapshot value of one metric (0 if absent)."""
        metric = self._metrics.get(name)
        return metric.snapshot_value() if metric is not None else 0

    def snapshot(self) -> dict:
        """Deterministic name -> value dump of every metric.

        Families expand to ``name{label=value}`` entries so the result
        is a flat, sorted, JSON-friendly dict.
        """
        out: dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, CounterFamily):
                for label_value, n in sorted(metric.values.items()):
                    out[f"{name}{{{metric.label}={label_value}}}"] = n
            else:
                out[name] = metric.snapshot_value()
        return out

    def ledger_total(self) -> float:
        """Sum of all attributed virtual seconds."""
        return sum(self.ledger.values())

    def tracks(self) -> list[str]:
        """Every track that appears in spans/instants, sorted."""
        names = {s.track for s in self.spans}
        names.update(e.track for e in self.instants)
        return sorted(names)

    def clear(self) -> None:
        """Drop all recorded data (metric registrations survive)."""
        for metric in self._metrics.values():
            if isinstance(metric, Counter):
                metric.value = 0
            elif isinstance(metric, Gauge):
                metric.value = 0
            elif isinstance(metric, Histogram):
                metric.counts = [0] * (len(metric.buckets) + 1)
                metric.count = 0
                metric.sum = 0.0
            elif isinstance(metric, CounterFamily):
                metric.values.clear()
        self.ledger.clear()
        self.spans.clear()
        self.instants.clear()
        self.spans_dropped = 0
        self.instants_dropped = 0

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<MetricsRegistry {state} metrics={len(self._metrics)} "
            f"spans={len(self.spans)} "
            f"ledger={self.ledger_total():.6f}s>"
        )
