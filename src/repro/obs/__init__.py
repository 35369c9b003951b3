"""``repro.obs`` — the cross-cutting observability layer.

The paper's argument is quantitative: message passing loses to
MESSENGERS where pack/unpack copies and daemon traffic dominate, and
loses the advantage where per-instruction script interpretation does
(§2.1, Figures 4–7/12).  This package makes those terms *visible*: a
:class:`MetricsRegistry` attached to a simulator
(``sim.metrics = MetricsRegistry()``) collects

* hierarchically named counters / gauges / histograms from every
  subsystem (``des.events_executed``, ``netsim.eth.bytes``,
  ``mp.pack.bytes_copied``, ``messengers.hops_remote``,
  ``mcl.vm.instructions{opcode}``, ``gvt.rollbacks``, …);
* a **cost ledger** attributing every virtual-time charge to one of
  the paper's categories (:data:`CATEGORIES`): compute, copies, wire,
  interpretation, dispatch, protocol, gvt;
* **spans** and **instants** on the simulated clock, one track per
  host plus one for the Ethernet segment.

Exporters turn one run into a Chrome ``trace_event`` JSON
(:func:`dump_chrome_trace`), a JSONL event log
(:func:`~repro.obs.export.to_jsonl`), or an
ASCII cost-breakdown report (:func:`cost_breakdown` /
:func:`format_breakdown`).  ``python -m repro stats`` wires it all
together for the paper's workloads.

Everything is opt-in: with no registry attached the instrumented hot
paths reduce to a single ``is None`` test (the overhead guard
``benchmarks/test_obs_overhead.py`` holds the enabled path under 5%
and the disabled path at the noise floor).
"""

from .export import (
    cost_breakdown,
    dump_chrome_trace,
    format_breakdown,
    format_counters,
)
from .registry import (
    CATEGORIES,
    Counter,
    Histogram,
    InstantEvent,
    MetricsRegistry,
)

__all__ = [
    "CATEGORIES",
    "Counter",
    "Histogram",
    "InstantEvent",
    "MetricsRegistry",
    "cost_breakdown",
    "dump_chrome_trace",
    "format_breakdown",
    "format_counters",
]
