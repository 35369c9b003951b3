"""repro — a full reproduction of "Messages versus Messengers in
Distributed Programming" (Fukuda, Bic, Dillencourt, Cahill; ICDCS 1997).

Subpackages
-----------
``repro.des``
    Deterministic discrete-event simulation kernel.
``repro.netsim``
    The physical substrate: hosts (cache-aware CPU model) on a shared
    Ethernet, plus the :class:`~repro.netsim.costs.CostModel` every
    virtual-time charge comes from.
``repro.mp``
    The message-passing baseline: a PVM 3.3 workalike.
``repro.messengers``
    The paper's contribution: daemons, logical networks, navigational
    statements, the MCL script language (``repro.messengers.mcl``),
    non-preemptive scheduling, conservative GVT, the net_builder
    service, shell, and tracing.
``repro.gvt``
    Standalone conservative and Time-Warp virtual-time kernels.
``repro.apps``
    The evaluation applications (Mandelbrot, matrix multiplication) in
    sequential / message-passing / MESSENGERS form, plus the swarm
    extension.
``repro.bench``
    Sweep drivers and reporting for regenerating every paper artifact.
``repro.faults``
    Deterministic fault injection: timed/probabilistic fault plans
    (packet loss, duplication, corruption, partitions, host crashes and
    restarts), the reliable-delivery layer they force, and the recovery
    machinery's counters.
``repro.mailbox``
    Durable per-node mailboxes with an explicit delivery lifecycle
    (sent → delivered → seen → processed → read), broadcast with
    per-recipient dedup, poll-mode consumers, and exactly-once
    guarantees that hold under faults and host churn.
``repro.resilience``
    Detection-driven recovery: heartbeat/phi-accrual failure detectors,
    supervision restart policies, transport flow control, in-run
    invariant checkers, and a fault-schedule searcher that shrinks
    violations to minimal reproducers.
``repro.service``
    Open-system service workloads: deadline-carrying requests under
    Poisson/bursty/diurnal open-loop arrivals, served by per-request
    Messengers or PVM-style RPC, behind a graceful-degradation stack
    (admission control, retry budgets, circuit breakers, load
    shedding) with "no request lost silently" invariants.
``repro.obs``
    Cross-cutting observability: metrics, the virtual-time cost
    ledger, Chrome-trace/JSONL exporters.

The top level holds the facade and the configuration types it takes;
everything else is imported from its subpackage (``repro.des.Simulator``,
``repro.netsim.build_lan``, ``repro.mp.PackBuffer``, ...)::

    import repro

    c = repro.cluster(4)
    c.inject('hello() { create(ALL); M_log("hi from", $address); }')
    c.run_to_quiescence()

See README.md for a tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for paper-versus-measured results.
"""

from .facade import Cluster, ClusterConfig, cluster
from .faults import FaultPlan
from .mailbox import MailboxConfig
from .obs import MetricsRegistry, cost_breakdown
from .replication import ReplicationConfig
from .resilience import ResiliencePolicy
from .service import ServiceConfig

__version__ = "1.6.0"

__all__ = [
    "Cluster",
    "ClusterConfig",
    "FaultPlan",
    "MailboxConfig",
    "MetricsRegistry",
    "ReplicationConfig",
    "ResiliencePolicy",
    "ServiceConfig",
    "__version__",
    "cluster",
    "cost_breakdown",
]
