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

The facade (this package's top level) is the quickest way in::

    import repro

    c = repro.cluster(4)
    c.inject('hello() { create(ALL); M_log("hi from", $address); }')
    c.run_to_quiescence()

See README.md for a tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for paper-versus-measured results.
"""

from .des import Simulator
from .facade import (
    Cluster,
    ClusterConfig,
    Experiment,
    ExperimentResult,
    cluster,
)
from .faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    RetransmitPolicy,
)
from .mailbox import (
    Mail,
    Mailbox,
    MailboxConfig,
    MailboxService,
    NoDoubleRead,
    NoLiveDaemonError,
    NoLostMail,
)
from .messengers import (
    DaemonNetwork,
    MessengersSystem,
    NativeRegistry,
    Shell,
    Tracer,
)
from .mp import MessagePassingSystem, PackBuffer, UnpackBuffer
from .netsim import (
    CacheModel,
    CostModel,
    DEFAULT_COSTS,
    Network,
    build_lan,
    sparc5_costs,
)
from .obs import (
    CATEGORIES,
    MetricsRegistry,
    cost_breakdown,
    dump_chrome_trace,
    format_breakdown,
    to_chrome_trace,
    to_jsonl,
)
from .replication import ReplicationConfig, ReplicationService
from .resilience import (
    InvariantViolation,
    ResiliencePolicy,
    ResilienceSuite,
    RestartPolicy,
    ScheduleSearcher,
    WorkLedger,
)
from .service import ServiceConfig, ServiceWorkload

__version__ = "1.6.0"

__all__ = [
    "CATEGORIES",
    "CacheModel",
    "Cluster",
    "ClusterConfig",
    "CostModel",
    "DEFAULT_COSTS",
    "DaemonNetwork",
    "Experiment",
    "ExperimentResult",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "InvariantViolation",
    "Mail",
    "Mailbox",
    "MailboxConfig",
    "MailboxService",
    "MessagePassingSystem",
    "MessengersSystem",
    "MetricsRegistry",
    "NativeRegistry",
    "Network",
    "NoDoubleRead",
    "NoLiveDaemonError",
    "NoLostMail",
    "PackBuffer",
    "ReplicationConfig",
    "ReplicationService",
    "ResiliencePolicy",
    "ResilienceSuite",
    "RestartPolicy",
    "RetransmitPolicy",
    "ScheduleSearcher",
    "ServiceConfig",
    "ServiceWorkload",
    "Shell",
    "Simulator",
    "Tracer",
    "UnpackBuffer",
    "WorkLedger",
    "__version__",
    "build_lan",
    "cluster",
    "cost_breakdown",
    "dump_chrome_trace",
    "format_breakdown",
    "sparc5_costs",
    "to_chrome_trace",
    "to_jsonl",
]
