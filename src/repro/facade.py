"""One-call construction of the paper's platform.

Everything in this repository can be assembled by hand — a
:class:`~repro.des.Simulator`, a LAN from
:func:`~repro.netsim.build_lan`, then a
:class:`~repro.messengers.MessengersSystem` or
:class:`~repro.mp.MessagePassingSystem` on top — and the lower layers
remain the canonical API for benchmarks that need full control.  But
the common case is always the same four lines, so this module provides
them as one::

    import repro

    c = repro.cluster(4)                 # 4 workstations, one Ethernet
    c.inject('hello() { create(ALL); M_log("hi from", $address); }')
    c.run_to_quiescence()

A :class:`Cluster` owns the simulator and the physical network and
builds the software systems lazily: ``c.messengers`` the first time a
Messenger-side call is made, ``c.mp`` the first time a task is
spawned, ``c.mail`` the first time mailboxes are touched.  All share
the same wire, so mixed experiments work too.

Configuration is *typed*: every subsystem knob lives on one composable
:class:`ClusterConfig` (with :class:`~repro.mailbox.MailboxConfig`
nested for the mailbox layer)::

    cfg = repro.ClusterConfig(
        n_hosts=8,
        metrics=True,
        faults=plan,
        mailbox=repro.MailboxConfig(poll_interval_s=0.01),
    )
    c = repro.cluster(config=cfg)

A variant of a configuration is a :func:`dataclasses.replace` away
(``replace(cfg, n_hosts=16)``), and a measured run is ordinary code on
the cluster::

    c = repro.cluster(config=repro.ClusterConfig(n_hosts=8, metrics=True))
    c.inject(SCRIPT)
    c.run_to_quiescence()
    print(format_breakdown(c.breakdown()))  # repro.obs.format_breakdown
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Union

from .des import Simulator
from .mailbox import MailboxConfig
from .netsim import CostModel, DEFAULT_COSTS, Network, build_lan
from .obs import MetricsRegistry, cost_breakdown

__all__ = ["Cluster", "ClusterConfig", "cluster"]

#: Daemon-graph shapes :class:`Cluster` knows how to build.
TOPOLOGIES = ("ethernet", "complete", "ring")

@dataclass(frozen=True)
class ClusterConfig:
    """Typed, composable configuration for a :class:`Cluster`.

    One object describes the whole platform; subsystems each get a
    field instead of growing the constructor a kwarg at a time:

    ``n_hosts``, ``cpu_scale``, ``costs``
        The physical platform — how many simulated workstations
        (``host0``, ``host1``, ...), their relative CPU speed, and the
        cost table (default: the SPARCstation 5 calibration).
    ``topology``
        Shape of the *daemon* network: ``"ethernet"`` (alias
        ``"complete"``) or ``"ring"``, or a pre-built
        :class:`~repro.messengers.DaemonNetwork`.
    ``metrics``
        ``True`` for a fresh :class:`~repro.obs.MetricsRegistry`, or a
        registry you built yourself.  Default off (zero overhead).
    ``faults`` / ``seed``
        A :class:`~repro.faults.FaultPlan` and the root seed for its
        random streams.
    ``resilience``
        A :class:`~repro.resilience.ResiliencePolicy` to arm.
    ``mailbox``
        ``True`` or a :class:`~repro.mailbox.MailboxConfig` to arm the
        durable mailbox layer eagerly (``None`` leaves it lazy —
        touching ``c.mail`` arms it with defaults).  When both a
        resilience policy and the mailbox layer are armed, the
        ``no-lost-mail`` / ``no-double-read`` invariants are wired into
        the suite automatically.
    ``service``
        A :class:`~repro.service.ServiceConfig` describing an open-loop
        service workload; ``c.service`` then builds the
        :class:`~repro.service.ServiceWorkload` (lazily, like the other
        layers).  When a resilience policy is also armed, the
        ``no-request-lost`` / ``breaker-sanity`` invariants are wired
        into the suite automatically.
    """

    n_hosts: int = 4
    topology: Any = "ethernet"
    costs: Optional[CostModel] = None
    cpu_scale: float = 1.0
    metrics: Union[bool, MetricsRegistry] = False
    faults: Any = None
    seed: int = 0
    resilience: Any = None
    mailbox: Union[None, bool, MailboxConfig] = None
    service: Any = None

    def __post_init__(self):
        if self.n_hosts < 1:
            raise ValueError(
                f"need at least one host, got {self.n_hosts}"
            )
        if (
            isinstance(self.topology, str)
            and self.topology not in TOPOLOGIES
        ):
            raise ValueError(
                f"unknown topology {self.topology!r} (choose from "
                f"{', '.join(TOPOLOGIES)} or pass a DaemonNetwork)"
            )

    def mailbox_config(self) -> MailboxConfig:
        """The effective mailbox configuration (defaults for ``True``)."""
        if isinstance(self.mailbox, MailboxConfig):
            return self.mailbox
        return MailboxConfig()


class Cluster:
    """The paper's platform in one object: N hosts on one shared LAN.

    The canonical constructions::

        Cluster(8)                         # 8 hosts, defaults otherwise
        Cluster(config=ClusterConfig(...)) # fully configured

    An explicit ``n_hosts`` overrides ``config.n_hosts``.
    """

    def __init__(
        self,
        n_hosts: Optional[int] = None,
        config: Optional[ClusterConfig] = None,
    ):
        if config is None:
            config = ClusterConfig()
        if n_hosts is not None:
            config = replace(config, n_hosts=n_hosts)
        self.config = config

        self.sim = Simulator()
        self.costs = (
            config.costs if config.costs is not None else DEFAULT_COSTS
        )
        self.network: Network = build_lan(
            self.sim,
            config.n_hosts,
            self.costs,
            config.cpu_scale,
        )
        if isinstance(config.metrics, MetricsRegistry):
            self.metrics: Optional[MetricsRegistry] = config.metrics
        elif config.metrics:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = None
        if self.metrics is not None:
            self.sim.metrics = self.metrics

        self._messengers = None
        self._mp = None
        self._mail = None
        self._service = None
        self.injector = None
        if config.faults is not None:
            from .faults import FaultInjector

            self.injector = FaultInjector(
                self.network, config.faults, seed=config.seed
            )
        self.resilience = None
        if config.resilience is not None:
            from .resilience import ResilienceSuite

            self.resilience = ResilienceSuite(
                self.network, config.resilience, seed=config.seed
            )
        if config.mailbox:
            self._arm_mailbox()

    # -- construction of the software layers (lazy) -------------------------

    def _daemon_graph(self):
        from .messengers import DaemonNetwork

        topology = self.config.topology
        if isinstance(topology, DaemonNetwork):
            return topology
        names = self.network.host_names
        if topology == "ring":
            return DaemonNetwork.ring(names)
        return DaemonNetwork.complete(names)

    @property
    def messengers(self):
        """The MESSENGERS runtime on this cluster (built on first use)."""
        if self._messengers is None:
            from .messengers import MessengersSystem

            self._messengers = MessengersSystem(
                self.network, daemon_graph=self._daemon_graph()
            )
        return self._messengers

    @property
    def mp(self):
        """The PVM-workalike runtime on this cluster (built on first use)."""
        if self._mp is None:
            from .mp import MessagePassingSystem

            self._mp = MessagePassingSystem(self.network)
        return self._mp

    def _arm_mailbox(self):
        from .mailbox import (
            MailboxService,
            NoDoubleRead,
            NoLostMail,
            register_mailbox_natives,
        )

        service = MailboxService(
            self.messengers, self.config.mailbox_config()
        )
        register_mailbox_natives(service)
        if self.resilience is not None:
            self.resilience.add_invariant(NoLostMail(service))
            self.resilience.add_invariant(NoDoubleRead(service))
            if service.replication is not None:
                from .replication import (
                    QuorumLiveness,
                    ReplicaConvergence,
                )

                self.resilience.add_invariant(ReplicaConvergence(service))
                self.resilience.add_invariant(QuorumLiveness(service))
        self._mail = service
        return service

    @property
    def mail(self):
        """The durable mailbox layer (armed on first use).

        Prefer configuring it up front (``ClusterConfig(mailbox=...)``)
        so invariants and natives are armed before any run starts.
        """
        if self._mail is None:
            self._arm_mailbox()
        return self._mail

    @property
    def service(self):
        """The open-loop service workload (built on first use).

        Configure via ``ClusterConfig(service=ServiceConfig(...))``;
        with ``service=None`` this property builds a workload with the
        default :class:`~repro.service.ServiceConfig`.
        """
        if self._service is None:
            from .service import ServiceWorkload

            self._service = ServiceWorkload(self, self.config.service)
        return self._service

    # -- cluster shape -------------------------------------------------------

    @property
    def host_names(self) -> list[str]:
        return self.network.host_names

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    # -- host churn ----------------------------------------------------------

    def join_host(
        self,
        name: Optional[str] = None,
        cpu_scale: Optional[float] = None,
    ):
        """Add a workstation to the running cluster (churn: join).

        The new host attaches to the shared segment, its daemon links
        to every current daemon (the LAN rule) and immediately becomes
        a placement and mail-delivery target.  Re-joining a host that
        previously left revives it in place.  Returns the new daemon.
        """
        from .netsim import Host

        # Materialize the daemon layer from the *current* host set
        # first: if the new host joined the network before the lazy
        # build, it would come up with a daemon already running and the
        # explicit add_daemon below would refuse it.
        system = self.messengers
        if name is None:
            index = len(self.network)
            taken = set(self.network.host_names)
            while f"host{index}" in taken:
                index += 1
            name = f"host{index}"
        try:
            host = self.network.host(name)
        except KeyError:
            host = Host(
                self.sim,
                name,
                self.costs,
                cpu_scale=(
                    cpu_scale
                    if cpu_scale is not None
                    else self.config.cpu_scale
                ),
            )
            self.network.add_host(host)
        return system.add_daemon(host)

    def leave_host(self, name: str) -> None:
        """Gracefully remove a workstation mid-run (churn: leave).

        Nothing is lost: logical nodes re-home, ready Messengers
        migrate, in-flight traffic is forwarded, and durable mailboxes
        follow their nodes.  See
        :meth:`~repro.messengers.MessengersSystem.retire_daemon`.
        """
        self.messengers.retire_daemon(name)

    def schedule(self, at_s: float, fn: Callable[["Cluster"], Any]):
        """Run ``fn(cluster)`` at simulated time ``at_s`` (churn driver).

        The callback runs as a foreground event, so a scheduled join or
        leave keeps the run alive until it has happened.
        """

        def _event():
            delay = at_s - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            fn(self)

        return self.sim.process(_event())

    # -- MESSENGERS-side delegates ------------------------------------------

    def inject(self, script, **kwargs):
        """Inject a Messenger (see :meth:`MessengersSystem.inject`)."""
        return self.messengers.inject(script, **kwargs)

    def run_to_quiescence(self) -> float:
        """Run until no Messenger can make progress; returns sim.now."""
        return self.messengers.run_to_quiescence()

    def add_node(self, name: str, daemon: Optional[str] = None):
        """Create a named logical node (a mailbox endpoint, a landmark).

        Placed on ``daemon`` (default: the first host).  Returns the
        :class:`~repro.messengers.logical.LogicalNode`.
        """
        home = daemon if daemon is not None else self.host_names[0]
        if home not in self.messengers.daemons:
            raise KeyError(f"unknown daemon {home!r}")
        return self.messengers.logical.create_node(name, home)

    # -- mailbox delegates ---------------------------------------------------

    def mailbox(self, node):
        """The durable mailbox of ``node`` (a LogicalNode, uid, or name)."""
        return self.mail.mailbox(node)

    def send_mail(self, to, body, subject: str = "", frm=None):
        """Post one mail to ``to``'s mailbox; returns the Mail record."""
        return self.mail.send(to, body, subject=subject, frm=frm)

    def broadcast(self, body, subject: str = "", frm=None, **kwargs):
        """Post one mail to every registered mailbox (deduped fan-out)."""
        return self.mail.broadcast(body, subject=subject, frm=frm, **kwargs)

    def consumer(self, node, handler, poll_interval_s=None):
        """Attach a poll-mode consumer to ``node``'s mailbox."""
        return self.mail.consumer(
            node, handler, poll_interval_s=poll_interval_s
        )

    @property
    def mail_stats(self) -> dict:
        """Mailbox lifecycle counters (empty dict when never armed)."""
        return dict(self._mail.counts) if self._mail is not None else {}

    # -- observability -------------------------------------------------------

    def snapshot(self) -> dict:
        """Metric snapshot (empty dict when metrics are off)."""
        return self.metrics.snapshot() if self.metrics is not None else {}

    @property
    def fault_stats(self) -> dict:
        """Injection/recovery counters (empty dict without a fault plan)."""
        return dict(self.injector.counts) if self.injector is not None else {}

    @property
    def resilience_stats(self) -> dict:
        """Detector/supervision/invariant statistics (empty without a
        resilience policy)."""
        return self.resilience.stats() if self.resilience is not None else {}

    def breakdown(self) -> dict:
        """Per-category cost breakdown of the run so far.

        Requires the cluster to have been built with metrics enabled.
        """
        if self.metrics is None:
            raise RuntimeError(
                "cluster was built without metrics; set metrics=True on "
                "its ClusterConfig to enable the cost ledger"
            )
        # One timeline per host plus one for the shared wire.
        return cost_breakdown(self.metrics, self.sim.now, len(self.network) + 1)

    def __repr__(self) -> str:
        layers = []
        if self._messengers is not None:
            layers.append("messengers")
        if self._mp is not None:
            layers.append("mp")
        if self._mail is not None:
            layers.append("mail")
        if self._service is not None:
            layers.append("service")
        return (
            f"<Cluster hosts={len(self.network)} "
            f"t={self.sim.now:.6f}s "
            f"layers=[{', '.join(layers) or '-'}]"
            f"{' metrics' if self.metrics is not None else ''}>"
        )


def cluster(
    n_hosts: Optional[int] = None,
    config: Optional[ClusterConfig] = None,
) -> Cluster:
    """Build the paper's platform: ``n_hosts`` workstations on one LAN.

    ``repro.cluster(4)`` for the defaults, ``repro.cluster(config=cfg)``
    for a fully configured platform.
    """
    return Cluster(n_hosts, config=config)
