"""Simulated hosts: a CPU with a cache-aware cost model plus NIC queues.

A :class:`Host` serializes computation on a single CPU resource; software
layers (PVM tasks, MESSENGERS daemons) charge virtual time through
:meth:`Host.compute` / :meth:`Host.busy`.  Delivery queues for the
transport layer are per-(host, port) stores created on demand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..des import Event, Hold, Resource, Simulator, Store
from ..des.errors import SimulationError
from .costs import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .transport import Network

__all__ = ["Host", "HostCrashedError"]


class HostCrashedError(SimulationError):
    """An operation targeted a host that is currently crashed.

    Raised by :meth:`Host.busy`/:meth:`Host.compute` (a dead CPU does no
    work) and by :meth:`~repro.netsim.transport.Network.enqueue` when the
    *source* host is down — software running "on" a crashed host is a
    bug in the caller's recovery logic, so it surfaces loudly.
    """


class CpuHold(Hold):
    """One :meth:`Host.busy` period on the host's CPU."""

    __slots__ = ("host", "category", "label")

    def __init__(self, host: "Host", seconds, category, label):
        Hold.__init__(self, host.cpu, seconds)
        self.host = host
        self.category = category
        self.label = label

    def _grant(self) -> None:
        if self.host.crashed:
            # Crashed while queued for the CPU: the failure fires now,
            # and its first callback hands the CPU to the next in line.
            self.fail(self.host._down())
        else:
            Hold._grant(self)

    def _done(self) -> None:
        host = self.host
        host.busy_seconds += self.seconds
        metrics = host.sim.obs
        if metrics is not None and (
            self.category is not None or self.label is not None
        ):
            # With category=None the span is recorded for the trace but
            # not charged — the caller attributes the time itself (e.g.
            # pack copy + protocol overhead).
            metrics.span(
                host.name, self.label or self.category, self.category,
                self.start, host.sim.now,
            )


class Host:
    """One machine of the simulated cluster.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Unique host name (also its network address).
    costs:
        The platform cost table.
    cpu_scale:
        Relative CPU speed (1.0 = the calibration baseline).  The paper's
        matmul experiments used two generations of SPARCstation 5
        (110 MHz vs 170 MHz); benchmarks express that here.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        costs: CostModel,
        cpu_scale: float = 1.0,
    ):
        if cpu_scale <= 0:
            raise ValueError(f"cpu_scale must be positive, got {cpu_scale}")
        self.sim = sim
        self.name = name
        self.costs = costs
        self.cpu_scale = cpu_scale
        self.cpu = Resource(sim, capacity=1)
        self.network: Optional["Network"] = None
        self._ports: dict[str, Store] = {}
        #: Accumulated busy time, for utilization reporting.
        self.busy_seconds: float = 0.0
        #: Fail-stop state, driven by the fault layer via
        #: :meth:`crash`/:meth:`restart`.
        self.crashed: bool = False

    # -- CPU ------------------------------------------------------------------

    def compute(
        self, flops: float, working_set_bytes: float = 0.0
    ) -> Event:
        """Occupy the CPU for a computation (see :meth:`busy`)::

            yield host.compute(1e6, working_set_bytes=8e6)
        """
        return self.busy(self.compute_seconds(flops, working_set_bytes))

    def busy(
        self,
        seconds: float,
        category: Optional[str] = "compute",
        label: Optional[str] = None,
    ) -> Event:
        """Occupy the CPU for a fixed duration, FIFO; ``yield`` the
        returned event.  A running period completes through a crash;
        one whose turn comes on a crashed host fails with
        :class:`HostCrashedError`, as does one asked of a host already
        down.

        ``category`` attributes the time in the cost ledger when a
        metrics registry is attached (see :mod:`repro.obs`); pass
        ``None`` for callers that split one busy period into several
        charges themselves (the daemon's interpretation slices do).
        ``label`` overrides the span name shown in trace exports.
        """
        hold = CpuHold(self, seconds, category, label)  # validates seconds
        if self.crashed:
            return self.sim.event().fail(self._down())
        return self.cpu.enqueue(hold)

    def _down(self) -> HostCrashedError:
        return HostCrashedError(f"host {self.name!r} is down")

    def compute_seconds(
        self, flops: float, working_set_bytes: float = 0.0
    ) -> float:
        """The duration :meth:`compute` would charge (without running)."""
        return self.costs.compute_seconds(
            flops, working_set_bytes, self.cpu_scale
        )

    # -- faults ----------------------------------------------------------------

    def crash(self) -> list:
        """Fail-stop this host; returns everything its queues lost.

        Volatile state — queued and half-delivered packets in every port
        store, including the outbound ``_tx`` queue — is discarded, and
        the discarded items are returned so the fault layer can report
        them and recovery layers can identify in-flight casualties.  The
        :class:`~repro.des.Store` objects themselves survive (service
        pumps stay parked on them and simply resume after a restart).
        """
        self.crashed = True
        lost = []
        for store in self._ports.values():
            lost.extend(store.clear())
        return lost

    def restart(self) -> None:
        """Bring a crashed host back (empty queues, CPU idle)."""
        self.crashed = False

    # -- NIC ports -----------------------------------------------------------

    def port(self, name: str) -> Store:
        """The delivery queue for service ``name`` on this host."""
        if name not in self._ports:
            self._ports[name] = Store(self.sim)
        return self._ports[name]

    def __repr__(self) -> str:
        return f"<Host {self.name} x{self.cpu_scale}>"
