"""Deterministic fault injection for the simulated cluster.

``repro.faults`` makes the perfectly-reliable simulated LAN misbehave —
reproducibly.  A :class:`FaultPlan` describes packet drop/duplicate/
corrupt rates, link partitions, host crash/restart and daemon hangs; a
:class:`FaultInjector` replays that plan against a live
:class:`~repro.netsim.transport.Network`, with all randomness drawn from
seeded :class:`~repro.des.rng.RngRegistry` streams.

The recovery machinery lives with the layers it protects:

* ``netsim.transport`` — ack/seq/retransmit reliable delivery;
* ``messengers`` — hop-boundary checkpoints, logical-network repair and
  messenger re-dispatch;
* ``mp`` — ``pvm_notify``-style task-exit/host-delete notifications.

Entry points: ``repro.cluster(config=repro.ClusterConfig(faults=plan,
seed=s))`` and the ``repro chaos`` CLI command.
"""

from .injector import FaultInjector
from .plan import FaultPlan, FaultPlanError

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
]
