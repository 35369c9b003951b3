"""MESSENGERS — autonomous self-migrating computations (the paper's
primary contribution).

Layered exactly as §2.1 describes: the *physical network*
(:mod:`repro.netsim`) carries the *daemon network*
(:class:`DaemonNetwork`, :class:`Daemon`), on which applications build a
persistent *logical network* (:class:`LogicalNetwork`) navigated by
:class:`Messenger` objects executing MCL scripts
(:mod:`repro.messengers.mcl`), coordinated in virtual time
(:mod:`repro.messengers.vtime`).

Quick use::

    system = repro.cluster(4).messengers
    system.inject('''
        hello() {
            create(ALL);
            M_log("hello from", $address);
        }
    ''')
    system.run_to_quiescence()
"""

from .daemon import Daemon
from .daemon_graph import DaemonNetwork
from .logical import ANY, LogicalNetwork, LogicalNode
from .messenger import Messenger
from .natives import UnknownNativeError
from .netbuilder import (
    TopologyError,
    build_from_text,
    build_grid,
    build_ring,
    build_torus,
    grid_node_name,
)
from .shell import Shell, ShellError
from .trace import TraceEvent, Tracer
from .system import MessengersSystem
from .vtime import VirtualTimeError

__all__ = [
    "ANY",
    "Daemon",
    "DaemonNetwork",
    "LogicalNetwork",
    "LogicalNode",
    "Messenger",
    "MessengersSystem",
    "Shell",
    "ShellError",
    "TopologyError",
    "TraceEvent",
    "Tracer",
    "UnknownNativeError",
    "VirtualTimeError",
    "build_from_text",
    "build_grid",
    "build_ring",
    "build_torus",
    "grid_node_name",
]
