"""Discrete-event simulation kernel.

Public surface:

* :class:`Simulator` — clock + event queue;
* :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf`;
* :class:`Process` (usually created via :meth:`Simulator.process`);
* :class:`Resource` (and its :class:`Hold`), :class:`Store`,
  :class:`PriorityStore`, :class:`FilterStore`;
* :class:`Interrupt`, :class:`SimulationError` exceptions;
* :class:`RngRegistry` — deterministic named RNG streams.
"""

from .core import AllOf, AnyOf, Event, Simulator, Timeout
from .errors import (
    EventAlreadyTriggered,
    Interrupt,
    ProcessDead,
    SimDeadlockError,
    SimOverloadError,
    SimulationError,
    StopSimulation,
)
from .process import Process
from .resources import FilterStore, Hold, PriorityStore, Resource, Store
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "EventAlreadyTriggered",
    "FilterStore",
    "Hold",
    "Interrupt",
    "PriorityStore",
    "Process",
    "ProcessDead",
    "Resource",
    "RngRegistry",
    "SimDeadlockError",
    "SimOverloadError",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "Timeout",
]
