"""Discrete-event simulation kernel.

Public surface:

* :class:`Simulator` — clock + event queue;
* :class:`Event`, :class:`Timeout` (``a | b`` and ``a & b`` compose
  events);
* :class:`Process` (usually created via :meth:`Simulator.process`);
* :class:`Resource` (and its :class:`Hold`), :class:`Store`,
  :class:`FilterStore`;
* :class:`Interrupt`, :class:`SimulationError` exceptions;
* :class:`RngRegistry` — deterministic named RNG streams.
"""

from .core import Event, Simulator, Timeout
from .errors import (
    Interrupt,
    SimDeadlockError,
    SimOverloadError,
    SimulationError,
)
from .process import Process
from .resources import FilterStore, Hold, Resource, Store
from .rng import RngRegistry

__all__ = [
    "Event",
    "FilterStore",
    "Hold",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "SimDeadlockError",
    "SimOverloadError",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
