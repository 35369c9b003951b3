"""Message-passing substrate — a PVM 3.3 workalike on the simulated LAN.

The paper's baseline: stationary tasks exchanging passive messages, with
explicit pack/unpack buffer copies, per-message overhead and synchronous
spawn, all charged from the cost model.

Public surface: :class:`MessagePassingSystem` (a task is a generator
over the ``pvm_*``-flavoured :class:`~repro.mp.task.TaskContext`),
pack/unpack buffers, and the ``ANY`` wildcard.
"""

from .buffers import PackBuffer, UnpackBuffer, estimate_size
from .pvm import MessagePassingSystem
from .task import ANY, Message, TaskKilled

__all__ = [
    "ANY",
    "Message",
    "MessagePassingSystem",
    "PackBuffer",
    "TaskKilled",
    "UnpackBuffer",
    "estimate_size",
]
