"""Dynamic task groups, after PVM's ``pvm_joingroup``/``pvm_gettid``.

A group maps instance numbers (0, 1, 2, …) to task ids.  Groups also
provide a counted barrier, which PVM exposes as ``pvm_barrier``.
"""

from __future__ import annotations

from typing import Optional

from ..des import Event, Simulator

__all__ = ["GroupRegistry"]


class _Group:
    def __init__(self, name: str):
        self.name = name
        self.members: list[int] = []  # instance number -> tid
        self.barrier_waiters: list[Event] = []
        self.barrier_target: Optional[int] = None


class GroupRegistry:
    """All groups known to one message-passing system."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._groups: dict[str, _Group] = {}

    def _group(self, name: str) -> _Group:
        if name not in self._groups:
            self._groups[name] = _Group(name)
        return self._groups[name]

    def join(self, name: str, tid: int) -> int:
        """Add ``tid`` to the group; returns its instance number."""
        group = self._group(name)
        if tid in group.members:
            return group.members.index(tid)
        group.members.append(tid)
        return len(group.members) - 1

    def leave(self, name: str, tid: int) -> None:
        """Remove ``tid`` from the group (instance numbers shift down)."""
        group = self._group(name)
        try:
            group.members.remove(tid)
        except ValueError:
            raise KeyError(f"tid {tid} not in group {name!r}") from None

    def tid_of(self, name: str, instance: int) -> int:
        """The task id at instance number ``instance`` (pvm_gettid)."""
        group = self._group(name)
        try:
            return group.members[instance]
        except IndexError:
            raise KeyError(
                f"group {name!r} has no instance {instance}"
            ) from None

    def size(self, name: str) -> int:
        """Number of members (pvm_gsize)."""
        return len(self._group(name).members)

    def members(self, name: str) -> list[int]:
        """All member tids in instance order."""
        return list(self._group(name).members)

    def barrier(self, name: str, count: int) -> Event:
        """Event that fires when ``count`` tasks have hit the barrier.

        All callers must pass the same ``count`` (as in PVM); the barrier
        resets automatically once released, so it can be reused.
        """
        group = self._group(name)
        if group.barrier_target is None:
            group.barrier_target = count
        elif group.barrier_target != count:
            raise ValueError(
                f"barrier({name!r}) called with count={count}, "
                f"but earlier callers used {group.barrier_target}"
            )
        event = self.sim.event()
        group.barrier_waiters.append(event)
        if len(group.barrier_waiters) >= count:
            waiters, group.barrier_waiters = group.barrier_waiters, []
            group.barrier_target = None
            for waiter in waiters:
                waiter.succeed()
        return event
