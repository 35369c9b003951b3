"""Execution tracing and logical-network visualization.

Attach a :class:`Tracer` to a running system to record every Messenger
movement and daemon action with (simulated time, virtual time)
coordinates::

    tracer = Tracer.attach(system)
    system.inject(...)
    system.run_to_quiescence()
    print(tracer.timeline())
    print(tracer.journey(messenger_id=1))

:func:`to_dot` / :func:`to_networkx` export the logical network for
visualization — the closest modern equivalent of the graphics tool the
paper mentions alongside ``net_builder`` (§3.2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from ..obs import InstantEvent
from .logical import LogicalNetwork

__all__ = ["TraceEvent", "Tracer", "to_dot", "to_networkx"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence."""

    time: float  # simulated wall-clock
    vt: float  # messenger's virtual time
    kind: str  # slice/hop/create/delete/arrive/done/lost/sched/wake
    messenger: int
    program: str
    daemon: str
    node: str
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"t={self.time * 1e3:9.3f}ms vt={self.vt:<6g} "
            f"m#{self.messenger:<4d} {self.program:<16} "
            f"{self.kind:<7} {self.node}@{self.daemon} {self.detail}"
        )


class Tracer:
    """Collects :class:`TraceEvent` records from one system.

    The tracer is a *consumer* of the shared
    :class:`~repro.obs.InstantEvent` model: the system builds one event
    per occurrence and fans it out to the tracer and (when attached)
    the metrics registry, so the two views of a run can never disagree.
    """

    def __init__(self, capacity: Optional[int] = None):
        self.events: list[TraceEvent] = []
        self.capacity = capacity
        self.dropped = 0

    # The module docstring's entry point for tracing a system.
    @classmethod
    def attach(cls, system, capacity: Optional[int] = None) -> "Tracer":
        """Create a tracer and register it on ``system``."""
        tracer = cls(capacity)
        system.tracer = tracer
        return tracer

    def consume(self, event: InstantEvent) -> None:
        """Ingest one :class:`~repro.obs.InstantEvent` from the system."""
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        args = event.args or {}
        self.events.append(
            TraceEvent(
                time=event.t,
                vt=args.get("vt", 0.0),
                kind=event.name,
                messenger=args.get("messenger", -1),
                program=args.get("program", "?"),
                daemon=event.track,
                node=args.get("node", "-"),
                detail=args.get("detail", ""),
            )
        )

    def record(
        self,
        sim_time: float,
        messenger,
        kind: str,
        daemon: str,
        detail: str = "",
    ) -> None:
        """Record one occurrence (builds the obs event, then consumes it)."""
        self.consume(
            InstantEvent(
                track=daemon,
                name=kind,
                t=sim_time,
                args={
                    "messenger": messenger.id,
                    "program": messenger.program.name,
                    "vt": messenger.vt,
                    "node": (
                        messenger.node.display_name
                        if messenger.node
                        else "-"
                    ),
                    "detail": detail,
                },
            )
        )

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    # The query the module docstring shows; the CLI reads ``events``.
    def journey(self, messenger_id: int) -> list[TraceEvent]:
        """Every recorded step of one Messenger, in order."""
        return [e for e in self.events if e.messenger == messenger_id]

    def counts(self) -> dict:
        """Event-kind histogram."""
        return dict(Counter(e.kind for e in self.events))

    def timeline(self, limit: Optional[int] = None) -> str:
        """Human-readable chronological dump."""
        events = self.events if limit is None else self.events[:limit]
        lines = [str(e) for e in events]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more)")
        return "\n".join(lines) if lines else "(no events)"

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0


# Visualization export (§3.2's graphics tool); no simulated run calls it.
def to_dot(logical: LogicalNetwork, name: str = "logical") -> str:
    """Graphviz DOT rendering of the logical network.

    Nodes are grouped into per-daemon clusters (the daemon network is
    the placement substrate); directed logical links use arrows.
    """
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    daemons: dict[str, list] = {}
    for node in logical.nodes:
        daemons.setdefault(node.daemon, []).append(node)
    for index, (daemon, nodes) in enumerate(sorted(daemons.items())):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f'    label="{daemon}";')
        for node in nodes:
            variables = ",".join(sorted(node.variables)) or ""
            label = node.display_name + (f"\\n[{variables}]" if variables else "")
            lines.append(f'    "{node.uid}" [label="{label}"];')
        lines.append("  }")
    for link in logical.links:
        attrs = [f'label="{link.display_name}"']
        if not link.directed:
            attrs.append("dir=none")
        lines.append(
            f'  "{link.src.uid}" -> "{link.dst.uid}" '
            f"[{', '.join(attrs)}];"
        )
    lines.append("}")
    return "\n".join(lines)


# Visualization export, as to_dot, for networkx users.
def to_networkx(logical: LogicalNetwork):
    """Export the logical network as a networkx (Multi)DiGraph.

    Undirected links become two antiparallel edges flagged
    ``directed=False``; node attributes carry daemon placement and the
    node-variable names.
    """
    import networkx as nx

    graph = nx.MultiDiGraph()
    for node in logical.nodes:
        graph.add_node(
            node.uid,
            name=node.display_name,
            daemon=node.daemon,
            variables=sorted(node.variables),
        )
    for link in logical.links:
        graph.add_edge(
            link.src.uid,
            link.dst.uid,
            key=link.uid,
            name=link.display_name,
            directed=link.directed,
        )
        if not link.directed:
            graph.add_edge(
                link.dst.uid,
                link.src.uid,
                key=-link.uid,
                name=link.display_name,
                directed=False,
            )
    return graph
