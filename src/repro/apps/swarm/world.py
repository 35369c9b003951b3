"""The grazing world: a toroidal grid with regrowing grass.

The paper's introduction names "individual-based systems, distributed
interactive simulations" as natural users of a persistent logical
network (§1) and presents GVT as the coordination substrate (§2.2).
This extension application puts both to work: the world is a torus of
logical nodes whose *node variables* hold the grass state, and the
creatures of :mod:`repro.apps.swarm.creatures` are Messengers that
graze and move in virtual-time lockstep.

Grass is stored lazily: each cell records ``(level, last_vt)`` and is
brought up to date (regrowth ``GROW_PER_TICK`` per virtual tick, capped
at ``GRASS_MAX``) whenever a creature grazes — no per-tick sweep over
the world is needed.
"""

from __future__ import annotations


from ...messengers import MessengersSystem, build_torus, grid_node_name

__all__ = ["GRASS_MAX", "GROW_PER_TICK", "World"]

#: Maximum grass per cell.
GRASS_MAX = 10.0
#: Regrowth per virtual-time tick.
GROW_PER_TICK = 1.0


class World:
    """The torus of cells plus grass-state helpers."""

    def __init__(
        self,
        system: MessengersSystem,
        rows: int,
        cols: int,
        initial_grass: float = GRASS_MAX,
    ):
        self.system = system
        self.rows = rows
        self.cols = cols
        self.nodes = build_torus(system, rows, cols)
        for node in self.nodes.values():
            node.variables["grass"] = float(initial_grass)
            node.variables["grass_vt"] = 0.0
            node.variables["visits"] = 0

    def cell(self, row: int, col: int):
        """The logical node of cell (row, col)."""
        return self.nodes[grid_node_name(row % self.rows, col % self.cols)]

    # -- grass dynamics ------------------------------------------------------

    @staticmethod
    def current_grass(node, vt: float) -> float:
        """Grass level at virtual time ``vt`` (lazy regrowth)."""
        level = node.variables["grass"]
        elapsed = vt - node.variables["grass_vt"]
        return min(GRASS_MAX, level + elapsed * GROW_PER_TICK)

    @staticmethod
    def graze(node, vt: float, bite: float) -> float:
        """Consume up to ``bite`` grass at ``vt``; returns the amount."""
        available = World.current_grass(node, vt)
        eaten = min(bite, available)
        node.variables["grass"] = available - eaten
        node.variables["grass_vt"] = vt
        node.variables["visits"] += 1
        return eaten

    # -- observability -----------------------------------------------------------

    def total_grass(self, vt: float) -> float:
        """World grass total at virtual time ``vt``."""
        return sum(
            self.current_grass(node, vt) for node in self.nodes.values()
        )

    def visit_histogram(self) -> dict:
        """Cell name → number of grazing visits."""
        return {
            name: node.variables["visits"]
            for name, node in self.nodes.items()
        }
