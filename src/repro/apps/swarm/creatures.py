"""Creatures: individual-based simulation agents as Messengers.

Each creature is one Messenger executing :data:`CREATURE_SCRIPT`.  Its
state — energy, identity, step counter — travels in messenger
variables; the world's state lives in node variables.  Creatures
synchronize through GVT exactly like the matmul blocks of §3.2: every
creature wakes at integer virtual ticks, grazes, pays metabolism, and
moves one cell in a deterministic pseudo-random direction.  A creature
whose energy reaches zero starves (returns); one that thrives past the
reproduction threshold spawns offspring at its cell (a native injects a
new Messenger — Messengers creating Messengers, §1).

Determinism: direction choices and offspring identity derive from a
seeded hash of (creature id, tick), so runs are exactly repeatable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from ...facade import Cluster, ClusterConfig
from ...netsim import CostModel, DEFAULT_COSTS
from .world import World

__all__ = ["CREATURE_SCRIPT", "SwarmResult", "run_swarm"]

CREATURE_SCRIPT = """
creature(id, energy, start, ticks) {
    for (k = start; k < ticks; k++) {
        M_sched_time_abs(k);
        energy = energy + graze(id) - metabolism();
        if (energy <= 0) {
            starve(id, k);
            return;
        }
        if (energy >= repro_threshold()) {
            energy = energy / 2;
            spawn_offspring(id, k, energy, ticks);
        }
        dir = choose_direction(id, k);
        if (dir == 0) { hop(ll = "east"; ldir = +); }
        else if (dir == 1) { hop(ll = "east"; ldir = -); }
        else if (dir == 2) { hop(ll = "south"; ldir = +); }
        else { hop(ll = "south"; ldir = -); }
    }
    survive(id, energy);
}
"""


@dataclass
class SwarmResult:
    """Outcome of one swarm run."""

    ticks: int
    initial_population: int
    born: int = 0
    starved: list = field(default_factory=list)  # (id, tick)
    survivors: dict = field(default_factory=dict)  # id -> final energy
    total_grass_left: float = 0.0
    visits: dict = field(default_factory=dict)
    seconds: float = 0.0  # simulated
    gvt_rounds: int = 0

    @property
    def final_population(self) -> int:
        return len(self.survivors)


def _direction(seed: int, creature_id, tick: int) -> int:
    """Deterministic direction in {0,1,2,3} from (seed, id, tick)."""
    key = f"{seed}:{creature_id}:{tick}".encode()
    return zlib.crc32(key) % 4


def run_swarm(
    rows: int = 6,
    cols: int = 6,
    n_hosts: int = 4,
    population: int = 8,
    ticks: int = 20,
    initial_energy: float = 5.0,
    bite: float = 3.0,
    metabolism: float = 2.0,
    repro_threshold: float = 14.0,
    seed: int = 0,
    costs: CostModel = DEFAULT_COSTS,
) -> SwarmResult:
    """Run the grazing simulation; fully deterministic for a seed."""
    system = Cluster(
        config=ClusterConfig(n_hosts=n_hosts, costs=costs)
    ).messengers
    world = World(system, rows, cols)
    result = SwarmResult(ticks=ticks, initial_population=population)
    natives = system.natives
    next_id = [population]

    @natives.register
    def graze(env, creature_id):
        eaten = World.graze(env.node, env.vt, bite)
        env.charge_seconds(20e-6)
        return eaten

    @natives.register(name="metabolism")
    def _metabolism(env):
        return metabolism

    @natives.register(name="repro_threshold")
    def _repro_threshold(env):
        return repro_threshold

    @natives.register
    def choose_direction(env, creature_id, tick):
        return _direction(seed, creature_id, int(tick))

    @natives.register
    def starve(env, creature_id, tick):
        result.starved.append((creature_id, int(tick)))
        return 0

    @natives.register
    def survive(env, creature_id, energy):
        result.survivors[creature_id] = energy
        return 0

    @natives.register
    def spawn_offspring(env, parent_id, tick, energy, total_ticks):
        child_id = next_id[0]
        next_id[0] += 1
        result.born += 1
        # The child joins the lockstep at the *next* tick, at the
        # parent's cell.
        system.inject(
            CREATURE_SCRIPT,
            args=(child_id, energy, int(tick) + 1, total_ticks),
            daemon=env.node.daemon,
            node=env.node.display_name,
            vt=env.vt,
        )
        return 0

    # Scatter the founding population deterministically.
    for creature_id in range(population):
        row = _direction(seed, creature_id, -1) + creature_id % rows
        col = _direction(seed, creature_id, -2) + creature_id % cols
        cell = world.cell(row % rows, col % cols)
        system.inject(
            CREATURE_SCRIPT,
            args=(creature_id, initial_energy, 0, ticks),
            daemon=cell.daemon,
            node=cell.display_name,
        )

    result.seconds = system.run_to_quiescence()
    result.total_grass_left = world.total_grass(float(ticks))
    result.visits = world.visit_histogram()
    result.gvt_rounds = system.vtime.rounds
    return result
