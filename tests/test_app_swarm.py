"""Tests for the individual-based swarm simulation (extension app)."""

import pytest

from repro.des import Simulator
from repro.netsim import build_lan
from repro.messengers import MessengersSystem, build_torus, grid_node_name
from repro.apps.swarm import run_swarm
from repro.apps.swarm.world import GRASS_MAX, World


class TestTorus:
    def test_dimensions_and_degree(self):
        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 2))
        nodes = build_torus(system, 3, 4)
        assert len(nodes) == 12
        for node in nodes.values():
            # 1 east out + 1 east in + 1 south out + 1 south in
            assert node.degree() == 4

    def test_wraparound(self):
        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 1))
        nodes = build_torus(system, 2, 3)
        corner = nodes[grid_node_name(1, 2)]
        east = [
            link for link in corner.links
            if link.name == "east" and link.src is corner
        ]
        assert east[0].dst.name == grid_node_name(1, 0)

    def test_navigation_roundtrip(self):
        """east then west returns a Messenger to its start cell."""
        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 2))
        build_torus(system, 3, 3)
        places = []

        @system.natives.register
        def mark(env):
            places.append(env.node.name)
            return 0

        system.inject(
            """
            walker() {
                mark();
                hop(ll = "east"; ldir = +);
                mark();
                hop(ll = "east"; ldir = -);
                mark();
            }
            """,
            node=grid_node_name(1, 1),
            daemon=system.logical.find_named(grid_node_name(1, 1))[0].daemon,
        )
        system.run_to_quiescence()
        assert places == ["1,1", "1,2", "1,1"]

    def test_validation(self):
        from repro.messengers import TopologyError

        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 1))
        with pytest.raises(TopologyError):
            build_torus(system, 0, 3)


class TestWorld:
    def make_world(self):
        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 2))
        return World(system, 2, 2, initial_grass=4.0)

    def test_grass_regrows_lazily(self):
        world = self.make_world()
        cell = world.cell(0, 0)
        eaten = World.graze(cell, vt=0.0, bite=3.0)
        assert eaten == 3.0
        # 5 ticks later the cell has regrown 5 (capped at GRASS_MAX)
        assert World.current_grass(cell, vt=5.0) == pytest.approx(6.0)

    def test_grass_caps_at_max(self):
        world = self.make_world()
        cell = world.cell(1, 1)
        assert World.current_grass(cell, vt=100.0) == GRASS_MAX

    def test_graze_cannot_overdraw(self):
        world = self.make_world()
        cell = world.cell(0, 1)
        assert World.graze(cell, vt=0.0, bite=99.0) == 4.0
        assert World.graze(cell, vt=0.0, bite=99.0) == 0.0

    def test_total_and_map(self):
        world = self.make_world()
        assert world.total_grass(0.0) == pytest.approx(16.0)

    def test_visit_histogram(self):
        world = self.make_world()
        World.graze(world.cell(0, 0), vt=0.0, bite=1.0)
        World.graze(world.cell(0, 0), vt=1.0, bite=1.0)
        histogram = world.visit_histogram()
        assert histogram[grid_node_name(0, 0)] == 2


class TestSwarm:
    def test_conservation_of_creatures(self):
        result = run_swarm(ticks=12, population=6, seed=1)
        assert (
            result.initial_population + result.born
            == result.final_population + len(result.starved)
        )

    def test_determinism(self):
        a = run_swarm(ticks=10, population=5, seed=42)
        b = run_swarm(ticks=10, population=5, seed=42)
        assert a.survivors == b.survivors
        assert a.starved == b.starved
        assert a.born == b.born
        assert a.seconds == b.seconds

    def test_seed_changes_outcome(self):
        a = run_swarm(ticks=10, population=5, seed=1)
        b = run_swarm(ticks=10, population=5, seed=2)
        # Different walks; visits distribution should differ.
        assert a.visits != b.visits

    def test_starvation_when_world_is_barren(self):
        result = run_swarm(
            ticks=10,
            population=4,
            initial_energy=3.0,
            bite=0.5,
            metabolism=2.0,
            repro_threshold=1e9,
        )
        assert result.final_population == 0
        assert len(result.starved) == 4
        assert result.born == 0

    def test_reproduction_when_world_is_rich(self):
        result = run_swarm(
            ticks=12,
            population=2,
            rows=8,
            cols=8,
            bite=3.0,
            metabolism=1.0,
            repro_threshold=10.0,
        )
        assert result.born > 0
        assert result.final_population > result.initial_population

    def test_grazing_consumes_grass(self):
        rich = run_swarm(ticks=8, population=0)
        grazed = run_swarm(ticks=8, population=8)
        assert grazed.total_grass_left < rich.total_grass_left

    def test_gvt_drives_the_lockstep(self):
        result = run_swarm(ticks=9, population=4)
        # one GVT advance per tick (minus the free initial tick)
        assert result.gvt_rounds >= result.ticks - 1
