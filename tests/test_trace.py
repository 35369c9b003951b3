"""Tests for execution tracing and logical-network export."""

import pytest

from repro.des import Simulator
from repro.netsim import build_lan
from repro.messengers import MessengersSystem, Tracer, build_grid
from repro.messengers.trace import to_dot, to_networkx


@pytest.fixture
def traced_system():
    sim = Simulator()
    system = MessengersSystem(build_lan(sim, 3))
    tracer = Tracer.attach(system)
    return system, tracer


class TestTracer:
    def test_records_lifecycle(self, traced_system):
        system, tracer = traced_system
        messenger = system.inject(
            "f() { create(ALL); hop(ll = $last); }"
        )
        system.run_to_quiescence()
        kinds = tracer.counts()
        assert kinds.get("arrive", 0) >= 2  # two create arrivals
        assert kinds.get("hop", 0) >= 2  # two hops back
        assert kinds.get("done", 0) >= 2

    def test_journey_follows_one_messenger(self, traced_system):
        system, tracer = traced_system
        system.inject("f() { M_sched_time_abs(1); }")
        system.run_to_quiescence()
        [done] = [e for e in tracer.events if e.kind == "done"]
        journey = tracer.journey(done.messenger)
        assert [e.kind for e in journey] == ["sched", "done"]
        assert journey[0].vt == 0.0
        assert journey[1].vt == 1.0

    def test_timeline_readable(self, traced_system):
        system, tracer = traced_system
        system.inject("f() { create(ALL); }")
        system.run_to_quiescence()
        text = tracer.timeline()
        assert "m#" in text and "done" in text

    def test_timeline_limit(self, traced_system):
        system, tracer = traced_system
        system.inject("f() { create(ALL); hop(ll = $last); }")
        system.run_to_quiescence()
        text = tracer.timeline(limit=2)
        assert "more)" in text

    def test_capacity_drops_excess(self):
        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 3))
        tracer = Tracer.attach(system, capacity=3)
        system.inject("f() { create(ALL); hop(ll = $last); }")
        system.run_to_quiescence()
        assert len(tracer) == 3
        assert tracer.dropped > 0

    def test_clear(self, traced_system):
        system, tracer = traced_system
        system.inject("f() { create(ALL); }")
        system.run_to_quiescence()
        tracer.clear()
        assert len(tracer) == 0

    def test_untraced_system_has_no_overhead_records(self):
        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 2))
        system.inject("f() { create(ALL); }")
        system.run_to_quiescence()  # no tracer attached; must not crash
        assert system.tracer is None

    def test_timings_are_deterministic_with_tracing(self):
        def run(with_tracer):
            sim = Simulator()
            system = MessengersSystem(build_lan(sim, 3))
            if with_tracer:
                Tracer.attach(system)
            system.inject("f() { create(ALL); hop(ll = $last); }")
            return system.run_to_quiescence()

        assert run(True) == run(False)  # tracing charges no virtual time


class TestExport:
    def test_dot_contains_nodes_and_clusters(self, traced_system):
        system, _tracer = traced_system
        build_grid(system, 2)
        dot = to_dot(system.logical)
        assert "digraph" in dot
        assert "cluster_0" in dot
        assert '"row"' in dot or "label=\"row\"" in dot
        assert dot.count("->") >= 4  # grid links + init anchors

    def test_dot_marks_undirected_links(self, traced_system):
        system, _tracer = traced_system
        build_grid(system, 2)
        dot = to_dot(system.logical)
        assert "dir=none" in dot  # row links are undirected

    def test_networkx_round_trip(self, traced_system):
        import networkx as nx

        system, _tracer = traced_system
        build_grid(system, 3)
        graph = to_networkx(system.logical)
        # 9 grid nodes + 3 init nodes
        assert graph.number_of_nodes() == 12
        # grid is connected when viewed undirected
        grid_nodes = [
            n for n, data in graph.nodes(data=True)
            if data["name"] != "init"
        ]
        undirected = graph.to_undirected()
        assert nx.is_connected(undirected.subgraph(grid_nodes))

    def test_networkx_attributes(self, traced_system):
        system, _tracer = traced_system
        node = system.logical.create_node("data", "host1")
        node.variables["queue"] = [1, 2]
        graph = to_networkx(system.logical)
        attrs = graph.nodes[node.uid]
        assert attrs["daemon"] == "host1"
        assert attrs["variables"] == ["queue"]
