"""Unit tests for the net_builder service (topology files + grids)."""

import pytest

from repro.des import Simulator
from repro.netsim import build_lan
from repro.messengers import (
    MessengersSystem,
    TopologyError,
    build_from_text,
    build_grid,
    build_ring,
    grid_node_name,
)


@pytest.fixture
def system():
    sim = Simulator()
    return MessengersSystem(build_lan(sim, 4))


class TestTopologyFiles:
    def test_nodes_and_links(self, system):
        nodes = build_from_text(
            system,
            """
            # a triangle
            node A @ host0
            node B @ host1
            node C @ host2
            link A -- B : ab
            link B -> C : bc
            link C -- A
            """,
        )
        assert set(nodes) == {"A", "B", "C"}
        assert nodes["A"].degree() == 2
        bc = [link for link in nodes["B"].links if link.name == "bc"][0]
        assert bc.directed and bc.src is nodes["B"]

    def test_unknown_daemon_rejected(self, system):
        with pytest.raises(TopologyError, match="unknown daemon"):
            build_from_text(system, "node A @ ghost")

    def test_duplicate_node_rejected(self, system):
        with pytest.raises(TopologyError, match="duplicate"):
            build_from_text(
                system, "node A @ host0\nnode A @ host1"
            )

    def test_undeclared_link_endpoint_rejected(self, system):
        with pytest.raises(TopologyError, match="undeclared"):
            build_from_text(
                system, "node A @ host0\nlink A -- B"
            )

    def test_bad_syntax_rejected(self, system):
        with pytest.raises(TopologyError):
            build_from_text(system, "frob A")
        with pytest.raises(TopologyError):
            build_from_text(system, "node A")
        with pytest.raises(TopologyError):
            build_from_text(
                system, "node A @ host0\nnode B @ host0\nlink A => B"
            )

    def test_comments_and_blank_lines_ignored(self, system):
        nodes = build_from_text(
            system, "\n# only comments\nnode A @ host0  # trailing\n\n"
        )
        assert list(nodes) == ["A"]


class TestGrid:
    def test_figure_10_topology(self, system):
        """Rows fully connected & undirected; columns directed rings."""
        m = 3
        nodes = build_grid(system, m)
        assert len(nodes) == 9

        center = nodes[grid_node_name(1, 1)]
        row_links = [link for link in center.links if link.name == "row"]
        col_links = [link for link in center.links if link.name == "column"]
        assert len(row_links) == m - 1
        assert all(not link.directed for link in row_links)
        # ring: one outgoing (to row 0) + one incoming (from row 2)
        assert len(col_links) == 2
        assert all(link.directed for link in col_links)
        out = [link for link in col_links if link.src is center]
        assert out[0].dst.name == grid_node_name(0, 1)

    def test_column_wraps_around(self, system):
        nodes = build_grid(system, 2)
        top = nodes[grid_node_name(0, 0)]
        outgoing = [
            link for link in top.links if link.name == "column" and link.src is top
        ]
        assert outgoing[0].dst.name == grid_node_name(1, 0)

    def test_daemon_placement_cycles(self, system):
        nodes = build_grid(system, 3)  # 9 nodes over 4 daemons
        assert nodes[grid_node_name(0, 0)].daemon == "host0"
        assert nodes[grid_node_name(1, 1)].daemon == "host0"  # index 4 % 4

    def test_grid_size_validation(self, system):
        with pytest.raises(TopologyError):
            build_grid(system, 0)

    def test_degenerate_1x1(self, system):
        nodes = build_grid(system, 1)
        assert len(nodes) == 1
        assert nodes[grid_node_name(0, 0)].degree() == 0

    def test_navigable_by_messenger(self, system):
        """A Messenger walks a full column ring via directed hops."""
        build_grid(system, 3, daemons=["host0"])
        visited = []

        @system.natives.register
        def mark(env):
            visited.append(env.node.name)
            return 0

        system.inject(
            """
            walker(n) {
                for (k = 0; k < n; k++) {
                    mark();
                    hop(ll = "column"; ldir = +);
                }
            }
            """,
            args=(3,),
            node=grid_node_name(2, 1),
        )
        system.run_to_quiescence()
        assert visited == ["2,1", "1,1", "0,1"]


class TestRingAndStar:
    def test_ring_connectivity(self, system):
        nodes = build_ring(system, 5)
        assert len(nodes) == 5
        assert all(node.degree() == 2 for node in nodes.values())

    def test_single_node_ring(self, system):
        nodes = build_ring(system, 1)
        assert nodes["n0"].degree() == 0

    def test_star_shape(self, system):
        # Figure 3's manager/worker star, built dynamically by create(ALL).
        system.inject("star() { create(ALL); }", daemon="host0")
        system.run_to_quiescence()
        center = system.daemon("host0").init_node
        assert center.degree() == 3  # 4 daemons - center
        workers = {link.other(center).daemon for link in center.links}
        assert workers == {"host1", "host2", "host3"}

    def test_ring_validation(self, system):
        with pytest.raises(TopologyError):
            build_ring(system, 0)
