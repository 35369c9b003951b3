"""Unit tests for the logical network (nodes, links, navigation calculus)."""

import pytest

from repro.messengers import LogicalNetwork
from repro.messengers.logical import ANY, VIRTUAL


@pytest.fixture
def net():
    return LogicalNetwork()


class TestNodes:
    def test_create_named_node(self, net):
        node = net.create_node("A", "host0")
        assert node.name == "A"
        assert node.daemon == "host0"
        assert node.display_name == "A"
        assert node in net.nodes

    def test_unnamed_node_display(self, net):
        node = net.create_node(None, "host0")
        assert node.display_name.startswith("~")

    def test_matches_wildcard_and_name(self, net):
        node = net.create_node("A", "host0")
        assert node.matches(ANY)
        assert node.matches("A")
        assert not node.matches("B")

    def test_unnamed_matches_display_name(self, net):
        node = net.create_node(None, "host0")
        assert node.matches(node.display_name)

    def test_node_variables_persist(self, net):
        node = net.create_node("A", "host0")
        node.variables["tasks"] = [1, 2, 3]
        assert net.find_named("A")[0].variables["tasks"] == [1, 2, 3]

    def test_nodes_on_daemon(self, net):
        net.create_node("A", "host0")
        net.create_node("B", "host1")
        net.create_node("C", "host0")
        assert {n.name for n in net.nodes_on("host0")} == {"A", "C"}


class TestLinks:
    def test_undirected_link_matches_all_directions(self, net):
        a = net.create_node("A", "host0")
        b = net.create_node("B", "host0")
        link = net.create_link("x", a, b, directed=False)
        for want in ("+", "-", "*"):
            assert link.matches_direction(a, want)
            assert link.matches_direction(b, want)

    def test_directed_link_directions(self, net):
        a = net.create_node("A", "host0")
        b = net.create_node("B", "host0")
        link = net.create_link("x", a, b, directed=True)
        assert link.matches_direction(a, "+")
        assert not link.matches_direction(a, "-")
        assert link.matches_direction(b, "-")
        assert not link.matches_direction(b, "+")
        assert link.matches_direction(a, "*")

    def test_bad_direction_rejected(self, net):
        a = net.create_node("A", "host0")
        b = net.create_node("B", "host0")
        link = net.create_link("x", a, b)
        with pytest.raises(ValueError):
            link.matches_direction(a, "?")

    def test_other_endpoint(self, net):
        a = net.create_node("A", "host0")
        b = net.create_node("B", "host0")
        c = net.create_node("C", "host0")
        link = net.create_link("x", a, b)
        assert link.other(a) is b
        assert link.other(b) is a
        with pytest.raises(ValueError):
            link.other(c)

    def test_neighbors_and_degree(self, net):
        a = net.create_node("A", "host0")
        b = net.create_node("B", "host0")
        c = net.create_node("C", "host0")
        net.create_link("x", a, b)
        net.create_link("y", a, c)
        assert a.degree() == 2
        assert {n.name for n in a.neighbors()} == {"B", "C"}


class TestMatchMoves:
    def make_star(self, net):
        center = net.create_node("c", "host0")
        spokes = []
        for index in range(3):
            spoke = net.create_node(f"s{index}", f"host{index + 1}")
            net.create_link("spoke", center, spoke)
            spokes.append(spoke)
        return center, spokes

    def test_wildcard_matches_all_neighbors(self, net):
        center, spokes = self.make_star(net)
        moves = net.match_moves(center)
        assert {node.name for _link, node in moves} == {"s0", "s1", "s2"}

    def test_filter_by_node_name(self, net):
        center, _ = self.make_star(net)
        moves = net.match_moves(center, node_pattern="s1")
        assert [node.name for _link, node in moves] == ["s1"]

    def test_filter_by_link_name(self, net):
        center, spokes = self.make_star(net)
        extra = net.create_node("e", "host0")
        net.create_link("other", center, extra)
        moves = net.match_moves(center, link_pattern="spoke")
        assert len(moves) == 3

    def test_filter_by_direction(self, net):
        a = net.create_node("A", "host0")
        b = net.create_node("B", "host0")
        c = net.create_node("C", "host0")
        net.create_link("col", a, b, directed=True)  # a -> b
        net.create_link("col", c, a, directed=True)  # c -> a
        forward = net.match_moves(a, link_pattern="col", direction="+")
        backward = net.match_moves(a, link_pattern="col", direction="-")
        assert [n.name for _l, n in forward] == ["B"]
        assert [n.name for _l, n in backward] == ["C"]

    def test_virtual_jump_matches_globally(self, net):
        a = net.create_node("A", "host0")
        net.create_node("far", "host5")
        moves = net.match_moves(a, node_pattern="far", link_pattern=VIRTUAL)
        assert [n.name for link, n in moves] == ["far"]
        assert moves[0][0] is None

    def test_virtual_jump_requires_name(self, net):
        a = net.create_node("A", "host0")
        with pytest.raises(ValueError):
            net.match_moves(a, link_pattern=VIRTUAL)

    def test_no_matches_returns_empty(self, net):
        lonely = net.create_node("L", "host0")
        assert net.match_moves(lonely) == []


class TestDeletion:
    def test_delete_link_collects_singletons(self, net):
        a = net.create_node("A", "host0")
        b = net.create_node("B", "host0")
        link = net.create_link("x", a, b)
        removed = net.delete_link(link)
        assert {n.name for n in removed} == {"A", "B"}
        assert net.node_count() == 0

    def test_delete_link_keeps_connected_nodes(self, net):
        a = net.create_node("A", "host0")
        b = net.create_node("B", "host0")
        c = net.create_node("C", "host0")
        link_ab = net.create_link("x", a, b)
        net.create_link("y", b, c)
        removed = net.delete_link(link_ab)
        assert {n.name for n in removed} == {"A"}
        assert b in net.nodes and c in net.nodes

    def test_init_nodes_never_collected(self, net):
        init = net.create_node("init", "host0")
        b = net.create_node("B", "host0")
        link = net.create_link("x", init, b)
        removed = net.delete_link(link)
        assert init in net.nodes
        assert {n.name for n in removed} == {"B"}

    def test_links_listing(self, net):
        a = net.create_node("A", "host0")
        b = net.create_node("B", "host0")
        net.create_link("x", a, b)
        assert len(net.links) == 1
