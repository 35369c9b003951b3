"""The logical network: persistent nodes and links Messengers navigate.

The logical network is the paper's "exogenous skeleton" (§1): an
application-specific graph of named or unnamed nodes connected by named
or unnamed, directed or undirected links, superimposed on the daemon
network.  It persists independently of any Messenger — nodes hold *node
variables* that outlive the computations that wrote them.

Naming conventions follow §2.1:

* node/link names are strings; ``UNNAMED`` (``~`` in MCL) creates an
  anonymous node/link;
* the wildcard ``ANY`` (``*`` in MCL) matches any name;
* link directions are ``+`` (forward), ``-`` (backward), ``*`` (either);
  an undirected link matches every direction.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

__all__ = [
    "ANY",
    "UNNAMED",
    "VIRTUAL",
    "FORWARD",
    "BACKWARD",
    "EITHER",
    "LogicalNode",
    "LogicalLink",
    "LogicalNetwork",
]

#: Wildcard matching any node or link name (``*``).
ANY = "*"
#: Marker for an anonymous node or link (``~``).
UNNAMED = "~"
#: Pseudo link name requesting a direct jump to the named node.
VIRTUAL = "virtual"

FORWARD = "+"
BACKWARD = "-"
EITHER = "*"

_DIRECTIONS = (FORWARD, BACKWARD, EITHER)


class LogicalNode:
    """One place in the logical network.

    Node variables (shared by all Messengers at the node, §2.1) live in
    :attr:`variables`.  ``name`` may be ``None`` for unnamed nodes; the
    unique ``uid`` disambiguates.

    Scale note: the class uses ``__slots__``, and both containers are
    *lazy* — ``variables`` and ``links`` materialise on first touch.  An
    idle node (created, never written, never linked) is therefore one
    fixed-size object with five slots and no owned containers, which is
    what lets a logical network hold ~1M mostly-idle nodes
    (``benchmarks/test_scale_memory.py`` pins the per-node budget).
    """

    __slots__ = ("uid", "name", "daemon", "_variables", "_links")

    def __init__(self, uid: int, name: Optional[str], daemon: str):
        self.uid = uid
        self.name = name
        self.daemon = daemon
        self._variables: Optional[dict[str, Any]] = None
        self._links: Optional[list["LogicalLink"]] = None

    @property
    def variables(self) -> dict[str, Any]:
        """Node variables, materialised on first access."""
        variables = self._variables
        if variables is None:
            variables = self._variables = {}
        return variables

    @property
    def links(self) -> list["LogicalLink"]:
        """Incident links, materialised on first access."""
        links = self._links
        if links is None:
            links = self._links = []
        return links

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else f"~{self.uid}"

    def matches(self, pattern: str) -> bool:
        """Does this node match a destination-specification name?

        Unnamed nodes match their unique display name (``~<uid>``), so a
        Messenger can return to a specific anonymous node it has seen.
        """
        if pattern == ANY:
            return True
        return self.name == pattern or self.display_name == pattern

    def neighbors(self) -> list["LogicalNode"]:
        """All nodes one link away."""
        links = self._links
        if links is None:
            return []
        return [link.other(self) for link in links]

    def degree(self) -> int:
        links = self._links
        return 0 if links is None else len(links)

    def __repr__(self) -> str:
        return f"<LogicalNode {self.display_name} @ {self.daemon}>"


class LogicalLink:
    """A (possibly directed) link between two logical nodes.

    For directed links, ``src`` → ``dst`` is the forward (``+``)
    direction.  Undirected links have ``directed=False`` and match any
    requested direction.
    """

    __slots__ = ("uid", "name", "src", "dst", "directed")

    def __init__(
        self,
        uid: int,
        name: Optional[str],
        src: LogicalNode,
        dst: LogicalNode,
        directed: bool = False,
    ):
        self.uid = uid
        self.name = name
        self.src = src
        self.dst = dst
        self.directed = directed

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else f"~{self.uid}"

    def other(self, node: LogicalNode) -> LogicalNode:
        """The endpoint that is not ``node``."""
        if node is self.src:
            return self.dst
        if node is self.dst:
            return self.src
        raise ValueError(f"{node!r} is not an endpoint of {self!r}")

    def matches_name(self, pattern: str) -> bool:
        """Match by name; unnamed links match their ``~<uid>`` display
        name, which is what ``$last`` reports after traversing them."""
        if pattern == ANY:
            return True
        return self.name == pattern or self.display_name == pattern

    def matches_direction(self, from_node: LogicalNode, want: str) -> bool:
        """Would traversing from ``from_node`` satisfy direction ``want``?

        ``want`` is ``+`` / ``-`` / ``*`` as written in the hop statement.
        Traversing a directed link from its source is the forward
        direction; from its destination, backward.  Undirected links
        satisfy everything.
        """
        if want not in _DIRECTIONS:
            raise ValueError(f"bad link direction {want!r}")
        if want == EITHER or not self.directed:
            return True
        travelling_forward = from_node is self.src
        return travelling_forward == (want == FORWARD)

    def __repr__(self) -> str:
        arrow = "->" if self.directed else "--"
        return (
            f"<LogicalLink {self.display_name}: "
            f"{self.src.display_name}{arrow}{self.dst.display_name}>"
        )


class LogicalNetwork:
    """The full logical graph, with per-daemon views.

    In the real system each daemon stores only its local nodes; we keep
    one registry (the simulation runs in one address space) and model the
    *costs* of distribution at the daemon layer.  The registry offers the
    queries daemons need: name lookup scoped to a daemon, global lookup
    for virtual links, and creation/deletion with singleton cleanup.

    The registry is *sharded*: besides the global uid table it maintains
    a per-daemon shard and a per-name bucket, so :meth:`nodes_on`,
    :meth:`find_named` and virtual-hop resolution never scan the global
    table — at ~1M nodes those scans were the dominant cost of daemon
    injection and service-workload key lookup.  Every query still
    returns nodes in ascending-uid order (the order the old full scans
    produced, which fault-recovery and mailbox code rely on for
    determinism): shards are insertion-ordered by creation, and the rare
    :meth:`rehome` marks its destination shard for a lazy re-sort.
    """

    def __init__(self):
        self._uids = itertools.count(1)
        self._nodes: dict[int, LogicalNode] = {}
        #: daemon name -> {uid: node}, ascending uid unless in _unsorted.
        self._shards: dict[str, dict[int, LogicalNode]] = {}
        #: node name -> {uid: node}; always ascending uid (names are
        #: immutable, so only creation/deletion touch a bucket).
        self._names: dict[str, dict[int, LogicalNode]] = {}
        #: Shards whose uid order was broken by a rehome.
        self._unsorted: set[str] = set()

    # -- creation ----------------------------------------------------------

    def create_node(
        self, name: Optional[str], daemon: str
    ) -> LogicalNode:
        """Create a logical node on ``daemon``.  ``name=None`` = unnamed."""
        node = LogicalNode(next(self._uids), name, daemon)
        uid = node.uid
        self._nodes[uid] = node
        shard = self._shards.get(daemon)
        if shard is None:
            shard = self._shards[daemon] = {}
        shard[uid] = node
        if name is not None:
            bucket = self._names.get(name)
            if bucket is None:
                bucket = self._names[name] = {}
            bucket[uid] = node
        return node

    def rehome(self, node: LogicalNode, daemon: str) -> None:
        """Move ``node`` to ``daemon`` (crash recovery, host churn).

        The only supported way to change a node's residence — writing
        ``node.daemon`` directly would leave the shards stale.
        """
        if node.daemon == daemon:
            return
        shard = self._shards.get(node.daemon)
        if shard is not None:
            shard.pop(node.uid, None)
        node.daemon = daemon
        shard = self._shards.get(daemon)
        if shard is None:
            shard = self._shards[daemon] = {}
        shard[node.uid] = node
        # The moved uid lands at the shard's insertion end regardless of
        # magnitude; re-sort lazily on the next per-daemon read.
        self._unsorted.add(daemon)

    def _forget(self, node: LogicalNode) -> None:
        """Drop ``node`` from every index (global, shard, name bucket)."""
        uid = node.uid
        del self._nodes[uid]
        shard = self._shards.get(node.daemon)
        if shard is not None:
            shard.pop(uid, None)
        if node.name is not None:
            bucket = self._names.get(node.name)
            if bucket is not None:
                bucket.pop(uid, None)
                if not bucket:
                    del self._names[node.name]

    def create_link(
        self,
        name: Optional[str],
        src: LogicalNode,
        dst: LogicalNode,
        directed: bool = False,
    ) -> LogicalLink:
        """Create a link; forward direction is ``src`` → ``dst``."""
        link = LogicalLink(next(self._uids), name, src, dst, directed)
        src.links.append(link)
        dst.links.append(link)
        return link

    # -- deletion ------------------------------------------------------------

    def delete_link(self, link: LogicalLink) -> list[LogicalNode]:
        """Remove a link; singleton endpoints are deleted too (§2.1).

        Returns the nodes that were garbage-collected.
        """
        removed = []
        link.src.links.remove(link)
        link.dst.links.remove(link)
        for node in (link.src, link.dst):
            if not node.degree() and node.uid in self._nodes:
                # init nodes are permanent anchors; never collect them.
                if node.name != "init":
                    self._forget(node)
                    removed.append(node)
        return removed

    # -- queries --------------------------------------------------------------

    @property
    def nodes(self) -> list[LogicalNode]:
        return list(self._nodes.values())

    @property
    def links(self) -> list[LogicalLink]:
        seen: dict[int, LogicalLink] = {}
        for node in self._nodes.values():
            for link in node.links:
                seen[link.uid] = link
        return list(seen.values())

    def node_count(self) -> int:
        return len(self._nodes)

    def nodes_on(self, daemon: str) -> list[LogicalNode]:
        """All nodes resident on one daemon, in ascending-uid order.

        O(size of the daemon's shard) — never a global scan.
        """
        shard = self._shards.get(daemon)
        if not shard:
            return []
        if daemon in self._unsorted:
            # A rehome appended an out-of-order uid; restore the sorted
            # invariant once, then reads are cheap again.
            shard = dict(sorted(shard.items()))
            self._shards[daemon] = shard
            self._unsorted.discard(daemon)
        return list(shard.values())

    def find_named(
        self, name: str, daemon: Optional[str] = None
    ) -> list[LogicalNode]:
        """All nodes with ``name`` (optionally restricted to a daemon).

        O(nodes with that name) via the name bucket, ascending uid.
        """
        bucket = self._names.get(name)
        if not bucket:
            return []
        if daemon is None:
            return list(bucket.values())
        return [n for n in bucket.values() if n.daemon == daemon]

    def _match_name(self, pattern: str) -> list[LogicalNode]:
        """All nodes whose :meth:`LogicalNode.matches` accepts ``pattern``
        (a concrete name, never ``ANY``), in ascending-uid order.

        Index-backed equivalent of scanning the global table: the name
        bucket covers named nodes; a ``~<uid>`` pattern additionally
        matches the unnamed node with that uid by display name.
        """
        bucket = self._names.get(pattern)
        matched = dict(bucket) if bucket else {}
        if pattern.startswith(UNNAMED):
            try:
                uid = int(pattern[1:])
            except ValueError:
                pass
            else:
                node = self._nodes.get(uid)
                if node is not None and node.name is None:
                    matched[uid] = node
        if len(matched) > 1:
            return [node for _uid, node in sorted(matched.items())]
        return list(matched.values())

    def resolve(
        self, pattern: str, daemon: Optional[str] = None
    ) -> list[LogicalNode]:
        """Nodes matching a destination ``pattern`` (name, ``~<uid>`` or
        ``ANY``), optionally restricted to one daemon — ascending uid.

        Index-backed replacement for filtering :meth:`nodes_on` through
        :meth:`LogicalNode.matches` (what daemon injection used to do).
        """
        if pattern == ANY:
            if daemon is None:
                return list(self._nodes.values())
            return self.nodes_on(daemon)
        matched = self._match_name(pattern)
        if daemon is None:
            return matched
        return [node for node in matched if node.daemon == daemon]

    def match_moves(
        self,
        current: LogicalNode,
        node_pattern: str = ANY,
        link_pattern: str = ANY,
        direction: str = EITHER,
    ) -> list[tuple[Optional[LogicalLink], LogicalNode]]:
        """Resolve a hop/delete destination specification (§2.1).

        Returns ``(link, node)`` pairs for every neighbor of ``current``
        reachable over a link matching ``link_pattern``/``direction``
        whose far node matches ``node_pattern``.  With
        ``link_pattern=VIRTUAL`` the result is a direct jump to every
        node in the whole network matching ``node_pattern`` by name
        (link is ``None``).
        """
        if link_pattern == VIRTUAL:
            if node_pattern == ANY:
                raise ValueError("virtual hop requires a concrete node name")
            return [
                (None, node)
                for node in self._match_name(node_pattern)
                if node is not current
            ]
        moves = []
        for link in current.links:
            if not link.matches_name(link_pattern):
                continue
            if not link.matches_direction(current, direction):
                continue
            far = link.other(current)
            if far.matches(node_pattern):
                moves.append((link, far))
        return moves

    def __repr__(self) -> str:
        return f"<LogicalNetwork nodes={len(self._nodes)}>"
