"""The ``net_builder`` service: construct static logical networks.

"Any static logical network is constructed by describing its topology in
a file (either manually or using a graphics tool) and then starting a
specialized service Messenger called net_builder, which reads the
topology file and creates the corresponding logical network" (§3.2).

Two entry points:

* :func:`build_from_text` — parse the topology file format below;
* :func:`build_grid` and friends — regular topologies parameterized by
  size and connectivity ("the user only needs to specify the size and
  connectivity along each dimension", §3.2), including the exact
  matrix-multiplication network of Figure 10.

Topology file format (one declaration per line)::

    # comment
    node A @ host0            # logical node A on daemon host0
    link A -- B               # unnamed undirected link
    link A -- B : row         # named undirected link
    link A -> B : column      # named directed link (forward A→B)
"""

from __future__ import annotations

from typing import Optional

from .logical import LogicalNode
from .system import MessengersSystem

__all__ = [
    "TopologyError",
    "build_from_text",
    "build_grid",
    "build_ring",
    "build_torus",
    "grid_node_name",
]


class TopologyError(ValueError):
    """Malformed topology description."""


def grid_node_name(i: int, j: int) -> str:
    """Canonical name of grid node ``[i, j]`` (paper's block address)."""
    return f"{i},{j}"


def build_from_text(
    system: MessengersSystem, text: str
) -> dict[str, LogicalNode]:
    """Create the logical network described by a topology file.

    Returns name → node for every declared node.  Each node's daemon
    must exist in the system; links may span daemons.
    """
    nodes: dict[str, LogicalNode] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            _parse_node(system, nodes, parts, lineno)
        elif parts[0] == "link":
            _parse_link(system, nodes, parts, lineno)
        else:
            raise TopologyError(
                f"line {lineno}: unknown declaration {parts[0]!r}"
            )
    return nodes


def _parse_node(system, nodes, parts, lineno):
    # node <name> @ <daemon>
    if len(parts) != 4 or parts[2] != "@":
        raise TopologyError(
            f"line {lineno}: expected 'node <name> @ <daemon>'"
        )
    name, daemon = parts[1], parts[3]
    if name in nodes:
        raise TopologyError(f"line {lineno}: duplicate node {name!r}")
    if daemon not in system.daemons:
        raise TopologyError(f"line {lineno}: unknown daemon {daemon!r}")
    nodes[name] = system.logical.create_node(name, daemon)


def _parse_link(system, nodes, parts, lineno):
    # link <a> (--|->) <b> [: <name>]
    if len(parts) not in (4, 6) or (len(parts) == 6 and parts[4] != ":"):
        raise TopologyError(
            f"line {lineno}: expected 'link <a> --|-> <b> [: <name>]'"
        )
    a_name, arrow, b_name = parts[1], parts[2], parts[3]
    if arrow not in ("--", "->"):
        raise TopologyError(f"line {lineno}: bad arrow {arrow!r}")
    link_name = parts[5] if len(parts) == 6 else None
    try:
        a, b = nodes[a_name], nodes[b_name]
    except KeyError as missing:
        raise TopologyError(
            f"line {lineno}: undeclared node {missing.args[0]!r}"
        ) from None
    system.logical.create_link(link_name, a, b, directed=(arrow == "->"))


def build_grid(
    system: MessengersSystem,
    m: int,
    daemons: Optional[list] = None,
    row_link: str = "row",
    column_link: str = "column",
) -> dict[str, LogicalNode]:
    """Build the paper's matrix-multiplication network (Figure 10).

    An ``m × m`` grid of nodes named ``"i,j"``; each row is a fully
    connected subnet of undirected ``row`` links; each column is a ring
    of ``column`` links directed "upward" (from ``[i,j]`` toward
    ``[(i-1) mod m, j]``).  Node ``[i,j]`` is placed on
    ``daemons[i*m + j]`` (cycled if fewer daemons than nodes).
    """
    if m < 1:
        raise TopologyError(f"grid size must be >= 1, got {m}")
    daemon_names = daemons if daemons is not None else system.daemon_names
    if not daemon_names:
        raise TopologyError("no daemons to place grid nodes on")

    nodes: dict[str, LogicalNode] = {}
    for i in range(m):
        for j in range(m):
            daemon = daemon_names[(i * m + j) % len(daemon_names)]
            name = grid_node_name(i, j)
            nodes[name] = system.logical.create_node(name, daemon)

    # Rows: complete subnets of undirected links.
    for i in range(m):
        for j in range(m):
            for k in range(j + 1, m):
                system.logical.create_link(
                    row_link,
                    nodes[grid_node_name(i, j)],
                    nodes[grid_node_name(i, k)],
                )

    # Columns: rings directed upward ([i,j] -> [(i-1) mod m, j]).
    if m > 1:
        for j in range(m):
            for i in range(m):
                system.logical.create_link(
                    column_link,
                    nodes[grid_node_name(i, j)],
                    nodes[grid_node_name((i - 1) % m, j)],
                    directed=True,
                )
    return nodes


def build_ring(
    system: MessengersSystem,
    n: int,
    daemons: Optional[list] = None,
    link: str = "ring",
    directed: bool = True,
    name_prefix: str = "n",
) -> dict[str, LogicalNode]:
    """A ring of ``n`` nodes, one per daemon (cycled)."""
    if n < 1:
        raise TopologyError(f"ring size must be >= 1, got {n}")
    daemon_names = daemons if daemons is not None else system.daemon_names
    nodes = {}
    for index in range(n):
        name = f"{name_prefix}{index}"
        nodes[name] = system.logical.create_node(
            name, daemon_names[index % len(daemon_names)]
        )
    if n > 1:
        for index in range(n):
            system.logical.create_link(
                link,
                nodes[f"{name_prefix}{index}"],
                nodes[f"{name_prefix}{(index + 1) % n}"],
                directed=directed,
            )
    return nodes


def build_torus(
    system: MessengersSystem,
    rows: int,
    cols: int,
    daemons: Optional[list] = None,
    east_link: str = "east",
    south_link: str = "south",
) -> dict[str, LogicalNode]:
    """A toroidal grid for individual-based simulations (paper §1).

    Cell ``(r, c)`` is named ``"r,c"``.  Each cell has a directed
    ``east`` link to ``(r, (c+1) mod cols)`` and a directed ``south``
    link to ``((r+1) mod rows, c)``, so creatures move with::

        hop(ll = "east";  ldir = +)   /* east  */
        hop(ll = "east";  ldir = -)   /* west  */
        hop(ll = "south"; ldir = +)   /* south */
        hop(ll = "south"; ldir = -)   /* north */

    Cells are striped across daemons row-major (cycled).
    """
    if rows < 1 or cols < 1:
        raise TopologyError("torus needs positive dimensions")
    daemon_names = daemons if daemons is not None else system.daemon_names
    nodes: dict[str, LogicalNode] = {}
    for r in range(rows):
        for c in range(cols):
            daemon = daemon_names[(r * cols + c) % len(daemon_names)]
            name = grid_node_name(r, c)
            nodes[name] = system.logical.create_node(name, daemon)
    for r in range(rows):
        for c in range(cols):
            here = nodes[grid_node_name(r, c)]
            if cols > 1:
                system.logical.create_link(
                    east_link,
                    here,
                    nodes[grid_node_name(r, (c + 1) % cols)],
                    directed=True,
                )
            if rows > 1:
                system.logical.create_link(
                    south_link,
                    here,
                    nodes[grid_node_name((r + 1) % rows, c)],
                    directed=True,
                )
    return nodes
