"""Block matrix multiplication via MESSENGERS — Figures 10 & 11 (§3.2).

The *data-centric* version: the logical network of Figure 10 (rows =
fully connected ``row`` subnets, columns = upward-directed ``column``
rings) is built by ``net_builder``; matrices live pre-distributed in
node variables ``resid_A`` / ``resid_B`` / ``C``; and two Messenger
scripts — each the embodiment of one matrix block — coordinate purely
through global virtual time:

* ``distribute_A`` instances wake at integer ticks ``(j−i) mod m`` and
  replicate their A block along the row;
* ``rotate_B`` instances wake at half ticks ``k + 0.5``, multiply, and
  carry their B block one node up the column.

The scripts below are Figure 11 with two fidelity notes: (a) the
travelling diagonal also deposits its block at its *own* node before
hopping (the paper's prose implies it; ``hop`` replicas go only to the
other row nodes); (b) the paper's listing suspends with
``M_sched_time_dlt(.5)`` but its prose specifies wake-ups at ``k+0.5``
— we schedule absolutely, which matches the prose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...facade import Cluster, ClusterConfig
from ...messengers import build_grid, grid_node_name
from ...netsim import CostModel, DEFAULT_COSTS
from .kernel import (
    block_multiply_add,
    block_of,
    multiply_flops,
    multiply_working_set,
)

__all__ = [
    "MessengersMatmulResult",
    "DISTRIBUTE_A_SCRIPT",
    "ROTATE_B_SCRIPT",
    "run_messengers",
]

#: Figure 11, distribute_A (see module docstring for the two notes).
DISTRIBUTE_A_SCRIPT = """
distribute_A(s, m, i, j) {
    node resid_A, curr_A;
    M_sched_time_abs((j - i) mod m);
    msgr_A = copy_block(resid_A);
    curr_A = copy_block(msgr_A);
    hop(ll = "row");
    curr_A = copy_block(msgr_A);
}
"""

#: Figure 11, rotate_B.
ROTATE_B_SCRIPT = """
rotate_B(s, m, i, j) {
    node resid_B, curr_A, C;
    msgr_B = copy_block(resid_B);
    for (k = 0; k < m; k++) {
        M_sched_time_abs(k + 0.5);  /* synchronization */
        C = block_multiply(msgr_B, curr_A, C);
        hop(ll = "column"; ldir = +);  /* rotate B to row i-1 */
    }
}
"""


@dataclass
class MessengersMatmulResult:
    c: "np.ndarray"
    seconds: float  # simulated
    m: int
    s: int
    gvt_rounds: int = 0
    hops_remote: int = 0


def run_messengers(
    a: "np.ndarray",
    b: "np.ndarray",
    m: int,
    costs: CostModel = DEFAULT_COSTS,
    cpu_scale: float = 1.0,
    metrics=None,
) -> MessengersMatmulResult:
    """Run the Figure-11 program on an ``m × m`` grid of daemons
    (``metrics``: an optional :class:`~repro.obs.MetricsRegistry`)."""
    n = a.shape[0]
    if n % m:
        raise ValueError(f"matrix size {n} not divisible by grid {m}")
    s = n // m
    system = Cluster(config=ClusterConfig(
        n_hosts=m * m, costs=costs, cpu_scale=cpu_scale,
        metrics=metrics if metrics is not None else False,
    )).messengers
    # A finished Messenger carries its blocks: do not archive it.
    system.retain_finished = False
    nodes = build_grid(system, m)

    flops = multiply_flops(s)
    working_set = multiply_working_set(s)

    # Pre-distribution (§3.2: "we assume that the matrices are already
    # distributed over the network").
    for i in range(m):
        for j in range(m):
            node = nodes[grid_node_name(i, j)]
            node.variables["resid_A"] = block_of(a, i, j, s)
            node.variables["resid_B"] = block_of(b, i, j, s)
            node.variables["C"] = np.zeros((s, s))

    @system.natives.register
    def copy_block(env, block):
        env.charge_memcpy(block.nbytes)
        return block.copy()

    @system.natives.register
    def block_multiply(env, msgr_b, curr_a, c):
        env.charge_flops(flops, working_set)
        return block_multiply_add(c, curr_a, msgr_b)

    # One instance of each script per grid node (Figure 11: "an
    # instance of each is injected into every node").
    dist_prog = system.compile(DISTRIBUTE_A_SCRIPT)
    rot_prog = system.compile(ROTATE_B_SCRIPT)
    for i in range(m):
        for j in range(m):
            node_name = grid_node_name(i, j)
            daemon = nodes[node_name].daemon
            system.inject(
                dist_prog, args=(s, m, i, j), daemon=daemon, node=node_name
            )
            system.inject(
                rot_prog, args=(s, m, i, j), daemon=daemon, node=node_name
            )

    elapsed = system.run_to_quiescence()

    # Copy C out and empty the node variables: the cluster is cyclic
    # garbage once this returns, and must not pin the blocks.
    c = np.zeros_like(a)
    for i in range(m):
        for j in range(m):
            variables = nodes[grid_node_name(i, j)].variables
            c[i * s : (i + 1) * s, j * s : (j + 1) * s] = variables["C"]
            variables.clear()
    _local, remote = system.total_hops()
    return MessengersMatmulResult(
        c=c,
        seconds=elapsed,
        m=m,
        s=s,
        gvt_rounds=system.vtime.rounds,
        hops_remote=remote,
    )
