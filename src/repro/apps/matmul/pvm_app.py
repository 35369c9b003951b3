"""Block matrix multiplication via message passing — Figure 9 (§3.2).

A transcription of the paper's PVM program: ``m × m`` worker tasks, one
per processor, each owning blocks ``A[i,j]``, ``B[i,j]`` and ``C[i,j]``.
Each iteration ``k``:

1. the row-``i`` worker holding the travelling diagonal
   (``j == (i+k) mod m``) multicasts its A block to its row;
2. everyone multiplies the received A block with its current B block
   into C;
3. B blocks rotate one step up their column (send north, receive from
   south).

As the paper assumes, the matrices are "already distributed over the
network (as a result of previous computations)": workers are created
pre-loaded with their blocks and the measured interval starts at t=0
with no spawn cost — identically for the MESSENGERS version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...facade import Cluster, ClusterConfig
from ...mp import PackBuffer
from ...netsim import CostModel, DEFAULT_COSTS
from .kernel import block_multiply_add, block_of, multiply_flops, multiply_working_set

__all__ = ["PvmMatmulResult", "run_pvm"]

_TAG_A = 10
_TAG_B = 11


@dataclass
class PvmMatmulResult:
    c: "np.ndarray"
    seconds: float  # simulated
    m: int
    s: int
    messages: int = 0


def _worker(ctx, m, s, i, j, block_a, block_b, block_c, out, tids):
    """Figure 9's worker body (the manager's spawn loop is hoisted into
    :func:`run_pvm`, which plays the pre-distribution role)."""
    flops = multiply_flops(s)
    working_set = multiply_working_set(s)
    my_row = [tids[(i, q)] for q in range(m)]

    current_b = block_b
    c = block_c
    for k in range(m):
        if j == (i + k) % m:
            buf = PackBuffer()
            buf.pack_array(block_a)
            yield from ctx.mcast(my_row, buf, tag=_TAG_A)
            current_a = block_a
        else:
            message = yield from ctx.recv(tag=_TAG_A)
            current_a = message.buffer.unpack_array()

        c = block_multiply_add(c, current_a, current_b)
        yield from ctx.compute(flops, working_set)

        if m > 1:
            north = tids[((i - 1) % m, j)]
            buf = PackBuffer()
            buf.pack_array(current_b)
            yield from ctx.send(north, buf, tag=_TAG_B)
            message = yield from ctx.recv(tag=_TAG_B)
            current_b = message.buffer.unpack_array()

    out[(i, j)] = c


def run_pvm(
    a: "np.ndarray",
    b: "np.ndarray",
    m: int,
    costs: CostModel = DEFAULT_COSTS,
    cpu_scale: float = 1.0,
    metrics=None,
) -> PvmMatmulResult:
    """Run the Figure-9 program on an ``m × m`` grid of hosts
    (``metrics``: an optional :class:`~repro.obs.MetricsRegistry`)."""
    n = a.shape[0]
    if n % m:
        raise ValueError(f"matrix size {n} not divisible by grid {m}")
    s = n // m
    cluster = Cluster(config=ClusterConfig(
        n_hosts=m * m, costs=costs, cpu_scale=cpu_scale,
        metrics=metrics if metrics is not None else False,
    ))
    system = cluster.mp

    out: dict = {}
    # Pre-distribution: allocate tids first so every worker knows its
    # row and column neighbours, then start them all at t=0.
    tids: dict = {}
    behaviors = []
    for i in range(m):
        for j in range(m):
            host = f"host{i * m + j}"
            blocks = (
                block_of(a, i, j, s),
                block_of(b, i, j, s),
                np.zeros((s, s)),
            )
            behaviors.append(((i, j), host, blocks))

    # Reserve tids in deterministic order by spawning placeholders that
    # wait for the tid map before running the real body.
    ready = cluster.sim.event()

    def _gated(ctx, i, j, blocks):
        yield ready
        yield from _worker(
            ctx, m, s, i, j, blocks[0], blocks[1], blocks[2], out, tids
        )

    for (i, j), host, blocks in behaviors:
        tids[(i, j)] = system.spawn(_gated, i, j, blocks, host=host)
    ready.succeed()

    last = [tids[key] for key in tids]
    for tid in last:
        system.run_until_task(tid)

    c = np.zeros_like(a)
    for (i, j), block in out.items():
        c[i * s : (i + 1) * s, j * s : (j + 1) * s] = block
    return PvmMatmulResult(
        c=c, seconds=cluster.now, m=m, s=s, messages=cluster.network.delivered
    )
