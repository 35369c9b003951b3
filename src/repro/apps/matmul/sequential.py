"""Sequential matrix-multiplication baselines (§3.2).

Two versions, as in the paper:

* **naive** — the triply nested loop.  Its working set is the whole
  three-matrix footprint, so on the cache model it runs at the
  streaming-penalty rate; this is what makes the paper's parallel
  speedups super-linear relative to it.
* **blocked** — partition into ``m × m`` blocks and multiply
  block-by-block; each block multiply touches only ``3 s²`` doubles,
  recovering cache locality.  The paper reports ≈13% improvement for
  1500×1500 partitioned into 9 blocks of 500×500 (experiment TXT-BLK).

Both versions do the real numpy arithmetic once and charge simulated
time from the flop/working-set model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...des import Simulator
from ...netsim import CostModel, DEFAULT_COSTS, Host
from .kernel import (
    BYTES_PER_ELEMENT,
    block_multiply_add,
    block_of,
    multiply_flops,
    multiply_working_set,
    set_block,
)

__all__ = ["SequentialMatmulResult", "run_naive", "run_blocked"]


@dataclass
class SequentialMatmulResult:
    c: "np.ndarray"
    seconds: float  # simulated
    algorithm: str


def run_naive(
    a: "np.ndarray",
    b: "np.ndarray",
    costs: CostModel = DEFAULT_COSTS,
    cpu_scale: float = 1.0,
) -> SequentialMatmulResult:
    """The triply nested loop: one big multiply, streaming working set."""
    n = a.shape[0]
    sim = Simulator()
    host = Host(sim, "seq", costs, cpu_scale=cpu_scale)
    out = {}

    def driver(sim):
        out["c"] = a @ b
        working_set = 3.0 * n * n * BYTES_PER_ELEMENT
        yield host.compute(multiply_flops(n), working_set)

    process = sim.process(driver(sim))
    sim.run(until=process)
    return SequentialMatmulResult(out["c"], sim.now, "naive")


def run_blocked(
    a: "np.ndarray",
    b: "np.ndarray",
    m: int,
    costs: CostModel = DEFAULT_COSTS,
    cpu_scale: float = 1.0,
) -> SequentialMatmulResult:
    """Block-partitioned multiply: m³ cache-friendly block multiplies."""
    n = a.shape[0]
    if n % m:
        raise ValueError(f"matrix size {n} not divisible by grid {m}")
    s = n // m
    sim = Simulator()
    host = Host(sim, "seq", costs, cpu_scale=cpu_scale)
    c = np.zeros_like(a)

    def driver(sim):
        flops = multiply_flops(s)
        working_set = multiply_working_set(s)
        for i in range(m):
            for j in range(m):
                acc = block_of(c, i, j, s)
                for k in range(m):
                    acc = block_multiply_add(
                        acc, block_of(a, i, k, s), block_of(b, k, j, s)
                    )
                    yield host.compute(flops, working_set)
                set_block(c, i, j, s, acc)

    process = sim.process(driver(sim))
    sim.run(until=process)
    return SequentialMatmulResult(c, sim.now, f"blocked-{m}x{m}")
