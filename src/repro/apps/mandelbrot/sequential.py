"""Sequential-C baseline for the Mandelbrot experiment (§3.1.2).

One host computes every block in order; simulated time is the sum of the
per-block compute charges.  This is the "sequential algorithm in C
running on a single workstation" curve of Figures 4–6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...des import Simulator
from ...netsim import CostModel, DEFAULT_COSTS, Host
from .kernel import TaskGrid, block_flops, compute_block

__all__ = ["SequentialResult", "run_sequential"]


@dataclass
class SequentialResult:
    image: "np.ndarray"
    seconds: float  # simulated
    total_iterations: float


def run_sequential(
    grid: TaskGrid, costs: CostModel = DEFAULT_COSTS
) -> SequentialResult:
    """Compute the full image on one simulated workstation."""
    sim = Simulator()
    host = Host(sim, "seq", costs)
    results: dict[int, np.ndarray] = {}
    total_iterations = 0.0

    def driver(sim):
        nonlocal total_iterations
        for block in grid:
            colors, iterations = compute_block(grid, block)
            results[block.index] = colors
            total_iterations += iterations
            yield host.compute(block_flops(iterations))

    process = sim.process(driver(sim))
    sim.run(until=process)
    return SequentialResult(
        image=grid.assemble(results),
        seconds=sim.now,
        total_iterations=total_iterations,
    )
