"""Mandelbrot-set computation kernel and task grid (§3.1.2).

The paper's workload: for each pixel, iterate ``z ← z² + c`` until
``|z| > 2`` or the color count (512) is exhausted; the pixel's color is
the escape iteration.  The image region, color count, resolutions and
grid decompositions below are exactly the paper's parameters.

The kernel computes *real* pixel values with numpy (so correctness of
the distributed versions is checkable against the sequential one), and
separately reports the *operation count* from which simulated compute
time is charged — keeping measured virtual time independent of the
speed of the machine running the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "PAPER_REGION",
    "PAPER_COLORS",
    "FLOPS_PER_ITERATION",
    "Block",
    "TaskGrid",
    "compute_block",
    "clear_block_cache",
    "block_flops",
]

#: The paper's image region (x_min, y_min, x_max, y_max).
PAPER_REGION = (-2.0, -1.2, 0.4, 1.2)
#: The paper's fixed number of colors.
PAPER_COLORS = 512

#: Floating-point work of one z ← z²+c step (complex square, add,
#: magnitude test) — the unit from which compute time is charged.
FLOPS_PER_ITERATION = 10.0


@dataclass(frozen=True)
class Block:
    """One grid block: a rectangle of pixels to compute."""

    index: int
    row0: int  # first pixel row (y)
    col0: int  # first pixel column (x)
    rows: int
    cols: int

    @property
    def pixels(self) -> int:
        return self.rows * self.cols

    #: Wire size of a task descriptor (block index + geometry).
    DESCRIPTOR_BYTES = 40


class TaskGrid:
    """Decomposition of one image into ``grid × grid`` blocks (§3.1.2).

    ``image_size`` is the square image's side in pixels; ``grid`` the
    number of blocks per side (the paper uses 8, 16, 32).
    """

    def __init__(
        self,
        image_size: int,
        grid: int,
        region: tuple = PAPER_REGION,
        colors: int = PAPER_COLORS,
    ):
        if image_size <= 0 or grid <= 0:
            raise ValueError("image_size and grid must be positive")
        if grid > image_size:
            raise ValueError(
                f"grid {grid} exceeds image size {image_size}"
            )
        self.image_size = image_size
        self.grid = grid
        self.region = region
        self.colors = colors
        self.blocks: list[Block] = []
        bounds = np.linspace(0, image_size, grid + 1, dtype=int)
        index = 0
        for bi in range(grid):
            for bj in range(grid):
                r0, r1 = bounds[bi], bounds[bi + 1]
                c0, c1 = bounds[bj], bounds[bj + 1]
                self.blocks.append(
                    Block(index, int(r0), int(c0), int(r1 - r0),
                          int(c1 - c0))
                )
                index += 1

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def block(self, index: int) -> Block:
        return self.blocks[index]

    def assemble(self, results: dict) -> np.ndarray:
        """Merge per-block color arrays into the full image."""
        image = np.zeros(
            (self.image_size, self.image_size), dtype=np.int16
        )
        if set(results) != set(range(len(self.blocks))):
            missing = sorted(set(range(len(self.blocks))) - set(results))
            raise ValueError(f"missing blocks: {missing[:10]}")
        for index, colors in results.items():
            block = self.blocks[index]
            image[
                block.row0 : block.row0 + block.rows,
                block.col0 : block.col0 + block.cols,
            ] = colors
        return image


#: Memo of computed blocks keyed by (grid parameters, block index).
#: Parameter sweeps (Figures 4–7 re-run the same image for many
#: processor counts) redo only the *simulation*, not the numpy work.
_BLOCK_CACHE: dict = {}


# The memo is process-global; tests reset it to force a recompute.
def clear_block_cache() -> None:
    """Drop memoized block results (mainly for tests)."""
    _BLOCK_CACHE.clear()


def compute_block(
    grid: TaskGrid, block: Block
) -> tuple[np.ndarray, float]:
    """Compute one block's colors; returns ``(colors, iterations)``.

    ``colors`` is an int16 array of escape iterations (the pixel color);
    ``iterations`` is the total number of z-steps executed, from which
    simulated compute time is charged (work per pixel is unknown a
    priori — the paper's motivation for manager/worker).

    Results are memoized on the grid's parameters: identical blocks in
    repeated runs return (a copy of) the cached colors.
    """
    key = (
        grid.image_size,
        grid.grid,
        grid.region,
        grid.colors,
        block.index,
    )
    cached = _BLOCK_CACHE.get(key)
    if cached is not None:
        colors, iterations = cached
        return colors.copy(), iterations
    x_min, y_min, x_max, y_max = grid.region
    n = grid.image_size
    xs = x_min + (x_max - x_min) * (
        np.arange(block.col0, block.col0 + block.cols) + 0.5
    ) / n
    ys = y_min + (y_max - y_min) * (
        np.arange(block.row0, block.row0 + block.rows) + 0.5
    ) / n
    c = xs[np.newaxis, :] + 1j * ys[:, np.newaxis]

    colors = np.zeros(c.shape, dtype=np.int16)
    flat_colors = colors.reshape(-1)  # a view: writes land in ``colors``
    # Carry only the pixels still iterating, and where they belong.
    c = c.ravel()
    z = np.zeros_like(c)
    where = np.arange(c.size)
    total_iterations = 0.0
    for iteration in range(1, grid.colors + 1):
        z = z * z + c
        escaped = np.abs(z) > 2.0
        total_iterations += float(z.size)
        if escaped.any():
            flat_colors[where[escaped]] = iteration
            live = ~escaped
            z, c, where = z[live], c[live], where[live]
            if not z.size:
                break
    # pixels that never escape keep color 0 (inside the set)
    _BLOCK_CACHE[key] = (colors, total_iterations)
    return colors.copy(), total_iterations


def block_flops(iterations: float) -> float:
    """Simulated floating-point operations for an iteration count."""
    return iterations * FLOPS_PER_ITERATION
