"""Tests for the Mandelbrot application (all three implementations)."""

import numpy as np
import pytest

from repro.apps.mandelbrot import (
    TaskGrid,
    run_messengers,
    run_pvm,
    run_sequential,
)
from repro.apps.mandelbrot.kernel import (
    PAPER_COLORS,
    PAPER_REGION,
    block_flops,
    clear_block_cache,
    compute_block,
)


@pytest.fixture(scope="module")
def small_grid():
    return TaskGrid(48, 4)


@pytest.fixture(scope="module")
def sequential(small_grid):
    return run_sequential(small_grid)


class TestTaskGrid:
    def test_paper_parameters(self):
        grid = TaskGrid(320, 8)
        assert grid.region == PAPER_REGION
        assert grid.colors == PAPER_COLORS
        assert len(grid) == 64

    def test_blocks_tile_image_exactly(self):
        grid = TaskGrid(100, 8)  # non-divisible: uneven blocks
        coverage = np.zeros((100, 100), dtype=int)
        for block in grid:
            coverage[
                block.row0 : block.row0 + block.rows,
                block.col0 : block.col0 + block.cols,
            ] += 1
        assert (coverage == 1).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskGrid(0, 4)
        with pytest.raises(ValueError):
            TaskGrid(8, 16)

    def test_assemble_rejects_missing_blocks(self, small_grid):
        with pytest.raises(ValueError, match="missing"):
            small_grid.assemble({0: np.zeros((12, 12), dtype=np.int16)})

    def test_result_bytes(self):
        # Colors travel as 16-bit indices: two bytes per pixel on the wire.
        grid = TaskGrid(64, 4)
        colors, _iterations = compute_block(grid, grid.block(0))
        assert colors.nbytes == 16 * 16 * 2


def _reference_block(grid, block):
    """The kernel as it was before it carried only live pixels:
    boolean-mask gather/scatter over the whole block, ``np.abs`` over
    escaped pixels too.  Kept as the reference for exact equality."""
    x_min, y_min, x_max, y_max = grid.region
    n = grid.image_size
    xs = x_min + (x_max - x_min) * (
        np.arange(block.col0, block.col0 + block.cols) + 0.5
    ) / n
    ys = y_min + (y_max - y_min) * (
        np.arange(block.row0, block.row0 + block.rows) + 0.5
    ) / n
    c = xs[np.newaxis, :] + 1j * ys[:, np.newaxis]
    z = np.zeros_like(c)
    colors = np.zeros(c.shape, dtype=np.int16)
    live = np.ones(c.shape, dtype=bool)
    total_iterations = 0.0
    for iteration in range(1, grid.colors + 1):
        z[live] = z[live] * z[live] + c[live]
        escaped = live & (np.abs(z) > 2.0)
        colors[escaped] = iteration
        total_iterations += float(live.sum())
        live &= ~escaped
        if not live.any():
            break
    return colors, total_iterations


class TestKernel:
    @pytest.mark.parametrize("image_size, grid_n", [(64, 4), (320, 8)])
    def test_compacted_kernel_equals_the_masked_loop(
        self, image_size, grid_n
    ):
        grid = TaskGrid(image_size, grid_n)
        clear_block_cache()  # the cold path is the one under test
        for block in grid:
            colors, iterations = compute_block(grid, block)
            want_colors, want_iterations = _reference_block(grid, block)
            assert colors.dtype == want_colors.dtype
            assert np.array_equal(colors, want_colors), block.index
            assert iterations == want_iterations, block.index

    def test_known_points(self, small_grid):
        image = run_sequential(small_grid).image
        # Center of the set (around -0.5+0i) never escapes -> color 0.
        # Map x=-0.5, y=0 to pixel coordinates.
        x_min, y_min, x_max, y_max = small_grid.region
        col = int((-0.5 - x_min) / (x_max - x_min) * 48)
        row = int((0.0 - y_min) / (y_max - y_min) * 48)
        assert image[row, col] == 0
        # Far corner escapes immediately -> small color.
        assert 0 < image[0, 0] <= 3

    def test_iterations_positive(self, small_grid):
        _colors, iterations = compute_block(
            small_grid, small_grid.block(0)
        )
        assert iterations > 0
        assert block_flops(iterations) == iterations * 10.0

    def test_work_is_nonuniform(self, small_grid):
        """The paper's motivation: per-block work varies wildly."""
        work = [
            compute_block(small_grid, block)[1] for block in small_grid
        ]
        assert max(work) > 3 * min(work)


class TestImplementationEquivalence:
    def test_pvm_matches_sequential(self, small_grid, sequential):
        result = run_pvm(small_grid, 3)
        assert np.array_equal(result.image, sequential.image)

    def test_messengers_matches_sequential(self, small_grid, sequential):
        result = run_messengers(small_grid, 3)
        assert np.array_equal(result.image, sequential.image)

    def test_single_worker(self, small_grid, sequential):
        assert np.array_equal(
            run_pvm(small_grid, 1).image, sequential.image
        )
        assert np.array_equal(
            run_messengers(small_grid, 1).image, sequential.image
        )

    def test_more_workers_than_tasks(self, sequential, small_grid):
        """Workers beyond the task count idle but nothing breaks."""
        grid = TaskGrid(48, 2)  # only 4 tasks
        seq = run_sequential(grid)
        assert np.array_equal(run_pvm(grid, 6).image, seq.image)
        assert np.array_equal(run_messengers(grid, 6).image, seq.image)

    def test_worker_count_validation(self, small_grid):
        with pytest.raises(ValueError):
            run_pvm(small_grid, 0)
        with pytest.raises(ValueError):
            run_messengers(small_grid, 0)


class TestPerformanceShape:
    """Coarse shape checks (benchmarks measure the full figures)."""

    def test_parallel_beats_sequential(self, small_grid, sequential):
        msgr = run_messengers(small_grid, 4)
        assert msgr.seconds < sequential.seconds

    def test_messengers_scales(self, small_grid):
        two = run_messengers(small_grid, 2).seconds
        four = run_messengers(small_grid, 4).seconds
        assert four < two

    def test_hops_accounted(self, small_grid):
        result = run_messengers(small_grid, 2)
        # per task: 2 remote hops; plus create(ALL) + initial hop back
        assert result.hops_remote >= 2 * len(small_grid)
        assert result.instructions > 0

    def test_pvm_message_count(self, small_grid):
        result = run_pvm(small_grid, 2)
        # 2 messages per task plus initial priming
        assert result.messages >= 2 * len(small_grid)
