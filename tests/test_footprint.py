"""A finished run frees its blocks without the cyclic collector.

A simulated cluster is one big reference cycle (simulator, processes,
hosts, daemons), so once a runner returns it waits for a gen-2
collection.  Whatever large data it still reaches waits with it: on the
paper's Fig. 12b a MESSENGERS run at s=300 left ~44 MB of blocks in
cyclic garbage, and a run that allocates less collects later, so the
host's peak memory rose.  The runners and the service pumps therefore
let go of every block before they park or return (a parked pump drops
its last work item; the runners empty their node variables and result
tables, and do not archive finished Messengers).

Measured with ``tracemalloc`` on numpy's own allocation domain, so only
array buffers count, with the collector off.  Each runner runs once
first: the Mandelbrot block cache and the MCL compile cache are
deliberate, and warm after that.
"""

import gc
import tracemalloc

import pytest

from repro.apps import mandelbrot, matmul

#: The tracemalloc domain numpy registers its data buffers under.
NUMPY_DOMAIN = 389047

M, S = 3, 60
A, B = matmul.make_matrices(M * S, seed=0)
GRID = mandelbrot.TaskGrid(128, 4)

RUNS = {
    "matmul_messengers": (lambda: matmul.run_messengers(A, B, M),
                          A.nbytes + B.nbytes),
    "matmul_pvm": (lambda: matmul.run_pvm(A, B, M), A.nbytes + B.nbytes),
    "mandelbrot_messengers": (
        lambda: mandelbrot.run_messengers(GRID, 3), GRID.image_size ** 2 * 2,
    ),
    "mandelbrot_pvm": (
        lambda: mandelbrot.run_pvm(GRID, 3), GRID.image_size ** 2 * 2,
    ),
}


def _numpy_bytes() -> int:
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, NUMPY_DOMAIN)]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_returned_run_keeps_no_blocks_alive(name):
    run, block_bytes = RUNS[name]
    run()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = _numpy_bytes()
        run()
        retained = _numpy_bytes() - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert retained < 0.1 * block_bytes, (
        f"{name}: {retained} array bytes outlive the run "
        f"({block_bytes} bytes of blocks)"
    )
