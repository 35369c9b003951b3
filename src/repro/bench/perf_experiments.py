"""Performance experiment driver: the numbers behind ``BENCH_perf.json``.

``BASELINE`` pins what the stack measured *before* the fast path landed
(same host, same workloads — captured with the pre-optimisation kernel
at commit d15be66).  :func:`run_perf_report` re-measures everything on
the current tree and reports both sides plus the ratios.

Two kinds of "after/before" live here, with different portability:

* ``speedup_over_baseline`` divides current throughput by ``BASELINE``
  throughput.  Only meaningful on a host comparable to the one that
  captured the baseline — absolute events/sec move with the machine.
* ``current.backends`` races the closures MCL backend against the
  reference interpreter back-to-back in one process.  That ratio is
  host-independent, and it is what the CI perf-smoke guard asserts on.

Kernel and packet-path changes are measured commit against commit with
``benchmark/run.py --compare``, not here.
"""

from __future__ import annotations

__all__ = ["BASELINE", "run_perf_report"]

#: Throughput of the pre-fast-path stack (events through the old DES
#: kernel, opcodes through the string-dispatch VM, packets through the
#: pre-__slots__ netsim) and warm wall-clock for two figure sweeps.
#: Captured by racing a ``d15be66`` worktree against this tree in
#: alternating subprocess rounds (gc flushed before every timed run,
#: best per probe kept), so both sides sampled the same machine
#: conditions.
BASELINE = {
    "captured": "pre-fast-path stack at commit d15be66",
    "microbench": {
        "des_events_per_sec": 718083.0,
        "store_events_per_sec": 681936.0,
        "vm_opcodes_per_sec": 4145544.0,
        "net_packets_per_sec": 35031.0,
    },
    "figures": {
        "fig5_warm_wall_s": 2.126,
        "fig12b_warm_wall_s": 0.627,
    },
}


def _figure_walls() -> dict:
    """Warm wall-clock of the Fig-5 and Fig-12b default sweeps.

    Each sweep runs once unmeasured (so compiled-program caches and
    numpy are warm, matching how the benchmark suite hits them) and
    once timed.
    """
    import gc
    import time

    from .mandelbrot_experiments import run_figure
    from .matmul_experiments import FIG12B_CPU_SCALE, run_block_size_sweep

    def warm_wall(fn):
        fn()
        gc.collect()
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    return {
        "fig5_warm_wall_s": warm_wall(
            lambda: run_figure(640, processor_counts=(1, 2, 8, 32))
        ),
        "fig12b_warm_wall_s": warm_wall(
            lambda: run_block_size_sweep(
                m=3,
                block_sizes=(10, 20, 50, 100, 300),
                cpu_scale=FIG12B_CPU_SCALE,
            )
        ),
    }


def run_perf_report(
    scale: float = 1.0,
    repeats: int = 3,
    figures: bool = True,
    speedup_rounds: int = 25,
) -> dict:
    """Measure the current tree; return the ``BENCH_perf.json`` blob.

    ``scale`` shrinks the microbenchmark iteration counts (CI smoke
    uses a fraction); ``figures=False`` skips the two end-to-end figure
    sweeps, which dominate the runtime.  The headline ``vm_opcodes``
    probe runs the interpreter, comparable with ``BASELINE``; the
    figure walls run the stack as it ships (closures backend), and
    ``current.backends`` races the two backends back-to-back.
    """
    from ..perf import throughput_suite, vm_backend_speedup

    vm_n = max(500, int(20_000 * scale))
    suite = throughput_suite(scale=scale, repeats=repeats)
    comparison = vm_backend_speedup(
        n=vm_n, rounds=max(3, speedup_rounds // 2)
    )
    current: dict = {
        "microbench": {
            "des_events_per_sec": suite["des_events"]["per_sec"],
            "store_events_per_sec": suite["store_events"]["per_sec"],
            "vm_opcodes_per_sec": suite["vm_opcodes"]["per_sec"],
            "net_packets_per_sec": suite["net_packets"]["per_sec"],
        },
        "microbench_detail": suite,
        "backends": {
            "vm": comparison,
            "closures_speedup": comparison["speedup"],
        },
    }
    over_baseline = {
        key: current["microbench"][key] / BASELINE["microbench"][key]
        for key in BASELINE["microbench"]
    }
    if figures:
        walls = _figure_walls()
        current["figures"] = walls
        over_baseline.update(
            {
                key: BASELINE["figures"][key] / walls[key]
                for key in BASELINE["figures"]
            }
        )
    return {
        "baseline": BASELINE,
        "current": current,
        "speedup_over_baseline": over_baseline,
    }
