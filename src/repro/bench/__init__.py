"""Benchmark harness: sweep drivers, reporting, and shape assertions.

One driver per paper artifact (see DESIGN.md §5 for the experiment
index); ``benchmarks/`` wires these into pytest-benchmark targets that
print the regenerated tables/figures and assert the paper's qualitative
claims.
"""

from .faults_experiments import run_loss_sweep
from .mandelbrot_experiments import (
    PAPER_GRIDS,
    PAPER_PROCESSOR_COUNTS,
    best_case_comparison,
    run_figure,
)
from .matmul_experiments import (
    FIG12A_CPU_SCALE,
    FIG12B_CPU_SCALE,
    PAPER_BLOCK_SIZES_2X2,
    PAPER_BLOCK_SIZES_3X3,
    blocking_speedup_model,
    run_block_size_sweep,
)
from .conversations_experiments import run_conversations_bench
from .mailbox_experiments import run_mailbox_bench
from .perf_experiments import run_perf_report
from .service_experiments import run_service_bench, run_service_scenario
from .reporting import Figure, format_table
from .resilience_experiments import (
    run_detection_sweep,
    run_recovery_comparison,
)
from .scale_experiments import run_scale_bench
from .shapes import (
    assert_faster_beyond,
    assert_roughly_monotone,
    crossover_interval,
)
from .sweep import Replication, seed_sweep_experiment

__all__ = [
    "Replication",
    "FIG12A_CPU_SCALE",
    "FIG12B_CPU_SCALE",
    "Figure",
    "PAPER_BLOCK_SIZES_2X2",
    "PAPER_BLOCK_SIZES_3X3",
    "PAPER_GRIDS",
    "PAPER_PROCESSOR_COUNTS",
    "assert_faster_beyond",
    "assert_roughly_monotone",
    "best_case_comparison",
    "blocking_speedup_model",
    "crossover_interval",
    "format_table",
    "run_block_size_sweep",
    "run_conversations_bench",
    "run_detection_sweep",
    "run_figure",
    "run_loss_sweep",
    "run_mailbox_bench",
    "run_perf_report",
    "run_recovery_comparison",
    "run_scale_bench",
    "run_service_bench",
    "run_service_scenario",
    "seed_sweep_experiment",
]
