"""Process-parallel replication sweeps with a deterministic merge.

Every experiment in this package is a bag of independent simulator
runs — seeds, loss rates, detector thresholds — and each run is
single-threaded by construction, so the obvious way to spend a
multi-core host is one replication per process.  The only hazard is
*ordering*: a pool completes work in whatever order the scheduler
feels like, and a results blob assembled in completion order would
differ from the serial run.

:func:`run_replications` removes that hazard by construction.  Each
:class:`Replication` carries an explicit id; the pool returns
``(id, result)`` pairs in arbitrary order; the merge re-keys them by id
and emits them in *input* order.  A 4-process pool therefore produces a
blob byte-identical to the serial loop (pinned by
``tests/test_perf_determinism.py``).

Tasks must be module-level callables (the pool pickles them), and their
results must be picklable — return JSON-safe summaries (seconds, fault
counters, result-array digests), not simulator objects.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any, Callable, Sequence

__all__ = [
    "Replication",
    "Experiment",
    "run_replications",
    "mandelbrot_loss_replication",
    "seed_sweep_experiment",
    "timed_repeats",
]


@dataclass(frozen=True)
class Replication:
    """One unit of a sweep: a hashable id plus the task's kwargs."""

    rid: Any
    kwargs: dict = field(default_factory=dict)


def timed_repeats(label: str, repeats: int, task: Callable, *args, **kwargs):
    """Run ``task`` ``repeats`` times; return ``(result, best_wall_s)``.

    The simulated result cannot legally vary, so every repeat must
    equal the first; the result is returned with ``wall_s`` set to the
    fastest run (rounded to the microsecond).
    """
    best_wall = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        gc.collect()
        start = time.perf_counter()
        run = task(*args, **kwargs)
        best_wall = min(best_wall, time.perf_counter() - start)
        if result is not None and run != result:
            raise AssertionError(
                f"{label} was not deterministic across repeats"
            )
        result = run
    result["wall_s"] = round(best_wall, 6)
    return result, best_wall


def _invoke(job):
    task, rid, kwargs = job
    return rid, task(**kwargs)


def _pool_context():
    # fork is cheapest and inherits the already-imported stack; fall
    # back to the platform default where it is unavailable.
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_replications(
    task: Callable[..., Any],
    replications: Sequence[Replication],
    processes: int = 1,
) -> dict:
    """Run every replication; return ``{rid: result}`` in input order.

    ``processes <= 1`` runs the plain serial loop in this process.
    Anything larger fans the replications out over a multiprocessing
    pool — deliberately via ``imap_unordered``, so completion order is
    genuinely arbitrary and the id-keyed merge below is what restores
    determinism, not scheduling luck.  ``task`` must be a module-level
    (picklable) callable.
    """
    replications = list(replications)
    rids = [rep.rid for rep in replications]
    if len(set(rids)) != len(rids):
        raise ValueError("replication ids must be unique")
    jobs = [(task, rep.rid, rep.kwargs) for rep in replications]
    if processes <= 1 or len(jobs) <= 1:
        by_rid = dict(_invoke(job) for job in jobs)
    else:
        with _pool_context().Pool(min(processes, len(jobs))) as pool:
            by_rid = dict(pool.imap_unordered(_invoke, jobs))
    return {rid: by_rid[rid] for rid in rids}


@dataclass
class Experiment:
    """A named, replicated experiment runnable serial or pooled.

    ``run(processes=N)`` produces a JSON-ready report whose content is
    independent of ``N`` — the pool only changes how fast it arrives.
    """

    name: str
    task: Callable[..., Any]
    replications: Sequence[Replication]

    def run(self, processes: int = 1) -> dict:
        results = run_replications(self.task, self.replications, processes)
        return {
            "experiment": self.name,
            "replications": [
                {
                    "id": list(rep.rid)
                    if isinstance(rep.rid, tuple) else rep.rid,
                    "params": dict(rep.kwargs),
                    "result": results[rep.rid],
                }
                for rep in self.replications
            ],
        }


# -- concrete tasks ----------------------------------------------------------


def mandelbrot_loss_replication(
    system: str = "messengers",
    image_size: int = 64,
    grid_size: int = 4,
    procs: int = 3,
    loss_rate: float = 0.05,
    seed: int = 7,
    costs=None,
) -> dict:
    """One (possibly lossy) Figure-4-style Mandelbrot run.

    Returns a picklable summary: simulated seconds, the fault counters,
    and a 128-bit digest of the image bytes (enough to check
    bit-identity across replications without shipping arrays between
    processes).
    """
    from ..apps.mandelbrot import TaskGrid, run_messengers, run_pvm
    from ..faults import FaultPlan
    from ..netsim import DEFAULT_COSTS

    runner = run_messengers if system == "messengers" else run_pvm
    grid = TaskGrid(image_size, grid_size)
    costs = DEFAULT_COSTS if costs is None else costs
    if loss_rate > 0.0:
        result = runner(
            grid, procs, costs, faults=FaultPlan().drop(loss_rate),
            seed=seed,
        )
        faults = dict(sorted(result.stats["faults"].items()))
    else:
        result = runner(grid, procs, costs)
        faults = {}
    return {
        "seconds": result.seconds,
        "image_blake2b": blake2b(
            result.image.tobytes(), digest_size=16
        ).hexdigest(),
        "faults": faults,
    }


def seed_sweep_experiment(
    systems: Sequence[str] = ("messengers", "pvm"),
    seeds: Sequence[int] = (1, 2, 3, 4),
    loss_rate: float = 0.05,
    image_size: int = 64,
    grid_size: int = 4,
    procs: int = 3,
) -> Experiment:
    """Lossy Mandelbrot replicated over ``systems x seeds``.

    The default is the 8-replication sweep the pool-identity acceptance
    test runs serial and with 4 processes.
    """
    replications = [
        Replication(
            rid=(system, seed),
            kwargs={
                "system": system,
                "image_size": image_size,
                "grid_size": grid_size,
                "procs": procs,
                "loss_rate": loss_rate,
                "seed": seed,
            },
        )
        for system in systems
        for seed in seeds
    ]
    return Experiment(
        name="mandelbrot-loss-seeds",
        task=mandelbrot_loss_replication,
        replications=replications,
    )
