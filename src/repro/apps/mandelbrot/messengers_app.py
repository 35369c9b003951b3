"""Mandelbrot via MESSENGERS "smart workers" — Figure 3 of the paper.

The single Messenger script below *is* Figure 3 (§3.1): one behavior,
injected at the central daemon's ``init`` node, that clones itself into
a worker per neighboring daemon with ``create(ALL)`` and then shuttles
between its work node and the central node, picking up tasks and
depositing results.  There is no manager; the central node's variables
(guarded by the non-preemptive scheduler, so ``next_task``/``deposit``
need no locks) are the task pool and the result store.

Natives:

* ``next_task()`` — pop the next unprocessed block id (0 = done);
* ``compute(task)`` — compute the block, *carrying the pixel colors in
  a messenger variable* (so they migrate zero-copy on the hop back);
* ``deposit(res)`` — store the colors at the central node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...facade import Cluster, ClusterConfig
from ...netsim import CostModel, DEFAULT_COSTS
from .kernel import TaskGrid, block_flops, compute_block

__all__ = ["MessengersMandelbrotResult", "MANAGER_WORKER_SCRIPT", "run_messengers"]

#: Figure 3, verbatim modulo concrete syntax (0 = NULL sentinel).
MANAGER_WORKER_SCRIPT = """
manager_worker() {
    create(ALL);
    hop(ll = $last);
    while ((task = next_task()) != 0) {
        hop(ll = $last);
        res = compute(task);
        hop(ll = $last);
        deposit(res);
    }
}
"""


@dataclass
class MessengersMandelbrotResult:
    image: "np.ndarray"
    seconds: float  # simulated wall-clock
    n_workers: int
    hops_local: int = 0
    hops_remote: int = 0
    instructions: int = 0
    stats: dict = field(default_factory=dict)


def run_messengers(
    grid: TaskGrid,
    n_workers: int,
    costs: CostModel = DEFAULT_COSTS,
    metrics=None,
    faults=None,
    seed: int = 0,
    resilience=None,
) -> MessengersMandelbrotResult:
    """Run the Figure-3 program; returns image + simulated seconds.

    ``metrics`` optionally attaches a
    :class:`~repro.obs.MetricsRegistry` to the run's simulator
    (``python -m repro stats`` uses this for the cost breakdown).
    ``faults`` optionally attaches a :class:`~repro.faults.FaultPlan`
    (replayed deterministically from ``seed``); recovery statistics then
    land in ``result.stats["faults"]``.  ``resilience`` optionally arms
    a :class:`~repro.resilience.ResiliencePolicy` (failure detector,
    supervision, flow control); its statistics land in
    ``result.stats["resilience"]``.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    # host0 carries the central node; one worker daemon per processor.
    cluster = Cluster(config=ClusterConfig(
        n_hosts=n_workers + 1,
        costs=costs,
        metrics=metrics if metrics is not None else False,
        faults=faults,
        seed=seed,
        resilience=resilience,
    ))
    system = cluster.messengers

    results: dict[int, np.ndarray] = {}
    central = system.daemon("host0").init_node
    # The central node's variables form the task pool — a data structure
    # that exists *without any process guarding it* (§3.1.1).
    central.variables["tasks"] = list(range(len(grid)))

    @system.natives.register
    def next_task(env):
        tasks = env.node_vars["tasks"]
        if not tasks:
            return 0
        env.charge_seconds(1e-6)  # queue pop
        return tasks.pop(0) + 1  # 1-based; 0 means "no more work"

    @system.natives.register
    def compute(env, task):
        block = grid.block(task - 1)
        colors, iterations = compute_block(grid, block)
        env.charge_flops(block_flops(iterations))
        # The result rides along as a messenger variable: no
        # marshalling copies, but its bytes are charged on the hop.
        env.msgr_vars["pixels"] = colors
        return task - 1

    @system.natives.register
    def deposit(env, res):
        colors = env.msgr_vars.pop("pixels")
        results[res] = colors
        env.charge_memcpy(colors.nbytes)
        return 0

    system.inject(MANAGER_WORKER_SCRIPT, daemon="host0")
    elapsed = system.run_to_quiescence()

    local, remote = system.total_hops()
    stats = {}
    if cluster.injector is not None:
        stats["faults"] = cluster.fault_stats
    if cluster.resilience is not None:
        cluster.resilience.check_final()
        stats["resilience"] = cluster.resilience_stats
    image = grid.assemble(results)
    results.clear()  # the natives' closures must not pin the blocks
    return MessengersMandelbrotResult(
        image=image,
        seconds=elapsed,
        n_workers=n_workers,
        hops_local=local,
        hops_remote=remote,
        instructions=system.total_instructions(),
        stats=stats,
    )
