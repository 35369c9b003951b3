"""Mandelbrot via message-passing manager/worker — Figure 2 of the paper.

A faithful transcription of the paper's PVM pseudo-code onto
:mod:`repro.mp`, including the details Figure 2 "abstracted away for
clarity" but a real PVM program must pay for: spawning the workers,
packing/unpacking every task and result buffer, and the final
collect-and-kill loop.

The manager runs on ``host0``; worker ``w`` runs on ``host{w+1}`` — so a
run with *P processors* (the x-axis of Figures 4–6) uses ``P`` worker
hosts plus the manager host, symmetrically with the MESSENGERS version
whose central node lives on a daemon of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...facade import Cluster, ClusterConfig
from ...mp import ANY, PackBuffer
from ...netsim import CostModel, DEFAULT_COSTS
from .kernel import TaskGrid, block_flops, compute_block

__all__ = ["PvmMandelbrotResult", "run_pvm"]

_TAG_TASK = 1
_TAG_RESULT = 2
_TAG_NOTIFY = 3


@dataclass
class PvmMandelbrotResult:
    image: "np.ndarray"
    seconds: float  # simulated wall-clock of the whole job
    n_workers: int
    messages: int = 0
    stats: dict = field(default_factory=dict)


def _worker(ctx, grid: TaskGrid):
    """Figure 2, worker_func: recv task, compute, send result, repeat."""
    while True:
        message = yield from ctx.recv(src=ctx.parent, tag=_TAG_TASK)
        block_index = message.buffer.unpack_ints()[0]
        block = grid.block(block_index)
        colors, iterations = compute_block(grid, block)
        yield from ctx.compute(block_flops(iterations))
        reply = PackBuffer()
        reply.pack_int(block_index)
        reply.pack_array(colors)  # int16: 2 bytes/pixel on the wire
        yield from ctx.send(ctx.parent, reply, tag=_TAG_RESULT)


def _manager(ctx, grid: TaskGrid, n_workers: int, results: dict):
    """Figure 2, manager(): spawn, pump tasks, collect, kill.

    Beyond Figure 2, the manager subscribes to ``pvm_notify``-style
    TaskExit messages and re-queues the block a dead worker was holding
    — the retry path a fault-tolerant PVM program needs once the fault
    layer can crash worker hosts.  In a fault-free run no notification
    ever arrives and the send/recv sequence is exactly Figure 2's.
    """
    worker_hosts = [f"host{w + 1}" for w in range(n_workers)]
    workers = yield from ctx.spawn(
        _worker, grid, count=n_workers, hosts=worker_hosts
    )
    ctx.notify_task_exit(workers, tag=_TAG_NOTIFY)

    pending = list(range(len(grid)))
    assigned: dict[int, int] = {}  # worker tid -> block in its hands
    idle: list[int] = []
    dead: set[int] = set()

    def next_task():
        return pending.pop(0) if pending else None

    def task_buffer(block_index):
        buf = PackBuffer()
        buf.pack_ints(
            [block_index, 0, 0, 0, 0]  # index + geometry, 40 bytes
        )
        return buf

    # Prime every worker with one task (lines 4-5).
    for worker in workers:
        block_index = next_task()
        if block_index is None:
            break
        yield from ctx.send(worker, task_buffer(block_index), tag=_TAG_TASK)
        assigned[worker] = block_index

    # Main pump (lines 6-10, plus the notify branch): collect results
    # and hand out work until every block is accounted for.
    while len(results) < len(grid):
        message = yield from ctx.recv(src=ANY, tag=ANY)
        if message.tag == _TAG_RESULT:
            done_index = message.buffer.unpack_int()
            results[done_index] = message.buffer.unpack_array()
            assigned.pop(message.src, None)
            if message.src in dead:
                continue  # posthumous result; don't feed a ghost
            block_index = next_task()
            if block_index is not None:
                yield from ctx.send(
                    message.src, task_buffer(block_index), tag=_TAG_TASK
                )
                assigned[message.src] = block_index
            else:
                idle.append(message.src)
        elif message.tag == _TAG_NOTIFY:
            dead_tid = message.buffer.unpack_int()
            dead.add(dead_tid)
            block_index = assigned.pop(dead_tid, None)
            if block_index is not None and block_index not in results:
                pending.append(block_index)
            if dead_tid in idle:
                idle.remove(dead_tid)
            while pending and idle:
                worker = idle.pop(0)
                block_index = next_task()
                yield from ctx.send(
                    worker, task_buffer(block_index), tag=_TAG_TASK
                )
                assigned[worker] = block_index

    # Kill the workers (lines 11-15).
    for worker in workers:
        ctx.kill(worker)
    ctx.exit()


def run_pvm(
    grid: TaskGrid,
    n_workers: int,
    costs: CostModel = DEFAULT_COSTS,
    metrics=None,
    faults=None,
    seed: int = 0,
    resilience=None,
) -> PvmMandelbrotResult:
    """Run the Figure-2 program; returns image + simulated seconds.

    ``metrics`` optionally attaches a
    :class:`~repro.obs.MetricsRegistry` to the run's simulator
    (``python -m repro stats --system pvm`` uses this).  ``faults``
    optionally attaches a :class:`~repro.faults.FaultPlan` (replayed
    deterministically from ``seed``); recovery statistics then land in
    ``result.stats["faults"]``.  ``resilience`` optionally arms a
    :class:`~repro.resilience.ResiliencePolicy`; its statistics land in
    ``result.stats["resilience"]``.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    cluster = Cluster(config=ClusterConfig(
        n_hosts=n_workers + 1,  # host0 = manager
        costs=costs,
        metrics=metrics if metrics is not None else False,
        faults=faults,
        seed=seed,
        resilience=resilience,
    ))
    system = cluster.mp
    results: dict[int, np.ndarray] = {}
    manager_tid = system.spawn(_manager, grid, n_workers, results)
    system.run_until_task(manager_tid)
    elapsed = cluster.now
    cluster.sim.run()  # let worker-kill interrupts settle
    stats = {}
    if cluster.injector is not None:
        stats["faults"] = cluster.fault_stats
    if cluster.resilience is not None:
        cluster.resilience.check_final()
        stats["resilience"] = cluster.resilience_stats
    return PvmMandelbrotResult(
        image=grid.assemble(results),
        seconds=elapsed,
        n_workers=n_workers,
        messages=cluster.network.delivered,
        stats=stats,
    )
