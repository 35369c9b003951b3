"""Scale sweep: throughput as entity counts grow by orders of magnitude.

The ROADMAP scale target is blunt: simulated events/sec at **1000x the
entity count** must stay within 2x of the smallest configuration.  That
is only possible if nothing in the hot path is super-linear in the
number of daemons, logical nodes, or live Messengers.  The per-daemon
logical-node shards (O(shard) vs. O(all nodes) scans) and lazy idle
nodes take care of the tables; the event queue is one binary heap, whose
O(log n) push/pop holds the 1000x point within the bound by itself.

One *scale point* is a ring benchmark:

* ``d`` daemons on one LAN, daemon graph a ring;
* ``n`` logical nodes in a directed ``ring`` linked cycle, striped
  round-robin over the daemons (consecutive nodes therefore live on
  *different* daemons, so every hop is a remote hop — worst case);
* ``m`` walker Messengers spread evenly around the ring, each hopping
  ``hops`` times and dying.

The workload is RNG-free, so every simulated quantity (final sim time,
event count, remote-hop count) is bit-identical across hosts and runs;
``BENCH_scale.json`` commits them as golden values and the
CI ``scale-smoke`` job replays truncated grid points against them.
Wall-clock events/sec is measured around the run loop only (build
excluded) and is the quantity the 2x acceptance bound applies to.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Sequence

from ..facade import Cluster, ClusterConfig
from ..messengers.netbuilder import build_ring

__all__ = ["SCALE_GRID", "WALKER_SCRIPT", "run_scale_point", "run_scale_sweep"]

#: The walker: hop the ring ``steps`` times, then finish.
WALKER_SCRIPT = """
walker(steps) {
    for (k = 0; k < steps; k++) {
        hop(ll = "ring"; ldir = +);
    }
}
"""

#: Ring hops per walker at every grid point (fixed so points differ
#: only in population, not in per-Messenger work).
HOPS_PER_WALKER = 16

#: The sweep: daemons x logical nodes x Messengers.  ``nodes +
#: messengers`` grows exactly 72 -> 72,000 (the 1000x of the ROADMAP
#: target); daemons ride along 4 -> 32 to keep per-daemon load growing
#: too.  ``factor`` names the point.
SCALE_GRID: tuple[dict, ...] = (
    {"factor": 1, "daemons": 4, "nodes": 64, "messengers": 8},
    {"factor": 10, "daemons": 8, "nodes": 640, "messengers": 80},
    {"factor": 100, "daemons": 16, "nodes": 6400, "messengers": 800},
    {"factor": 1000, "daemons": 32, "nodes": 64000, "messengers": 8000},
)


def run_scale_point(
    daemons: int,
    nodes: int,
    messengers: int,
    hops: int = HOPS_PER_WALKER,
) -> dict:
    """Run one ring benchmark; returns simulated + wall-clock results.

    Simulated values (``sim_seconds``, ``events``, ``remote_hops``) are
    deterministic; ``wall_s``/``events_per_sec`` are host-dependent.
    """
    cluster = Cluster(config=ClusterConfig(n_hosts=daemons, topology="ring"))
    sim, system = cluster.sim, cluster.messengers
    # Scale mode: finished walkers are not archived.
    system.retain_finished = False
    ring = build_ring(system, nodes)
    program = system.compile(WALKER_SCRIPT)
    stride = max(1, nodes // messengers)
    for index in range(messengers):
        name = f"n{(index * stride) % nodes}"
        node = ring[name]
        system.inject(program, (hops,), daemon=node.daemon, node=name)
    eid_before = sim._eid
    wall_start = perf_counter()
    sim_seconds = system.run_to_quiescence()
    wall_s = perf_counter() - wall_start
    events = sim._eid - eid_before
    remote_hops = sum(
        d.stats.hops_out_remote for d in system.daemons.values()
    )
    return {
        "daemons": daemons,
        "nodes": nodes,
        "messengers": messengers,
        "hops_per_walker": hops,
        "entities": daemons + nodes + messengers,
        "sim_seconds": sim_seconds,
        "events": events,
        "remote_hops": remote_hops,
        "wall_s": wall_s,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
    }


def run_scale_sweep(
    grid: Optional[Sequence[dict]] = None,
    hops: int = HOPS_PER_WALKER,
) -> dict:
    """Run every grid point once; report per-point wall throughput and
    the headline largest-vs-smallest events/sec ratio."""
    points = [
        {
            "factor": spec.get("factor"),
            **run_scale_point(
                spec["daemons"], spec["nodes"], spec["messengers"], hops=hops
            ),
        }
        for spec in (grid if grid is not None else SCALE_GRID)
    ]
    report: dict = {"suite": "scale", "points": points}
    if len(points) >= 2:
        smallest, largest = points[0], points[-1]
        ratio = (
            largest["events_per_sec"] / smallest["events_per_sec"]
            if smallest["events_per_sec"]
            else 0.0
        )
        report["largest_vs_smallest_evps"] = ratio
        report["within_2x"] = ratio >= 0.5
    return report
