"""Layer probes: each layer's public functions timed in isolation.

Every probe builds its input and times only the hot part, returning
``(work, seconds)``.  :func:`run_probes` makes five rounds over all of
them — so one probe's attempts are seconds apart and a slow spell of the
host cannot cover them all — with a ``gc.collect()`` before each, and
keeps each probe's fastest attempt.  Together they take a few seconds
and run once per traced benchmark invocation.  Event counts are nominal
(events the probe asks the kernel for), never read from kernel
internals.

README.md lists which end-to-end metric each probe should move.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    MailboxConfig,
    MetricsRegistry,
    ReplicationConfig,
    ResiliencePolicy,
    ServiceConfig,
)
from repro.des import Resource, Simulator, Store
from repro.gvt import ConservativeKernel, TimeWarpKernel, phold
from repro.messengers import build_ring
from repro.mp import MessagePassingSystem, PackBuffer, UnpackBuffer
from repro.netsim import Packet, build_lan

ATTEMPTS = 5


def _timed_run(sim) -> float:
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


# -- des ---------------------------------------------------------------------


def des_timeout_events(n: int = 30_000):
    sim = Simulator()

    def chain():
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1.0)

    sim.process(chain())
    return n, _timed_run(sim)


def des_spawn_events(batches: int = 4_000):
    """Process spawn/park/complete: per batch one Initialize, two
    timeouts, the worker's completion and the spawner's resume."""
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    def spawner():
        for _ in range(batches):
            yield sim.process(worker())

    sim.process(spawner())
    return 5 * batches, _timed_run(sim)


def des_store_events(n: int = 6_000):
    """Producer/consumer over a Store: ~4 events per item."""
    sim = Simulator()
    store = Store(sim)

    def producer():
        for item in range(n):
            yield store.put(item)
            yield sim.timeout(0.001)

    def consumer():
        for _ in range(n):
            yield store.get()

    sim.process(producer())
    sim.process(consumer())
    return 4 * n, _timed_run(sim)


def des_resource_events(users: int = 8, cycles: int = 1_500):
    """Contended capacity-1 Resource: request, hold, release — the shape
    of the Ethernet medium; 3 events per cycle."""
    sim = Simulator()
    medium = Resource(sim, capacity=1)

    def user():
        for _ in range(cycles):
            request = medium.request()
            yield request
            yield sim.timeout(0.001)
            medium.release(request)

    for _ in range(users):
        sim.process(user())
    return 3 * users * cycles, _timed_run(sim)


# -- netsim ------------------------------------------------------------------


def _stream(sim, network, n: int, size_bytes: int, n_hosts: int = 4):
    def sender():
        for index in range(n):
            yield from network.send(Packet(
                src="host0",
                dst=f"host{1 + index % (n_hosts - 1)}",
                port="bench",
                payload=index,
                size_bytes=size_bytes,
            ))

    def sink(name):
        port = network.host(name).port("bench")
        while True:
            yield port.get()

    sim.process(sender())
    for index in range(1, n_hosts):
        sim.process(sink(f"host{index}"), daemon=True)


def netsim_packets(n: int = 1_500, size_bytes: int = 256):
    sim = Simulator()
    network = build_lan(sim, 4)
    _stream(sim, network, n, size_bytes)
    return n, _timed_run(sim)


def netsim_reliable_packets(n: int = 1_000):
    """The same 256 B stream through seq/ack/dedup/retransmit at 5% loss."""
    c = Cluster(config=ClusterConfig(
        n_hosts=4, faults=FaultPlan().drop(0.05), seed=1,
    ))
    c.network.set_reliable("bench")
    _stream(c.sim, c.network, n, 256)
    return n, _timed_run(c.sim)


#: Packet sizes of the cost fit: 1, 1, 10 and 100 Ethernet frames.
FIT_SIZES = ((64, 600), (1_500, 600), (15_000, 150), (150_000, 30))


# -- messengers --------------------------------------------------------------

_NOOP = "noop() { }"

_HOPPER = """
hopper(steps) {
    for (k = 0; k < steps; k++) {
        hop(ll = "ring"; ldir = +);
    }
}
"""

_CRUNCH = """
crunch(n) {
    i = 0;
    acc = 0;
    while (i < n) {
        acc = acc + i * 2 - (i % 3);
        if (acc > 1000000) { acc = acc - 1000000; }
        i = i + 1;
    }
}
"""


def _timed_quiescence(c: Cluster) -> float:
    start = time.perf_counter()
    c.run_to_quiescence()
    return time.perf_counter() - start


def _hops(c: Cluster, daemons, walkers: int = 16, steps: int = 32,
          nodes: int = 64):
    ring = build_ring(c.messengers, nodes, daemons=daemons)
    program = c.messengers.compile(_HOPPER)
    for index in range(walkers):
        node = ring[f"n{index * (nodes // walkers)}"]
        c.messengers.inject(
            program, (steps,), daemon=node.daemon, node=node.name
        )
    return walkers * steps, _timed_quiescence(c)


def messengers_remote_hops(**config):
    c = Cluster(config=ClusterConfig(n_hosts=4, topology="ring", **config))
    return _hops(c, None)  # striped over all daemons: every hop remote


def messengers_local_hops():
    c = Cluster(config=ClusterConfig(n_hosts=2))
    return _hops(c, ["host0"])  # one daemon holds the ring: all local


def messengers_inject_finish(n: int = 1_500):
    c = Cluster(2)
    program = c.messengers.compile(_NOOP)
    start = time.perf_counter()
    for _ in range(n):
        c.messengers.inject(program)
    c.run_to_quiescence()
    return n, time.perf_counter() - start


def mcl_instructions(n: int = 20_000):
    """The arithmetic loop on the tree's default backend, driven through
    a one-host system so no backend is named here."""
    c = Cluster(1)
    c.inject(_CRUNCH, args=(n,))
    seconds = _timed_quiescence(c)
    return c.messengers.total_instructions(), seconds


def mcl_compile():
    """Cold compile of a hop script and an arithmetic script; a fresh
    comment makes each source text new to every cache."""
    c = Cluster(1)
    tag = f"/* {time.perf_counter_ns()} */"
    start = time.perf_counter()
    c.messengers.compile(_HOPPER + tag)
    c.messengers.compile(_CRUNCH + tag)
    return 1, time.perf_counter() - start


def mcl_cache_hit_share(compiles: int = 10) -> float:
    """Program-cache hits over compiles when two scripts are each
    compiled ``compiles`` times on one system (exact: 0.9 today)."""
    c = Cluster(config=ClusterConfig(n_hosts=1, metrics=True))
    for _ in range(compiles):
        c.messengers.compile(_HOPPER)
        c.messengers.compile(_CRUNCH)
    snap = c.snapshot()
    hits, misses = snap["mcl_cache_hits"], snap["mcl_cache_misses"]
    return hits / (hits + misses)


# -- mp ----------------------------------------------------------------------


def _mp_system(n_hosts: int):
    sim = Simulator()
    return sim, MessagePassingSystem(build_lan(sim, n_hosts))


def mp_sendrecv(n: int = 400):
    """Ping-pong between two tasks on two hosts: 2n send+recv pairs."""
    sim, system = _mp_system(2)

    buf = PackBuffer().pack_bytes(bytes(256))

    def pong(ctx):
        for _ in range(n):
            message = yield from ctx.recv(tag=1)
            yield from ctx.send(message.src, buf, tag=2)

    def ping(ctx, peer):
        for _ in range(n):
            yield from ctx.send(peer, buf, tag=1)
            yield from ctx.recv(tag=2)

    peer = system.spawn(pong, host="host1")
    system.spawn(ping, peer, host="host0")
    return 2 * n, _timed_run(sim)


def mp_mcast(n: int = 120, fanout: int = 7):
    sim, system = _mp_system(fanout + 1)

    def listener(ctx):
        for _ in range(n):
            yield from ctx.recv()

    def caster(ctx, tids):
        buf = PackBuffer().pack_bytes(bytes(256))
        for _ in range(n):
            yield from ctx.mcast(tids, buf, tag=1)

    tids = [
        system.spawn(listener, host=f"host{index + 1}")
        for index in range(fanout)
    ]
    system.spawn(caster, tids, host="host0")
    return n * fanout, _timed_run(sim)


def mp_pack_unpack(records: int = 400):
    """MB (as the cost model sizes them) per host second through packing
    and unpacking records of an int, a double, a string and a 4 KiB
    array.  The buffers hold references, so host cost is per item."""
    block = np.zeros(512)
    megabytes = 0.0
    start = time.perf_counter()
    for index in range(records):
        buf = (
            PackBuffer()
            .pack_int(index)
            .pack_double(0.5)
            .pack_string("block")
            .pack_array(block)
        )
        megabytes += buf.nbytes / 1e6
        unpack = UnpackBuffer(buf.items, buf.nbytes)
        unpack.unpack_int()
        unpack.unpack_double()
        unpack.unpack_string()
        unpack.unpack_array()
    return megabytes, time.perf_counter() - start


# -- gvt ---------------------------------------------------------------------


def _phold(kernel_cls, **kwargs):
    specs, initial = phold(n_lps=4, population=8, hops=30, seed=5)
    sim = Simulator()
    kernel = kernel_cls(sim, specs, **kwargs)
    for event in initial:
        kernel.post(event)
    start = time.perf_counter()
    stats = kernel.run()
    return stats, time.perf_counter() - start


def gvt_conservative():
    stats, seconds = _phold(ConservativeKernel)
    return stats.events_processed, seconds


def gvt_optimistic():
    stats, seconds = _phold(TimeWarpKernel, gvt_interval_s=0.01)
    return stats.events_processed, seconds


# -- mailbox / replication ---------------------------------------------------


def _mail(n: int, **config):
    c = Cluster(config=ClusterConfig(n_hosts=4, **config))
    for index in range(8):
        c.consumer(
            c.add_node(f"peer{index}", daemon=f"host{index % 4}"),
            lambda mail: None,
        )
    for index in range(n):
        c.schedule(
            (index + 1) * 0.004,
            lambda c, i=index: c.send_mail(f"peer{i % 8}", i),
        )
    return n, _timed_quiescence(c)


def mailbox_mails(n: int = 400, **config):
    return _mail(
        n, mailbox=MailboxConfig(poll_interval_s=0.01), **config
    )


def replication_quorum_writes(n: int = 200):
    return _mail(n, mailbox=MailboxConfig(
        poll_interval_s=0.01, replication=ReplicationConfig(factor=2),
    ))


# -- service -----------------------------------------------------------------


def service_requests(resilience=None):
    c = Cluster(config=ClusterConfig(
        n_hosts=4,
        service=ServiceConfig(rate_rps=250.0, duration_s=1.0),
        resilience=resilience,
        seed=2,
    ))
    start = time.perf_counter()
    stats = c.service.run("messengers")
    return stats["arrivals"], time.perf_counter() - start


def service_arrivals_gen():
    c = Cluster(config=ClusterConfig(
        n_hosts=4,
        service=ServiceConfig(rate_rps=2_000.0, duration_s=2.0),
        seed=2,
    ))
    start = time.perf_counter()
    n = sum(1 for _ in c.service.iter_requests())
    return n, time.perf_counter() - start


# -- all of them ------------------------------------------------------------

#: Metric -> probe; the metric is work per second of the fastest attempt.
RATES = {
    "des.timeout_events_per_s": des_timeout_events,
    "des.spawn_events_per_s": des_spawn_events,
    "des.store_events_per_s": des_store_events,
    "des.resource_events_per_s": des_resource_events,
    "netsim.packets_per_s_256B": netsim_packets,
    "netsim.reliable_packets_per_s_256B": netsim_reliable_packets,
    "messengers.mcl.instr_per_s": mcl_instructions,
    "messengers.remote_hops_per_s": messengers_remote_hops,
    "messengers.local_hops_per_s": messengers_local_hops,
    "messengers.inject_finish_per_s": messengers_inject_finish,
    "mp.sendrecv_per_s": mp_sendrecv,
    "mp.pack_unpack_mb_per_s": mp_pack_unpack,
    "mp.mcast_per_s": mp_mcast,
    "gvt.conservative_events_per_s": gvt_conservative,
    "gvt.optimistic_events_per_s": gvt_optimistic,
    "mailbox.mails_per_s": mailbox_mails,
    "replication.quorum_writes_per_s": replication_quorum_writes,
    "service.requests_per_s": service_requests,
    "service.arrivals_gen_per_s": service_arrivals_gen,
}

#: The cross-cutting layers, as wall with the layer armed over wall
#: without it: metric -> (armed run, the RATES entry it is compared to).
OVERHEADS = {
    "resilience.overhead_x": (
        lambda: service_requests(ResiliencePolicy()),
        "service.requests_per_s",
    ),
    "faults.armed_overhead_x": (
        lambda: mailbox_mails(faults=FaultPlan()),
        "mailbox.mails_per_s",
    ),
    "obs.enabled_overhead_x": (
        lambda: messengers_remote_hops(metrics=True),
        "messengers.remote_hops_per_s",
    ),
    "obs.disabled_overhead_x": (
        lambda: messengers_remote_hops(
            metrics=MetricsRegistry(enabled=False)
        ),
        "messengers.remote_hops_per_s",
    ),
}

#: Packet sizes of the host-cost fit (1, 1, 10 and 100 Ethernet frames)
#: and how many of each one attempt sends.
FIT_SIZES = ((64, 600), (1_500, 600), (15_000, 150), (150_000, 30))


def run_probes() -> dict:
    """Every probe metric, by its BENCHMARK.json name."""
    runs = dict(RATES)
    runs["compile"] = mcl_compile
    for name, (armed, _) in OVERHEADS.items():
        runs[name] = armed
    for size_bytes, n in FIT_SIZES:
        runs[f"fit.{size_bytes}"] = (
            lambda n=n, size=size_bytes: netsim_packets(n, size)
        )

    best = dict.fromkeys(runs, (0, float("inf")))
    for _ in range(ATTEMPTS):
        for name, once in runs.items():
            gc.collect()
            work, seconds = once()
            if seconds < best[name][1]:
                best[name] = (work, seconds)

    out = {name: best[name][0] / best[name][1] for name in RATES}
    out["messengers.mcl.compile_ms"] = best["compile"][1] * 1e3
    out["messengers.mcl.cache_hit_share"] = mcl_cache_hit_share()
    out["gvt.rollbacks"] = _phold(TimeWarpKernel, gvt_interval_s=0.01)[0].rollbacks
    for name, (_, plain) in OVERHEADS.items():
        out[name] = best[name][1] / best[plain][1]
    # Host cost of one transfer as overhead + slope * bytes, the way
    # Creutz reports QCDSP message passing: least squares over the sizes.
    sizes = [size for size, _ in FIT_SIZES]
    per_packet = [
        best[f"fit.{size}"][1] / best[f"fit.{size}"][0] for size in sizes
    ]
    slope, intercept = np.polyfit(sizes, per_packet, 1)
    out["netsim.host_us_per_packet"] = intercept * 1e6
    out["netsim.host_ns_per_byte"] = slope * 1e9
    return out
