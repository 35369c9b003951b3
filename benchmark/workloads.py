"""The five benchmark workloads.

Each workload is a pair of functions: ``make_inputs(seed)`` builds the
workload's inputs (plain data, same seed -> same inputs, including the
expected answers the checks compare against) and ``run(inputs, counted)``
is one *repeat*: a batch job that builds a fresh simulated cluster, runs
it to completion, checks every work unit, and returns a :class:`Repeat`.

From the host's point of view every workload is a batch job: fixed
input, work per host-second.  The Poisson arrivals of ``service_mix``
are *simulated* and therefore part of the deterministic input.

Only the stable public surface of ``repro`` is imported here, and every
run uses the tree's default scheduler and MCL backend, so a later change
that deletes the losing scheduler/backend or flattens the packet path
can be measured by this file without editing it.

Sizes were chosen on the authoring machine so that one repeat takes
about one host second (see README.md, "How sizes were chosen"); they are
frozen — changing one changes what every later number means.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from dataclasses import dataclass, field

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
    cost_breakdown,
)
from repro.apps import mandelbrot, matmul
from repro.messengers import build_ring
from repro.perf import hashing_all_simulators

LEDGER_CATEGORIES = (
    "compute", "wire", "interpretation", "dispatch", "protocol",
)

#: Counts a counted repeat reports even when the workload never touches
#: the layer (then 0), so every workload emits every declared name.
COUNTS = (
    "netsim.packets", "netsim.frames", "netsim.bytes",
    "netsim.stall_seconds", "netsim.retransmits",
    "netsim.duplicates_suppressed", "messengers.hops_remote",
    "messengers.hops_local", "messengers.slices",
    "messengers.state_bytes_moved", "messengers.mcl.instructions",
    "mp.messages", "mailbox.read", "mailbox.duplicates_suppressed",
    "replication.quorum_writes", "replication.gossip_legs",
    "service.completed", "service.expired", "service.rejected",
    "service.sim_goodput_rps", "resilience.invariant_checks",
)


@dataclass
class Repeat:
    """What one repeat of a workload produced (all simulated, exact)."""

    #: Work units done — fixed for a workload and seed.
    work: int
    #: Simulated makespan summed over the repeat's runs.
    sim_seconds: float
    #: Operations checked / operations whose check failed.
    attempted: int
    failed: int
    #: Simulated *results* (not the event trace); hashed into the digest.
    results: dict
    #: Per-layer counts from public counters; filled on counted repeats.
    counters: dict = field(default_factory=dict)
    #: First few failed checks, for the report.
    failures: list = field(default_factory=list)

    def digest(self) -> str:
        return results_digest(self.results)


def results_digest(results: dict) -> str:
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _crc(obj) -> str:
    """Short checksum of a bulky result, so golden.json stays readable."""
    return f"{zlib.crc32(repr(obj).encode()):08x}"


class _Checks:
    """Counts operations and remembers the first few that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)


class _Counters:
    """Accumulates the counted-pass numbers from public counters only."""

    def __init__(self):
        self.c: dict[str, float] = dict.fromkeys(COUNTS, 0)
        self._ledger = dict.fromkeys(LEDGER_CATEGORIES, 0.0)
        self._dropped = 0
        self._timeline_s = 0.0
        self._busy_s = 0.0
        self._elapsed_s = 0.0
        self._latency_ms: list[float] = []

    def add(self, name: str, value) -> None:
        self.c[name] += value

    def add_snapshot(self, snap: dict) -> None:
        for ours, theirs in (
            ("netsim.packets", "netsim.net.packets"),
            ("netsim.frames", "netsim.eth.frames"),
            ("netsim.bytes", "netsim.eth.bytes"),
            ("netsim.stall_seconds", "netsim.eth.stall_seconds"),
            ("messengers.slices", "messengers.slices"),
            ("messengers.state_bytes_moved", "messengers.state_bytes_moved"),
            ("messengers.mcl.instructions", "mcl.vm.instructions_total"),
            ("mp.messages", "mp.messages_sent"),
        ):
            self.add(ours, snap.get(theirs, 0))
        hops = snap.get("messengers.hops", 0)
        remote = snap.get("messengers.hops_remote", 0)
        self.add("messengers.hops_remote", remote)
        self.add("messengers.hops_local", hops - remote)

    def add_breakdown(self, breakdown: dict) -> None:
        self._timeline_s += breakdown["timeline_s"]
        for name, entry in breakdown["categories"].items():
            if name in self._ledger:
                self._ledger[name] += entry["seconds"]

    def add_registry(self, registry, elapsed_s: float, n_tracks: int) -> None:
        """Fold in a run whose simulator an app runner built itself."""
        self.add_snapshot(registry.snapshot())
        self.add_breakdown(cost_breakdown(registry, elapsed_s, n_tracks))

    def add_cluster(self, c: Cluster) -> None:
        self.add_snapshot(c.snapshot())
        self.add_breakdown(c.breakdown())
        segment = c.network.segment
        self._busy_s += segment.busy_seconds
        self._elapsed_s += c.now
        faults = c.fault_stats
        self.add("netsim.retransmits", faults.get("retransmits", 0))
        self.add(
            "netsim.duplicates_suppressed",
            faults.get("duplicates_suppressed", 0),
        )
        self._dropped += faults.get("packets_dropped", 0)
        mail = c.mail_stats
        self.add("mailbox.read", mail.get("read", 0))
        self.add(
            "mailbox.duplicates_suppressed",
            mail.get("duplicates_suppressed", 0),
        )
        self.add(
            "resilience.invariant_checks",
            c.resilience_stats.get("invariant_checks", 0),
        )

    def add_replication(self, stats: dict) -> None:
        counts = stats["counts"]
        self.add("replication.quorum_writes", counts.get("quorum_writes", 0))
        self.add(
            "replication.gossip_legs",
            counts.get("gossip_syns", 0)
            + counts.get("gossip_acks", 0)
            + counts.get("gossip_pushes", 0),
        )

    def add_service(self, stats: dict) -> None:
        outcomes = stats["outcomes"]
        self.add("service.completed", outcomes["completed"])
        self.add("service.expired", outcomes["expired"])
        self.add(
            "service.rejected",
            outcomes["rejected_admission"] + outcomes["rejected_breaker"],
        )
        self.add("service.sim_goodput_rps", stats["goodput_rps"])
        self._latency_ms.append(stats["latency_ms"]["p99"])

    def finish(self, events: int, trace_digest: str) -> dict:
        out = dict(self.c)
        out["des.events"] = events
        out["trace_digest"] = trace_digest  # printed for information only
        out["netsim.retransmits_per_drop"] = (
            out["netsim.retransmits"] / self._dropped
            if self._dropped else 0.0
        )
        out["netsim.medium_busy_share"] = (
            self._busy_s / self._elapsed_s if self._elapsed_s else 0.0
        )
        out["service.sim_p99_ms"] = max(self._latency_ms, default=0.0)
        for name, seconds in self._ledger.items():
            out[f"obs.ledger.{name}_share"] = (
                seconds / self._timeline_s if self._timeline_s else 0.0
            )
        return out


def _counted(fn, counted: bool):
    """Run ``fn(counters_or_None)``; on a counted repeat also hash every
    simulator it builds, for the event count and the trace digest."""
    if not counted:
        return fn(None), {}
    counters = _Counters()
    with hashing_all_simulators() as hasher:
        value = fn(counters)
    return value, counters.finish(hasher.events, hasher.hexdigest())


# -- ring_hops ---------------------------------------------------------------

RING_DAEMONS = 16
RING_NODES = 6400
RING_WALKERS = 800
RING_HOPS = 16

RING_WALKER = """
walker(start, steps) {
    for (k = 0; k < steps; k++) {
        hop(ll = "ring"; ldir = +);
    }
    arrive(start);
}
"""


def ring_hops_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"starts": rng.sample(range(RING_NODES), RING_WALKERS)}


def ring_hops_run(inputs: dict, counted: bool = False) -> Repeat:
    """The scale ring at the 100x population: nodes are striped over the
    daemons so every hop is remote; almost no MCL per hop."""

    def body(counters):
        c = Cluster(config=ClusterConfig(
            n_hosts=RING_DAEMONS, topology="ring", metrics=counted,
        ))
        system = c.messengers
        system.retain_finished = False  # scale mode, as BENCH_scale
        ring = build_ring(system, RING_NODES)
        arrived: dict[int, str] = {}

        @system.natives.register
        def arrive(env, start):
            arrived[start] = env.node.name
            return 0

        program = system.compile(RING_WALKER)
        for start in inputs["starts"]:
            node = ring[f"n{start}"]
            system.inject(
                program, (start, RING_HOPS), daemon=node.daemon,
                node=node.name,
            )
        sim_seconds = c.run_to_quiescence()
        if counters is not None:
            counters.add_cluster(c)
        return sim_seconds, arrived, system.total_hops()

    (sim_seconds, arrived, (local, remote)), counters = _counted(
        body, counted
    )
    checks = _Checks()
    for start in inputs["starts"]:
        want = f"n{(start + RING_HOPS) % RING_NODES}"
        got = arrived.get(start)
        checks.op(got == want, f"walker from n{start}: at {got}, want {want}")
    return Repeat(
        work=RING_WALKERS * RING_HOPS,
        sim_seconds=sim_seconds,
        attempted=checks.attempted,
        failed=checks.failed,
        results={
            "sim_seconds": sim_seconds,
            "hops_remote": remote,
            "hops_local": local,
            "arrived": len(arrived),
            "arrived_crc": _crc(sorted(arrived.items())),
        },
        counters=counters,
        failures=checks.failures,
    )


# -- mcl_compute -------------------------------------------------------------

MCL_DAEMONS = 4
MCL_NODES = 64
MCL_WALKERS = 64
MCL_ROUNDS = 8
MCL_ITERATIONS = 400

#: The ``repro.perf`` opcode probe's arithmetic mix, run between hops.
MCL_CRUNCHER = """
cruncher(id, n, rounds, a, b) {
    acc = 0;
    for (r = 0; r < rounds; r++) {
        i = 0;
        while (i < n) {
            acc = acc + i * a - (i % b);
            if (acc > 1000000) { acc = acc - 1000000; }
            i = i + 1;
        }
        hop(ll = "ring"; ldir = +);
    }
    report(id, acc);
}
"""


def _crunch_reference(n: int, rounds: int, a: int, b: int) -> int:
    acc = 0
    for _ in range(rounds):
        for i in range(n):
            acc = acc + i * a - (i % b)
            if acc > 1000000:
                acc -= 1000000
    return acc


def mcl_compute_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    walkers = []
    for index in range(MCL_WALKERS):
        a, b = rng.randrange(2, 6), rng.randrange(3, 9)
        walkers.append({
            "id": index,
            "start": rng.randrange(MCL_NODES),
            "a": a,
            "b": b,
            "want": _crunch_reference(MCL_ITERATIONS, MCL_ROUNDS, a, b),
        })
    return {"walkers": walkers}


def mcl_compute_run(inputs: dict, counted: bool = False) -> Repeat:
    """Interpretation-bound: a long arithmetic loop between rare hops."""

    def body(counters):
        c = Cluster(config=ClusterConfig(
            n_hosts=MCL_DAEMONS, topology="ring", metrics=counted,
        ))
        system = c.messengers
        ring = build_ring(system, MCL_NODES)
        reported: dict[int, tuple] = {}

        @system.natives.register
        def report(env, ident, acc):
            reported[ident] = (acc, env.node.name)
            return 0

        program = system.compile(MCL_CRUNCHER)
        for w in inputs["walkers"]:
            node = ring[f"n{w['start']}"]
            system.inject(
                program,
                (w["id"], MCL_ITERATIONS, MCL_ROUNDS, w["a"], w["b"]),
                daemon=node.daemon,
                node=node.name,
            )
        sim_seconds = c.run_to_quiescence()
        if counters is not None:
            counters.add_cluster(c)
        return sim_seconds, reported, system.total_instructions()

    (sim_seconds, reported, instructions), counters = _counted(body, counted)
    checks = _Checks()
    for w in inputs["walkers"]:
        want = (w["want"], f"n{(w['start'] + MCL_ROUNDS) % MCL_NODES}")
        got = reported.get(w["id"])
        checks.op(got == want, f"cruncher {w['id']}: got {got}, want {want}")
    return Repeat(
        work=instructions,
        sim_seconds=sim_seconds,
        attempted=checks.attempted,
        failed=checks.failed,
        results={
            "sim_seconds": sim_seconds,
            "instructions": instructions,
            "reported_crc": _crc(sorted(reported.items())),
        },
        counters=counters,
        failures=checks.failures,
    )


# -- paper_figs --------------------------------------------------------------

FIG5_IMAGE = 640
FIG5_GRIDS = (8, 16)
FIG5_PROCS = (1, 2, 8, 32)
FIG12B_M = 3
FIG12B_BLOCKS = (10, 20, 50, 100, 300)
#: ``repro.bench.matmul_experiments.FIG12B_CPU_SCALE``, copied as a
#: literal so this file does not import ``repro.bench``.
FIG12B_CPU_SCALE = 1.55


def paper_figs_inputs(seed: int) -> dict:
    """Fig. 5's image is the paper's and fixed; the seed draws Fig. 12b's
    operand matrices (their values decide the checks, not the timing)."""
    mats = {}
    for s in FIG12B_BLOCKS:
        a, b = matmul.make_matrices(FIG12B_M * s, seed=seed)
        mats[s] = (a, b, a @ b)
    return {"matrices": mats}


def _fig5(checks: _Checks, counters) -> tuple[dict, float]:
    series: dict[str, float] = {}
    sim_total = 0.0
    for grid_n in FIG5_GRIDS:
        grid = mandelbrot.TaskGrid(FIG5_IMAGE, grid_n)
        seq = mandelbrot.run_sequential(grid)
        series[f"fig5.g{grid_n}.sequential"] = seq.seconds
        sim_total += seq.seconds
        checks.op(seq.image.shape == (FIG5_IMAGE, FIG5_IMAGE), "fig5 seq")
        times: dict[str, list[float]] = {"messengers": [], "pvm": []}
        for procs in FIG5_PROCS:
            for system, runner in (
                ("messengers", mandelbrot.run_messengers),
                ("pvm", mandelbrot.run_pvm),
            ):
                registry = MetricsRegistry() if counters is not None else None
                result = runner(grid, procs, metrics=registry)
                if registry is not None:
                    # host0 is the manager / central node: procs + 1
                    # hosts, plus the wire.
                    counters.add_registry(registry, result.seconds, procs + 2)
                series[f"fig5.g{grid_n}.{system}.p{procs}"] = result.seconds
                sim_total += result.seconds
                times[system].append(result.seconds)
                checks.op(
                    np.array_equal(result.image, seq.image),
                    f"fig5 g{grid_n} {system} p{procs}: image differs "
                    "from sequential",
                )
        # Shape claims of Figures 4-6: MESSENGERS wins from 8 processors
        # up, keeps speeding up with processors, and is faster than
        # sequential C by 8 processors.
        for procs, msgr, pvm in zip(
            FIG5_PROCS, times["messengers"], times["pvm"]
        ):
            if procs >= 8:
                checks.op(
                    msgr <= pvm * 1.05,
                    f"fig5 g{grid_n} p{procs}: messengers {msgr:.3f} not "
                    f"faster than pvm {pvm:.3f}",
                )
        checks.op(
            all(
                later <= earlier * 1.10
                for earlier, later in zip(
                    times["messengers"], times["messengers"][1:]
                )
            ),
            f"fig5 g{grid_n}: messengers time not decreasing with procs",
        )
        checks.op(
            seq.seconds / times["messengers"][2] >= 4.0,
            f"fig5 g{grid_n}: messengers speed-up at 8 procs below 4x",
        )
    return series, sim_total


def _fig12b(inputs: dict, checks: _Checks, counters) -> tuple[dict, float]:
    series: dict[str, float] = {}
    sim_total = 0.0
    curves: dict[str, list[float]] = {
        "messengers": [], "pvm": [], "naive": [], "blocked": [],
    }
    for s in FIG12B_BLOCKS:
        a, b, want = inputs["matrices"][s]
        runs = {
            "messengers": matmul.run_messengers(
                a, b, FIG12B_M, cpu_scale=FIG12B_CPU_SCALE
            ),
            "pvm": matmul.run_pvm(
                a, b, FIG12B_M, cpu_scale=FIG12B_CPU_SCALE
            ),
            "naive": matmul.run_naive(a, b, cpu_scale=FIG12B_CPU_SCALE),
            "blocked": matmul.run_blocked(
                a, b, FIG12B_M, cpu_scale=FIG12B_CPU_SCALE
            ),
        }
        for system, result in runs.items():
            series[f"fig12b.s{s}.{system}"] = result.seconds
            sim_total += result.seconds
            curves[system].append(result.seconds)
            checks.op(
                np.allclose(result.c, want),
                f"fig12b s{s} {system}: product differs from A @ B",
            )
        if counters is not None:
            counters.add("messengers.hops_remote", runs["messengers"].hops_remote)
            counters.add("mp.messages", runs["pvm"].messages)
    # Shape claims of Figure 12(b): message passing wins on small
    # blocks, MESSENGERS from the crossover (between 50 and 100) up, and
    # at 300 both beat blocked sequential, which beats naive.
    checks.op(
        curves["pvm"][0] < curves["messengers"][0],
        "fig12b: pvm not faster at the smallest block",
    )
    checks.op(
        curves["messengers"][-1] < curves["pvm"][-1],
        "fig12b: messengers not faster at the largest block",
    )
    crossed = [
        s for s, msgr, pvm in zip(
            FIG12B_BLOCKS, curves["messengers"], curves["pvm"]
        ) if msgr < pvm
    ]
    checks.op(
        bool(crossed) and 20 < crossed[0] <= 100,
        f"fig12b: crossover at {crossed[:1]}, want in (20, 100]",
    )
    checks.op(
        curves["pvm"][-1] < curves["blocked"][-1] < curves["naive"][-1],
        "fig12b: at s=300 want pvm < blocked < naive",
    )
    return series, sim_total


def paper_figs_run(inputs: dict, counted: bool = False) -> Repeat:
    """The paper's artefacts through the app runners: drives ``mp``,
    the daemons' virtual time and ``apps`` at paper scale."""
    checks = _Checks()

    def body(counters):
        fig5, sim5 = _fig5(checks, counters)
        fig12b, sim12 = _fig12b(inputs, checks, counters)
        return {**fig5, **fig12b}, sim5 + sim12

    (series, sim_seconds), counters = _counted(body, counted)
    return Repeat(
        work=len(series),
        sim_seconds=sim_seconds,
        attempted=checks.attempted,
        failed=checks.failed,
        results={"sim_seconds": sim_seconds, **series},
        counters=counters,
        failures=checks.failures,
    )


# -- service_mix -------------------------------------------------------------

SERVICE_HOSTS = 4  # 1 frontend + 3 servers: saturates near 250 rps
SERVICE_RATES = (125.0, 500.0)  # both sides of saturation
SERVICE_SYSTEMS = ("messengers", "pvm")
SERVICE_DURATION_S = 6.0


def service_mix_inputs(seed: int) -> dict:
    """One root seed per (system, rate) run, for the named RNG streams
    its simulated open-loop arrivals, keys and retry jitter are drawn
    from.  Four independent draws, so that the request count of a repeat
    varies less from seed to seed than one shared draw would make it."""
    rng = random.Random(seed)
    return {
        "seeds": {
            (system, rate): rng.randrange(2**31)
            for system in SERVICE_SYSTEMS
            for rate in SERVICE_RATES
        }
    }


def service_mix_run(inputs: dict, counted: bool = False) -> Repeat:
    """Short-lived per-request Messengers and PVM RPCs through the
    degradation stack, below and above saturation."""
    checks = _Checks()

    def body(counters):
        results: dict = {}
        sim_total = 0.0
        work = 0
        for system in SERVICE_SYSTEMS:
            for rate in SERVICE_RATES:
                c = Cluster(config=ClusterConfig(
                    n_hosts=SERVICE_HOSTS,
                    service=ServiceConfig(
                        rate_rps=rate, duration_s=SERVICE_DURATION_S
                    ),
                    resilience=ResiliencePolicy(),
                    seed=inputs["seeds"][system, rate],
                    metrics=counted,
                ))
                # Runs the invariants (no-request-lost, breaker-sanity)
                # live and at the end; a violation raises.
                stats = c.service.run(system)
                outcomes = stats["outcomes"]
                resolved = sum(outcomes.values())
                # One operation per request: it reached a terminal
                # outcome other than ``failed``, exactly once.
                bad = (
                    outcomes["failed"]
                    + stats["open_requests"]
                    + stats["duplicate_resolutions"]
                    + abs(stats["arrivals"] - resolved)
                )
                checks.attempted += stats["arrivals"]
                if bad:
                    checks.failed += min(bad, stats["arrivals"])
                    checks.failures.append(
                        f"service {system}@{rate:g}: {bad} requests lost, "
                        "failed or resolved twice"
                    )
                work += resolved
                sim_total += c.now
                key = f"{system}.r{rate:g}"
                results[f"{key}.sim_seconds"] = c.now
                results[f"{key}.arrivals"] = stats["arrivals"]
                results[f"{key}.goodput_rps"] = stats["goodput_rps"]
                for name, count in outcomes.items():
                    results[f"{key}.{name}"] = count
                for name, ms in stats["latency_ms"].items():
                    results[f"{key}.{name}_ms"] = ms
                if counters is not None:
                    counters.add_cluster(c)
                    counters.add_service(stats)
        return results, sim_total, work

    (results, sim_seconds, work), counters = _counted(body, counted)
    return Repeat(
        work=work,
        sim_seconds=sim_seconds,
        attempted=checks.attempted,
        failed=checks.failed,
        results={"sim_seconds": sim_seconds, **results},
        counters=counters,
        failures=checks.failures,
    )


# -- mail_lossy --------------------------------------------------------------

MAIL_HOSTS = 4
MAIL_PEERS = 12
MAIL_COUNT = 1200
#: Sizing note: at half this spacing the run does not drain — gossip
#: bytes grow with mailbox history, the wire saturates, and the reliable
#: transport retransmits 8 times per dropped packet for a makespan 4.5x
#: the send schedule (at 12 ms: 3 per drop).  At 16 ms it retransmits
#: about once per drop and finishes half a second after the last send;
#: ``netsim.retransmits_per_drop`` reports the ratio.
MAIL_SPACING_S = 0.016
MAIL_BROADCAST_EVERY = 100
MAIL_POLL_INTERVAL_S = 0.01
MAIL_LOSS = 0.05
MAIL_CRASH_HOST = "host2"
MAIL_CRASH_AT = 0.3  # fractions of the send schedule
MAIL_RESTART_AT = 0.4


def mail_lossy_inputs(seed: int) -> dict:
    """A fixed send schedule with seed-drawn recipients; the seed also
    roots the fault plan's drop streams."""
    rng = random.Random(seed)
    return {
        "seed": seed,
        "recipients": [rng.randrange(MAIL_PEERS) for _ in range(MAIL_COUNT)],
    }


def mail_lossy_run(inputs: dict, counted: bool = False) -> Repeat:
    """Replicated mailboxes over the reliable transport under 5% loss
    and one crash/restart: netsim used the other way from ring_hops."""

    def body(counters):
        horizon = MAIL_COUNT * MAIL_SPACING_S
        plan = (
            FaultPlan()
            .drop(MAIL_LOSS)
            .crash(MAIL_CRASH_HOST, at=MAIL_CRASH_AT * horizon)
            .restart(MAIL_CRASH_HOST, at=MAIL_RESTART_AT * horizon)
        )
        c = Cluster(config=ClusterConfig(
            n_hosts=MAIL_HOSTS,
            seed=inputs["seed"],
            faults=plan,
            mailbox=MailboxConfig(
                poll_interval_s=MAIL_POLL_INTERVAL_S,
                replication=ReplicationConfig(factor=2),
            ),
            metrics=counted,
        ))
        reads: list[tuple[str, int]] = []
        for index in range(MAIL_PEERS):
            name = f"peer{index}"
            node = c.add_node(name, daemon=f"host{index % MAIL_HOSTS}")
            c.consumer(
                node, lambda mail, name=name: reads.append((name, mail.id))
            )
        for index, peer in enumerate(inputs["recipients"]):
            at = (index + 1) * MAIL_SPACING_S
            c.schedule(
                at,
                lambda c, i=index, p=peer: c.send_mail(
                    f"peer{p}", {"task": i}, subject=f"task-{i}"
                ),
            )
            if (index + 1) % MAIL_BROADCAST_EVERY == 0:
                c.schedule(
                    at + MAIL_SPACING_S / 2,
                    lambda c, i=index: c.broadcast(
                        ("sync", i), subject="round"
                    ),
                )
        sim_seconds = c.run_to_quiescence()
        service = c.mail
        if counters is not None:
            counters.add_cluster(c)
            counters.add_replication(service.replication.stats())
        return c, service, reads, sim_seconds

    (c, service, reads, sim_seconds), counters = _counted(body, counted)
    checks = _Checks()
    handled: dict[tuple[str, int], int] = {}
    for key in reads:
        handled[key] = handled.get(key, 0) + 1
    for index in range(MAIL_PEERS):
        name = f"peer{index}"
        box = c.mailbox(name)
        digests = set(service.replication.digests(box.node.uid).values())
        for mail in box.mails:
            checks.op(
                mail.status == "read"
                and mail.read_count == 1
                and handled.get((name, mail.id)) == 1
                and len(digests) == 1,
                f"{name} mail {mail.id}: status {mail.status}, read "
                f"{mail.read_count}x, handled "
                f"{handled.get((name, mail.id), 0)}x, "
                f"{len(digests)} replica digests",
            )
    want = MAIL_COUNT + (MAIL_COUNT // MAIL_BROADCAST_EVERY) * MAIL_PEERS
    checks.op(
        checks.attempted == want,
        f"{checks.attempted} mails in mailboxes, want {want}",
    )
    lifecycle = service.lifecycle_counts()
    return Repeat(
        work=len(reads),
        sim_seconds=sim_seconds,
        attempted=checks.attempted,
        failed=checks.failed,
        results={
            "sim_seconds": sim_seconds,
            "read": len(reads),
            "read_digest": service.read_digest(),
            "lifecycle_digest": service.lifecycle_digest(),
            **{f"lifecycle.{k}": v for k, v in lifecycle.items()},
            **{f"faults.{k}": v for k, v in sorted(c.fault_stats.items())},
        },
        counters=counters,
        failures=checks.failures,
    )


#: name -> (make_inputs, run, work unit).  Names are permanent.
WORKLOADS = {
    "ring_hops": (ring_hops_inputs, ring_hops_run, "remote hop"),
    "mcl_compute": (mcl_compute_inputs, mcl_compute_run, "MCL instruction"),
    "paper_figs": (paper_figs_inputs, paper_figs_run, "figure point"),
    "service_mix": (service_mix_inputs, service_mix_run, "request resolved"),
    "mail_lossy": (mail_lossy_inputs, mail_lossy_run, "mail read"),
}
