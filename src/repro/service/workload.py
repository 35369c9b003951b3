"""Open-system service workloads: Messengers vs PVM-style RPC.

The paper's question — carry the computation to the data, or send
messages to stationary tasks? — restaged as a service mesh under load.
An open-loop traffic generator (arrivals keep coming whether or not
the system keeps up — the regime where overload collapse happens)
drives simulated user requests at a cluster whose first host is the
frontend/ingress and whose remaining hosts serve ``N_KEYS`` logical
data keys:

* **MESSENGERS** — each admitted request injects a Messenger at the
  frontend daemon that hops to its key's node (*wherever it currently
  lives* — crash re-homing and churn move keys under the traffic),
  runs the service computation there, and hops back to the gateway
  node to deliver the response.  The per-request deadline travels as a
  messenger variable and is honored at every stage.
* **PVM** — each admitted request spawns a client task on the frontend
  that sends an RPC to the long-lived server task on the key's
  statically-routed host and waits for the tagged reply, with
  per-attempt timeouts, retry budget, and deadline carried in the
  request (servers shed work whose deadline is no longer feasible;
  the reliable transport stops retransmitting past-deadline packets).

Both paths run the same graceful-degradation stack from
:mod:`repro.service.degradation` and account every request into a
:class:`~repro.service.invariants.RequestBook`, so "no request lost
silently" and "breaker sanity" are checkable invariants — and the
schedule searcher can hunt for fault schedules where shedding breaks
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..des.rng import RngRegistry
from ..obs.registry import Histogram
from .arrivals import iter_arrival_times
from .config import ServiceConfig
from .degradation import AdmissionController, CircuitBreaker, retry_schedule
from .invariants import BreakerSanity, NoRequestLost, RequestBook

__all__ = ["Request", "SERVICE_SCRIPT", "ServiceWorkload"]

#: Unique name of the frontend's response-collection node (MESSENGERS).
GATEWAY_NODE = "svc_gw"

#: Tag carried by every RPC request; replies are tagged with the
#: request id itself (the per-request correlation PVM programs build by
#: convention).
REQ_TAG = 1_000_000

#: The per-request Messenger (one behavior, the paper's idiom): hop to
#: the data, decide/compute there, hop home with the answer.  A request
#: shed at the data node (``svc_work`` returns 0) terminates in place —
#: no wasted return hop.
SERVICE_SCRIPT = """
service(req, key, home, dl, flops) {
    hop(ln = key; ll = virtual);
    if (svc_work(req, dl, flops) == 1) {
        hop(ln = home; ll = virtual);
        svc_done(req, dl);
    }
}
"""

#: Logical data keys spread over the server hosts; each request reads one.
N_KEYS = 24
#: Server CPU per request: 10 ms at the default 20 MFLOPS.
REQUEST_FLOPS = 200e3
#: Request body bytes of one PVM RPC.
PAYLOAD_BYTES = 256
#: Per-request deadline, relative to arrival; propagated across every
#: hop and RPC the request causes.
DEADLINE_S = 0.05
#: Admission control: most admitted requests in flight at once.
MAX_IN_FLIGHT = 16
#: Retry budget: retries per request, the first per-attempt timeout,
#: its growth per attempt and the jitter fraction (from a named stream).
RETRY_BUDGET = 2
RETRY_TIMEOUT_S = 0.015
RETRY_BACKOFF = 2.0
RETRY_JITTER = 0.25
#: Circuit breakers: a window of results whose error rate at or above
#: the threshold opens the breaker for the cooldown; then half-open
#: probes decide between closing and re-opening.
BREAKER_WINDOW = 16
BREAKER_THRESHOLD = 0.5
BREAKER_COOLDOWN_S = 0.06
BREAKER_PROBES = 2

#: Latency buckets: 1 ms resolution through the deadline region, then
#: coarse tails — fine enough for honest p50/p99/p999 under a 50 ms
#: deadline.
LATENCY_BUCKETS = tuple(i / 1000 for i in range(1, 61)) + (
    0.08, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0,
)


@dataclass(frozen=True)
class Request:
    """One simulated user request, fully determined at generation time."""

    rid: int
    t_arrive: float
    key: str
    deadline: float  # absolute virtual time
    retry_timeouts: Tuple[float, ...]


class ServiceWorkload:
    """Drives one service experiment on a :class:`~repro.facade.Cluster`.

    Build via ``cluster.service`` (configured by
    ``ClusterConfig(service=ServiceConfig(...))``) and run with
    :meth:`run` — once per cluster; the workload owns per-run state.
    """

    def __init__(self, cluster, config: Optional[ServiceConfig] = None):
        self.cluster = cluster
        self.config = config if config is not None else ServiceConfig()
        self.book = RequestBook()
        self.admission = AdmissionController(MAX_IN_FLIGHT)
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.rng = RngRegistry(cluster.config.seed)
        self.latency_hist = Histogram("service.latency_s", LATENCY_BUCKETS)
        self.counts: Dict[str, int] = {}
        self._inflight: Dict[int, tuple] = {}
        self._mode: Optional[str] = None
        self._churn: Optional[tuple] = None
        # PVM routing state (filled by _setup_pvm).
        self._frontend: str = cluster.host_names[0]
        self._server_hosts: list[str] = []
        self._server_tids: Dict[str, int] = {}
        self._router: Dict[str, str] = {}
        if cluster.resilience is not None:
            cluster.resilience.add_invariant(NoRequestLost(self.book))
            cluster.resilience.add_invariant(BreakerSanity(self.breakers))

    # -- shared plumbing -----------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def iter_requests(self):
        """The request stream, generated on demand from named RNG streams.

        Three independent streams — arrival instants, key choice, retry
        jitter — so perturbing one (e.g. sweeping the arrival shape)
        never re-randomizes the others.  Requests are drawn lazily, so
        arrival state is O(1) however long the run.
        """
        cfg = self.config
        times = iter_arrival_times(cfg, self.rng.stream("service.arrivals"))
        key_rng = self.rng.stream("service.keys")
        retry_rng = self.rng.stream("service.retry")
        for rid, t in enumerate(times, start=1):
            key = f"key{key_rng.randrange(N_KEYS)}"
            if cfg.degradation:
                timeouts = retry_schedule(
                    RETRY_BUDGET,
                    RETRY_TIMEOUT_S,
                    RETRY_BACKOFF,
                    RETRY_JITTER,
                    retry_rng,
                )
            else:
                # No retries, no early timeout: one attempt that waits
                # out the whole deadline.
                timeouts = (DEADLINE_S,)
            yield Request(rid, t, key, t + DEADLINE_S, timeouts)

    def breaker_for(self, target: str) -> CircuitBreaker:
        breaker = self.breakers.get(target)
        if breaker is None:
            breaker = CircuitBreaker(
                self.cluster.sim,
                target,
                window=BREAKER_WINDOW,
                threshold=BREAKER_THRESHOLD,
                cooldown_s=BREAKER_COOLDOWN_S,
                probes=BREAKER_PROBES,
                metrics=self.cluster.metrics,
            )
            self.breakers[target] = breaker
        return breaker

    def _admit(self, request: Request, target: Optional[str]) -> bool:
        """Ingress gate: admission control, then the target's breaker.

        Returns True when the request may proceed; otherwise it has
        already been resolved with a typed rejection.
        """
        now = self.cluster.sim.now
        if not self.config.degradation:
            self._inflight[request.rid] = (False, target, now)
            return True
        if not self.admission.try_admit():
            self.book.resolve(request.rid, "rejected_admission", now)
            return False
        if target is not None:
            breaker = self.breaker_for(target)
            if not breaker.allow():
                self.admission.release()
                self.book.resolve(request.rid, "rejected_breaker", now)
                return False
        self._inflight[request.rid] = (True, target, now)
        return True

    def _finish(self, rid: int, outcome: str) -> None:
        """Record a terminal state; idempotent under crash replay."""
        now = self.cluster.sim.now
        entry = self._inflight.pop(rid, None)
        first = self.book.resolve(rid, outcome, now)
        if entry is None:
            return  # replayed terminal — outcome bookkeeping only
        admitted, target, t_start = entry
        latency = now - t_start
        if admitted:
            self.admission.release()
        if self.config.degradation and target is not None:
            ok = outcome == "completed"
            self.breaker_for(target).record(
                ok, latency if ok else None
            )
        if first and outcome == "completed":
            self.latency_hist.observe(latency)
            metrics = self.cluster.metrics
            if metrics is not None:
                metrics.observe("service.latency_s", latency)

    def schedule_churn(
        self,
        join_at_s: float,
        leave_at_s: float,
        leave: str = "host1",
    ) -> None:
        """Arrange mid-run churn: a host joins, then ``leave`` drains.

        MESSENGERS: the leaver's key nodes re-home live (requests keep
        finding them by name).  PVM: the leaver's server is killed and
        its keys are re-routed by the workload's static router — the
        operator-visible remap message passing needs where Messengers
        just follow the node.
        """
        if leave_at_s <= join_at_s:
            raise ValueError("leave must be scheduled after join")
        self._churn = (join_at_s, leave_at_s, leave)

    # -- MESSENGERS ----------------------------------------------------------

    def run_messengers(self) -> dict:
        """Run the experiment with per-request migrating Messengers."""
        if self._mode is not None:
            raise RuntimeError("a ServiceWorkload runs exactly once")
        self._mode = "messengers"
        cluster = self.cluster
        system = cluster.messengers
        servers = cluster.host_names[1:] or cluster.host_names[:1]
        cluster.add_node(GATEWAY_NODE, self._frontend)
        for index in range(N_KEYS):
            cluster.add_node(
                f"key{index}", servers[index % len(servers)]
            )
        self._register_natives(system)
        if self._churn is not None:
            join_at, leave_at, leaver = self._churn
            cluster.schedule(join_at, lambda c: c.join_host())
            cluster.schedule(leave_at, lambda c: c.leave_host(leaver))
        program = system.compile(SERVICE_SCRIPT)
        cluster.sim.process(
            self._drive_messengers(self.iter_requests(), program)
        )
        cluster.run_to_quiescence()
        self._final_check()
        return self.stats()

    def _register_natives(self, system) -> None:
        workload = self
        cfg = self.config
        costs = self.cluster.costs
        service_estimate = costs.compute_seconds(
            REQUEST_FLOPS, cpu_scale=self.cluster.config.cpu_scale
        )

        @system.natives.register
        def svc_work(env, req, dl, flops):
            # Deadline propagation: the deadline hopped here with the
            # messenger; shed dead-on-arrival work at the data node.
            if cfg.degradation and env.now + service_estimate > dl:
                workload.count("node_shed")
                workload._finish(int(req), "expired")
                return 0
            env.charge_flops(flops)
            return 1

        @system.natives.register
        def svc_done(env, req, dl):
            outcome = "completed" if env.now <= dl else "expired"
            workload._finish(int(req), outcome)
            return 0

    def _drive_messengers(self, requests, program):
        cluster = self.cluster
        sim = cluster.sim
        system = cluster.messengers
        for request in requests:
            delay = request.t_arrive - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            self.book.create(request.rid, sim.now)
            nodes = sorted(
                system.logical.find_named(request.key),
                key=lambda n: n.uid,
            )
            target = nodes[0].daemon if nodes else None
            if not self._admit(request, target):
                continue
            system.inject(
                program,
                args=(
                    request.rid,
                    request.key,
                    GATEWAY_NODE,
                    request.deadline,
                    REQUEST_FLOPS,
                ),
                daemon=self._frontend,
            )
            self.count("injected")

    # -- PVM -----------------------------------------------------------------

    def run_pvm(self) -> dict:
        """Run the experiment with stationary tasks + RPC (the baseline)."""
        if self._mode is not None:
            raise RuntimeError("a ServiceWorkload runs exactly once")
        self._mode = "pvm"
        cluster = self.cluster
        self._server_hosts = list(cluster.host_names[1:]) or \
            list(cluster.host_names[:1])
        self._router = {
            f"key{i}": self._server_hosts[i % len(self._server_hosts)]
            for i in range(N_KEYS)
        }
        for host in self._server_hosts:
            self._start_server(host)
        cluster.network.add_restart_listener(self._on_host_restart)
        if self._churn is not None:
            join_at, leave_at, leaver = self._churn
            cluster.schedule(join_at, self._pvm_join)
            cluster.schedule(
                leave_at, lambda c: self._pvm_drain(leaver)
            )
        cluster.sim.process(self._drive_pvm(self.iter_requests()))
        cluster.sim.run()
        self._final_check()
        return self.stats()

    def _start_server(self, host: str) -> None:
        tid = self.cluster.mp.spawn(self._server_behavior, host=host)
        self._server_tids[host] = tid

    def _server_behavior(self, ctx):
        cfg = self.config
        costs = self.cluster.costs
        service_estimate = costs.compute_seconds(
            REQUEST_FLOPS, cpu_scale=self.cluster.config.cpu_scale
        )
        while True:
            msg = yield from ctx.recv(tag=REQ_TAG)
            rid, client_tid, deadline = msg.buffer.unpack_object()
            # Deadline propagation across the RPC: the server honors
            # the client's deadline, shedding infeasible work instead
            # of burning CPU on a reply nobody can use.
            if cfg.degradation and ctx.now + service_estimate > deadline:
                self.count("server_shed")
                continue
            yield from ctx.compute(REQUEST_FLOPS)
            yield from ctx.send(
                client_tid, rid, tag=rid, deadline_s=deadline
            )

    def _client_behavior(self, ctx, request: Request):
        from ..mp.buffers import PackBuffer

        for timeout in request.retry_timeouts:
            remaining = request.deadline - ctx.now
            if remaining <= 0:
                break
            host = self._router.get(request.key)
            tid = self._server_tids.get(host) if host is not None else None
            if tid is None:
                break  # no live server for this key right now
            buf = PackBuffer()
            buf.pack_object((request.rid, ctx.tid, request.deadline))
            buf.pack_bytes(bytes(PAYLOAD_BYTES))
            yield from ctx.send(
                tid, buf, tag=REQ_TAG, deadline_s=request.deadline
            )
            self.count("rpcs_sent")
            msg = yield from ctx.recv_timeout(
                min(timeout, remaining), tag=request.rid
            )
            if msg is not None:
                self._finish(
                    request.rid,
                    "completed"
                    if ctx.now <= request.deadline
                    else "expired",
                )
                return
            self.count("rpc_timeouts")
        self._finish(
            request.rid,
            "expired" if ctx.now >= request.deadline else "failed",
        )

    def _drive_pvm(self, requests):
        cluster = self.cluster
        sim = cluster.sim
        system = cluster.mp
        client_processes = []
        for request in requests:
            delay = request.t_arrive - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            self.book.create(request.rid, sim.now)
            target = self._router.get(request.key)
            if not self._admit(request, target):
                continue
            tid = system.spawn(
                self._client_behavior, request, host=self._frontend
            )
            task = system.task(tid)
            if task.process is not None:
                client_processes.append(task.process)
        if client_processes:
            yield sim.all_of(client_processes)
        # The run is over; long-lived servers must not strand the DES
        # blocked on recv (that would trip the deadlock detector).
        for host in sorted(self._server_tids):
            tid = self._server_tids[host]
            if tid is not None:
                system.kill(tid)

    def _on_host_restart(self, host) -> None:
        if self._mode != "pvm":
            return
        name = host.name
        if name not in self._server_hosts:
            return
        tid = self._server_tids.get(name)
        if tid is not None and not self.cluster.mp.task(tid).exited:
            return
        self._start_server(name)
        self.count("servers_respawned")

    def _pvm_join(self, cluster) -> None:
        from ..netsim import Host

        index = len(cluster.network)
        taken = set(cluster.network.host_names)
        while f"host{index}" in taken:
            index += 1
        name = f"host{index}"
        host = Host(
            cluster.sim, name, cluster.costs,
            cpu_scale=cluster.config.cpu_scale,
        )
        cluster.network.add_host(host)
        cluster.mp.attach_host(name)
        self._server_hosts.append(name)
        self._start_server(name)
        self.count("servers_joined")

    def _pvm_drain(self, host_name: str) -> None:
        tid = self._server_tids.pop(host_name, None)
        if host_name in self._server_hosts:
            self._server_hosts.remove(host_name)
        live = self._server_hosts
        if live:
            for position, key in enumerate(sorted(self._router)):
                if self._router[key] == host_name:
                    self._router[key] = live[position % len(live)]
        if tid is not None:
            self.cluster.mp.kill(tid)
        self.count("servers_drained")

    # -- results -------------------------------------------------------------

    def run(self, system: str = "messengers") -> dict:
        """Dispatch: ``"messengers"`` or ``"pvm"``."""
        if system == "messengers":
            return self.run_messengers()
        if system in ("pvm", "mp"):
            return self.run_pvm()
        raise ValueError(f"unknown system {system!r}")

    def _final_check(self) -> None:
        if self.cluster.resilience is not None:
            self.cluster.resilience.check_final()

    def stats(self) -> dict:
        """JSON-friendly results of the run (stable key order)."""
        cfg = self.config
        outcome_counts = self.book.outcome_counts()
        goodput = outcome_counts["completed"] / cfg.duration_s
        offered = len(self.book.created) / cfg.duration_s
        hist = self.latency_hist
        metrics = self.cluster.metrics
        if metrics is not None:
            metrics.gauge("service.offered_rps").set(round(offered, 2))
            metrics.gauge("service.goodput_rps").set(round(goodput, 2))
        return {
            "system": self._mode,
            "arrivals": len(self.book.created),
            "offered_rps": round(offered, 2),
            "goodput_rps": round(goodput, 2),
            "outcomes": outcome_counts,
            "open_requests": len(self.book.open_requests),
            "duplicate_resolutions": self.book.duplicate_resolutions,
            "latency_ms": {
                "p50": round(hist.quantile(0.5) * 1e3, 3),
                "p99": round(hist.quantile(0.99) * 1e3, 3),
                "p999": round(hist.quantile(0.999) * 1e3, 3),
            },
            "admission": {
                "admitted": self.admission.admitted,
                "rejected": self.admission.rejected,
            },
            "breakers": {
                target: {
                    "state": breaker.state,
                    "opened": breaker.times_opened,
                    "fast_fails": breaker.fast_fails,
                }
                for target, breaker in sorted(self.breakers.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }
