"""repro.service — graceful degradation under open-system load.

The acceptance bar from the service issue: open-loop arrivals
(Poisson/bursty/diurnal) on named RNG streams; per-request deadlines
propagated across hops and RPCs; retry budgets with deterministic
jitter; per-target circuit breakers walking only legal state edges;
admission control converting overload into typed rejections; every
request reaching exactly one terminal state under faults and churn;
bit-identical runs for a given seed; and the degradation invariants
clean under a 100+ schedule search.
"""

import dataclasses

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    MetricsRegistry,
    ResiliencePolicy,
)
from repro.des.rng import RngRegistry
from repro.perf import hashing_all_simulators
from repro.service import ServiceConfig, ServiceWorkload
from repro.service.arrivals import iter_arrival_times
from repro.service.degradation import (
    CLOSED,
    HALF_OPEN,
    LEGAL_TRANSITIONS,
    OPEN,
    AdmissionController,
    CircuitBreaker,
    retry_schedule,
)
from repro.service.invariants import BreakerSanity, NoRequestLost, RequestBook


def build(rate=150.0, duration=0.25, degradation=True, plan=None, seed=3,
          resilience=True, arrivals="poisson"):
    return Cluster(config=ClusterConfig(
        n_hosts=4,
        service=ServiceConfig(
            arrivals=arrivals,
            rate_rps=rate,
            duration_s=duration,
            degradation=degradation,
        ),
        faults=plan,
        seed=seed,
        resilience=ResiliencePolicy() if resilience else None,
    ))


class FakeSim:
    """A stand-in clock for unit-testing the breaker state machine."""

    def __init__(self):
        self.now = 0.0


# ---------------------------------------------------------------------------
# arrivals


class TestArrivals:
    def _times(self, kind, seed=0, rate=400.0, duration=2.0):
        config = ServiceConfig(
            arrivals=kind, rate_rps=rate, duration_s=duration
        )
        rng = RngRegistry(seed).stream("service.arrivals")
        return list(iter_arrival_times(config, rng))

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_deterministic_and_sorted(self, kind):
        first = self._times(kind)
        second = self._times(kind)
        assert first == second
        assert first == sorted(first)
        assert all(0.0 <= t < 2.0 for t in first)

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_mean_rate_is_preserved(self, kind):
        # Thinning is mean-preserving: all three shapes offer the same
        # average load, the knobs only move traffic around in time.
        counts = [
            len(self._times(kind, seed=seed, rate=400.0, duration=2.0))
            for seed in range(5)
        ]
        mean = sum(counts) / len(counts)
        assert mean == pytest.approx(800, rel=0.1)

    def test_bursty_actually_bursts(self):
        config = ServiceConfig(
            arrivals="bursty", rate_rps=400.0, duration_s=2.0,
        )
        rng = RngRegistry(0).stream("service.arrivals")
        times = list(iter_arrival_times(config, rng))
        period = 0.12
        on = sum(1 for t in times if (t % period) < 0.06)
        off = len(times) - on
        assert on > 2 * off  # 3x rate on the on-phase

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            ServiceConfig(arrivals="adversarial")


# ---------------------------------------------------------------------------
# retry schedules (satellite: backoff + jitter determinism)


class TestRetrySchedule:
    def test_same_stream_replays_identical_schedules(self):
        draws_a = [
            retry_schedule(2, 0.01, 2.0, 0.25,
                           RngRegistry(11).stream("service.retry"))
            for _ in range(1)
        ]
        # Many requests drawing from one stream: the whole sequence of
        # schedules must replay bit-for-bit from the same root seed.
        def sequence():
            rng = RngRegistry(11).stream("service.retry")
            return [
                retry_schedule(2, 0.01, 2.0, 0.25, rng)
                for _ in range(50)
            ]

        assert sequence() == sequence()
        assert draws_a[0] == sequence()[0]

    def test_distinct_named_streams_do_not_alias(self):
        registry = RngRegistry(11)
        retry = registry.stream("service.retry")
        arrivals = registry.stream("service.arrivals")
        assert [retry.random() for _ in range(20)] != [
            arrivals.random() for _ in range(20)
        ]

    def test_backoff_and_jitter_bounds(self):
        rng = RngRegistry(0).stream("service.retry")
        schedule = retry_schedule(3, 0.01, 2.0, 0.25, rng)
        assert len(schedule) == 4  # budget + 1 attempts
        for attempt, timeout in enumerate(schedule):
            base = 0.01 * 2.0 ** attempt
            assert base <= timeout <= base * 1.25

    def test_zero_jitter_is_pure_exponential(self):
        rng = RngRegistry(0).stream("service.retry")
        schedule = retry_schedule(2, 0.01, 2.0, 0.0, rng)
        assert schedule == pytest.approx((0.01, 0.02, 0.04))

    def test_validation(self):
        rng = RngRegistry(0).stream("service.retry")
        with pytest.raises(ValueError):
            retry_schedule(-1, 0.01, 2.0, 0.25, rng)
        with pytest.raises(ValueError):
            retry_schedule(2, 0.0, 2.0, 0.25, rng)


# ---------------------------------------------------------------------------
# admission control


class TestAdmission:
    def test_bounded_admission(self):
        admission = AdmissionController(2)
        assert admission.try_admit() and admission.try_admit()
        assert not admission.try_admit()  # typed rejection, O(1)
        assert (admission.admitted, admission.rejected) == (2, 1)
        admission.release()
        assert admission.try_admit()

    def test_unmatched_release_raises(self):
        admission = AdmissionController(1)
        with pytest.raises(RuntimeError, match="without a matching admit"):
            admission.release()


# ---------------------------------------------------------------------------
# circuit breakers


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        sim = FakeSim()
        kwargs.setdefault("window", 4)
        kwargs.setdefault("threshold", 0.5)
        kwargs.setdefault("cooldown_s", 0.1)
        kwargs.setdefault("probes", 2)
        return sim, CircuitBreaker(sim, "host1", **kwargs)

    def _trip(self, sim, breaker):
        for _ in range(4):
            assert breaker.allow()
            breaker.record(False)

    def test_window_of_failures_opens(self):
        sim, breaker = self._breaker()
        self._trip(sim, breaker)
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.fast_fails == 1

    def test_half_open_probes_then_close(self):
        sim, breaker = self._breaker()
        self._trip(sim, breaker)
        sim.now = 0.2  # past the cooldown
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
        assert not breaker.allow()  # probe quota exhausted
        breaker.record(True)
        breaker.record(True)
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens(self):
        sim, breaker = self._breaker()
        self._trip(sim, breaker)
        sim.now = 0.2
        assert breaker.allow()
        breaker.record(False)
        assert breaker.state == OPEN
        assert breaker.opened_at == 0.2

    def test_stale_results_while_open_are_ignored(self):
        sim, breaker = self._breaker()
        self._trip(sim, breaker)
        breaker.record(True)  # a straggler from before the trip
        assert breaker.state == OPEN

    def test_history_only_walks_legal_edges(self):
        sim, breaker = self._breaker()
        self._trip(sim, breaker)
        sim.now = 0.2
        breaker.allow()
        breaker.record(False)
        sim.now = 0.4
        breaker.allow()
        breaker.record(True)
        breaker.record(True)
        states = [state for _t, state in breaker.transitions]
        assert states[0] == CLOSED
        for edge in zip(states, states[1:]):
            assert edge in LEGAL_TRANSITIONS
        assert breaker.times_opened == 2

    def test_gauges_feed_the_decision(self):
        registry = MetricsRegistry()
        sim = FakeSim()
        breaker = CircuitBreaker(
            sim, "host2", window=2, threshold=0.5, metrics=registry
        )
        breaker.record(False)
        breaker.record(False)
        snapshot = registry.snapshot()
        assert snapshot["service.breaker.host2.state"] == 1  # open
        assert snapshot["service.breaker.host2.error_rate"] == 1.0


# ---------------------------------------------------------------------------
# request book + invariants


class TestRequestBook:
    def test_first_writer_wins(self):
        book = RequestBook()
        book.create(1, 0.0)
        assert book.resolve(1, "completed", 0.1)
        assert not book.resolve(1, "expired", 0.2)  # crash replay
        assert book.outcomes[1][0] == "completed"
        assert book.duplicate_resolutions == 1

    def test_unknown_outcome_rejected(self):
        book = RequestBook()
        with pytest.raises(ValueError, match="unknown outcome"):
            book.resolve(1, "lost-in-the-mail", 0.0)

    def test_no_request_lost_flags_orphans_and_open_requests(self):
        book = RequestBook()
        invariant = NoRequestLost(book)
        book.create(1, 0.0)
        assert invariant.check(0.0) is None
        assert "silently lost" in invariant.check_final(1.0)
        book.resolve(1, "completed", 0.5)
        assert invariant.check_final(1.0) is None
        book.resolve(99, "failed", 0.6)  # never created
        assert "never created" in invariant.check(1.0)

    def test_breaker_sanity_catches_illegal_edges(self):
        sim = FakeSim()
        breaker = CircuitBreaker(sim, "host1", window=2)
        invariant = BreakerSanity({"host1": breaker})
        assert invariant.check(0.0) is None
        breaker.transitions.append((0.1, HALF_OPEN))  # closed->half_open
        breaker.state = HALF_OPEN
        assert "illegal transition" in invariant.check(0.2)


# ---------------------------------------------------------------------------
# the workload end to end


class TestWorkloadRuns:
    @pytest.mark.parametrize("system", ["messengers", "pvm"])
    def test_below_saturation_completes_everything(self, system):
        cluster = build()
        stats = cluster.service.run(system)
        outcomes = stats["outcomes"]
        assert stats["arrivals"] > 0
        assert sum(outcomes.values()) == stats["arrivals"]
        assert outcomes["completed"] > 0.9 * stats["arrivals"]
        assert stats["open_requests"] == 0
        assert stats["goodput_rps"] > 0
        assert stats["latency_ms"]["p50"] > 0

    @pytest.mark.parametrize("system", ["messengers", "pvm"])
    def test_overload_yields_typed_rejections(self, system):
        cluster = build(rate=600.0)
        stats = cluster.service.run(system)
        outcomes = stats["outcomes"]
        assert sum(outcomes.values()) == stats["arrivals"]
        rejected = (
            outcomes["rejected_admission"] + outcomes["rejected_breaker"]
        )
        assert rejected > 0  # overload became typed rejections
        assert outcomes["completed"] > 0  # ...but not an outage

    @pytest.mark.parametrize("system", ["messengers", "pvm"])
    def test_degradation_off_still_terminates_cleanly(self, system):
        cluster = build(rate=600.0, degradation=False)
        stats = cluster.service.run(system)
        outcomes = stats["outcomes"]
        assert sum(outcomes.values()) == stats["arrivals"]
        assert outcomes["rejected_admission"] == 0
        assert outcomes["rejected_breaker"] == 0
        assert stats["open_requests"] == 0

    @pytest.mark.parametrize("system", ["messengers", "pvm"])
    def test_loss_and_crash_lose_no_request(self, system):
        plan = (
            FaultPlan()
            .drop(0.05)
            .crash("host2", at=0.08)
            .restart("host2", at=0.16)
        )
        cluster = build(plan=plan)
        stats = cluster.service.run(system)
        assert sum(stats["outcomes"].values()) == stats["arrivals"]
        assert stats["open_requests"] == 0
        assert stats["outcomes"]["completed"] > 0

    @pytest.mark.parametrize("system", ["messengers", "pvm"])
    def test_churn_loses_no_request(self, system):
        cluster = build()
        cluster.service.schedule_churn(0.08, 0.16, "host1")
        stats = cluster.service.run(system)
        assert sum(stats["outcomes"].values()) == stats["arrivals"]
        assert stats["open_requests"] == 0

    @pytest.mark.parametrize("system", ["messengers", "pvm"])
    def test_bit_identical_across_reruns(self, system):
        def run():
            plan = FaultPlan().drop(0.05)
            with hashing_all_simulators() as hasher:
                cluster = build(plan=plan)
                stats = cluster.service.run(system)
            return stats, hasher.hexdigest()

        assert run() == run()

    def test_different_seed_is_a_different_schedule(self):
        def run(seed):
            with hashing_all_simulators() as hasher:
                build(seed=seed).service.run("messengers")
            return hasher.hexdigest()

        assert run(3) != run(4)

    def test_deadline_aware_transport_stops_dead_retransmits(self):
        # Under loss, PVM RPCs carry their deadline down to the
        # reliable channel: once it passes, the retransmitter gives up
        # instead of hammering the wire with undeliverable traffic.
        plan = FaultPlan().drop(0.25)
        cluster = build(rate=250.0, plan=plan, seed=5)
        cluster.service.run("pvm")
        assert cluster.fault_stats.get("retransmits_deadline_expired", 0) > 0

    def test_workload_runs_exactly_once(self):
        cluster = build()
        cluster.service.run("messengers")
        with pytest.raises(RuntimeError, match="exactly once"):
            cluster.service.run("pvm")

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            build().service.run("mpi")


# ---------------------------------------------------------------------------
# facade wiring


class TestFacade:
    def test_cluster_config_carries_service_config(self):
        config = ServiceConfig(rate_rps=50.0, duration_s=0.1)
        cluster = Cluster(config=ClusterConfig(service=config))
        assert cluster.service.config is config

    def test_default_service_config_when_unset(self):
        cluster = Cluster(config=ClusterConfig())
        assert isinstance(cluster.service, ServiceWorkload)
        assert cluster.service.config == ServiceConfig()

    def test_service_layer_shows_in_repr(self):
        cluster = Cluster(config=ClusterConfig())
        assert "service" not in repr(cluster)
        cluster.service  # materialize
        assert "service" in repr(cluster)

    def test_with_override_helper(self):
        # dataclasses.replace is the one way to derive a variant.
        config = ServiceConfig()
        assert dataclasses.replace(config, rate_rps=9.0).rate_rps == 9.0
        assert config.rate_rps == 125.0  # frozen original untouched

    def test_latency_quantiles_are_deterministic(self):
        # Two identically-seeded runs report identical quantiles.
        def run():
            cluster = Cluster(config=ClusterConfig(
                n_hosts=4,
                seed=3,
                service=ServiceConfig(rate_rps=150.0, duration_s=0.25),
            ))
            return cluster.service.run("messengers")

        first, second = run(), run()
        assert first["latency_ms"] == second["latency_ms"]
        assert first["latency_ms"]["p50"] > 0
        assert first == second


# ---------------------------------------------------------------------------
# schedule search over the degradation invariants


class TestScheduleSearch:
    def test_invariants_clean_over_100_schedules(self):
        from repro.bench.service_experiments import run_degradation_search

        report = run_degradation_search(max_schedules=120)
        assert report["clean"], report["violations"]
        assert report["schedules_run"] >= 100

    def test_searcher_terminates_on_exhausted_vocabulary(self):
        # A vocabulary of 4 schedules cannot spin forever chasing a
        # 50-schedule budget.
        calls = []

        def runner(plan, seed):
            calls.append(plan)

        from repro.resilience import ScheduleSearcher

        searcher = ScheduleSearcher(
            runner, hosts=["host1"], horizon_s=1.0,
            crash_fractions=(0.5,), loss_rates=(0.05,),
        )
        report = searcher.search(max_schedules=50)
        assert report["clean"]
        assert report["schedules_run"] < 50
