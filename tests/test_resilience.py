"""Resilience layer: detectors, supervision, invariants, search.

Covers ``repro.resilience`` end to end: detection-driven crash recovery
(no oracle) staying bit-identical on both systems, the
false-suspicion-is-harmless contract, restart policies including
escalation, credit-based transport backpressure, the invariant monitor
failing fast inside the DES with an event excerpt, and the schedule
searcher finding and shrinking violations deterministically.
"""

import hashlib
from types import SimpleNamespace

import pytest

from repro.apps.mandelbrot.kernel import TaskGrid
from repro.apps.mandelbrot.messengers_app import run_messengers
from repro.apps.mandelbrot.pvm_app import run_pvm
from repro.des import SimOverloadError, SimulationError, Simulator
from repro.faults import FaultInjector, FaultPlan
from repro.netsim import Packet, build_lan
from repro.obs import MetricsRegistry
from repro.service.invariants import NoRequestLost, RequestBook
from repro.resilience import (
    InvariantViolation,
    ResiliencePolicy,
    ResilienceSuite,
    ScheduleSearcher,
    SupervisionEscalation,
)
from repro.resilience.invariants import (
    CheckpointIntegrity,
    GvtMonotonic,
    LedgerIdentity,
)
from repro.resilience.supervision import GIVE_UP, RestartPolicy

GRID = TaskGrid(64, 4)
PROCS = 3


def _image_hash(result):
    return hashlib.sha256(result.image.tobytes()).hexdigest()


def _crash_plan(clean_seconds):
    return FaultPlan().crash("host2", at=0.5 * clean_seconds)


class TestResiliencePolicy:
    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(detector="telepathy")

    def test_empty_policy_is_empty(self):
        assert ResiliencePolicy().empty
        assert not ResiliencePolicy(detector="heartbeat").empty
        assert not ResiliencePolicy(flow_credits=4).empty
        assert not ResiliencePolicy(supervision=RestartPolicy()).empty

    def test_detector_parameter_validation(self):
        sim = Simulator()
        network = build_lan(sim, 2)
        with pytest.raises(ValueError):
            ResilienceSuite(network, ResiliencePolicy(
                detector="heartbeat", heartbeat_misses=0,
            ))
        with pytest.raises(ValueError):
            ResilienceSuite(network, ResiliencePolicy(
                detector="phi", phi_threshold=-1.0,
            ))


class TestDetectionRecovery:
    """The tentpole property: recovery driven by *detection*, no oracle,
    still bit-identical to the fault-free run."""

    def test_messengers_recovers_via_heartbeat(self):
        clean = run_messengers(GRID, PROCS)
        policy = ResiliencePolicy(detector="heartbeat")
        faulty = run_messengers(
            GRID, PROCS, faults=_crash_plan(clean.seconds), seed=7,
            resilience=policy,
        )
        assert _image_hash(faulty) == _image_hash(clean)
        stats = faulty.stats["resilience"]
        assert stats["detections"] == 1
        assert stats["false_suspicions"] == 0
        assert 0.0 < stats["detection_latency_mean_s"] <= stats["horizon_s"]
        assert stats["undetected_crashes"] == []

    def test_pvm_recovers_via_phi(self):
        clean = run_pvm(GRID, PROCS)
        policy = ResiliencePolicy(detector="phi")
        faulty = run_pvm(
            GRID, PROCS, faults=_crash_plan(clean.seconds), seed=7,
            resilience=policy,
        )
        assert _image_hash(faulty) == _image_hash(clean)
        stats = faulty.stats["resilience"]
        assert stats["detections"] == 1
        assert stats["undetected_crashes"] == []

    def test_detection_recovery_is_deterministic(self):
        clean = run_messengers(GRID, PROCS)
        plan = _crash_plan(clean.seconds)
        policy = ResiliencePolicy(detector="heartbeat")
        runs = [
            run_messengers(GRID, PROCS, faults=plan, seed=7,
                           resilience=policy)
            for _ in range(2)
        ]
        assert runs[0].seconds == runs[1].seconds
        assert _image_hash(runs[0]) == _image_hash(runs[1])
        assert runs[0].stats["resilience"] == runs[1].stats["resilience"]

    def test_detection_slower_than_oracle_never_wrong(self):
        # The detector changes *when* recovery starts, never the result.
        clean = run_pvm(GRID, PROCS)
        plan = _crash_plan(clean.seconds)
        oracle = run_pvm(GRID, PROCS, faults=plan, seed=7)
        detected = run_pvm(
            GRID, PROCS, faults=plan, seed=7,
            resilience=ResiliencePolicy(detector="heartbeat"),
        )
        assert _image_hash(detected) == _image_hash(oracle)
        assert detected.seconds >= oracle.seconds


class TestFalseSuspicion:
    def test_announce_of_live_host_is_noop(self):
        sim = Simulator()
        network = build_lan(sim, 2)
        assert network.announce_failure("host1") is False
        assert not network.host("host1").crashed

    def test_hair_trigger_phi_cries_wolf_harmlessly(self):
        sim = Simulator()
        network = build_lan(sim, 3)
        suite = ResilienceSuite(
            network,
            ResiliencePolicy(detector="phi", phi_threshold=0.3),
        )

        def keep_alive():
            yield sim.timeout(0.5)

        sim.process(keep_alive())
        sim.run()
        stats = suite.stats()
        assert stats["false_suspicions"] > 0
        assert stats["detections"] == 0
        assert all(not network.host(n).crashed
                   for n in network.host_names)


class TestSupervision:
    def _cluster(self, restart_policy):
        sim = Simulator()
        network = build_lan(sim, 2)
        suite = ResilienceSuite(
            network, ResiliencePolicy(supervision=restart_policy)
        )
        return sim, network, suite

    def test_one_for_one_restarts_crashed_host(self):
        sim, network, suite = self._cluster(RestartPolicy(delay_s=0.01))
        FaultInjector(network, FaultPlan().crash("host1", at=0.05))

        def keep_alive():
            yield sim.timeout(0.2)

        sim.process(keep_alive())
        sim.run()
        assert not network.host("host1").crashed
        assert suite.stats()["supervision"] == {
            "strategy": "one_for_one", "restarts": 1, "gave_up": [],
        }

    def test_give_up_leaves_host_down_past_budget(self):
        sim, network, suite = self._cluster(
            RestartPolicy(strategy=GIVE_UP, max_restarts=1, delay_s=0.01)
        )

        def chaos():
            yield sim.timeout(0.05)
            network.crash_host("host1")  # restart #1 lands at ~0.06
            yield sim.timeout(0.05)
            network.crash_host("host1")  # budget spent: give up
            yield sim.timeout(0.1)

        sim.process(chaos())
        sim.run()
        assert network.host("host1").crashed
        stats = suite.stats()["supervision"]
        assert stats["restarts"] == 1
        assert stats["gave_up"] == ["host1"]

    def test_escalate_raises_past_budget(self):
        sim, network, _ = self._cluster(
            RestartPolicy(strategy="escalate", max_restarts=0)
        )
        FaultInjector(network, FaultPlan().crash("host1", at=0.05))

        def keep_alive():
            yield sim.timeout(0.2)

        sim.process(keep_alive())
        with pytest.raises(SupervisionEscalation) as excinfo:
            sim.run()
        assert excinfo.value.host == "host1"

    def test_restart_policy_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(strategy="all_for_one")
        with pytest.raises(ValueError):
            RestartPolicy(delay_s=-0.1)
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)


class TestFlowControl:
    def test_credit_exhaustion_raises_typed_overload(self):
        sim = Simulator()
        network = build_lan(sim, 2)
        network.set_reliable("data")
        FaultInjector(network, FaultPlan().drop(0.01), seed=2)
        suite = ResilienceSuite(network, ResiliencePolicy(flow_credits=2))

        def packet(i):
            return Packet(src="host0", dst="host1", port="data",
                          payload=i, size_bytes=64)

        network.enqueue(packet(0))
        network.enqueue(packet(1))
        with pytest.raises(SimOverloadError):
            network.enqueue(packet(2))
        assert network.overloads == 1
        assert suite.stats()["overloads"] == 1

        sim.run()  # acks drain and release the credits
        network.enqueue(packet(3))
        sim.run()
        port = network.host("host1").port("data")
        delivered = sorted(p.payload for p in port.items)
        assert delivered == [0, 1, 3]

    def test_flow_control_validation(self):
        sim = Simulator()
        network = build_lan(sim, 2)
        with pytest.raises(ValueError):
            network.set_flow_control(0)


class TestInvariants:
    def test_gvt_monotonic(self):
        values = iter([1.0, 2.0, 1.5])
        inv = GvtMonotonic(lambda: next(values))
        assert inv.check(0.0) is None
        assert inv.check(0.1) is None
        assert "backwards" in inv.check(0.2)

    def test_ledger_identity(self):
        metrics = MetricsRegistry()
        inv = LedgerIdentity(metrics, n_tracks=2)
        metrics.charge("compute", 1.0)
        assert inv.check(1.0) is None
        metrics.charge("wire", 1.5)
        assert "attributes" in inv.check(1.0)

    def test_checkpoint_integrity_catches_aliased_state(self):
        clone = SimpleNamespace(vt=1.0, hops=2, variables={"x": 1})
        checkpoint = SimpleNamespace(clone=clone, prev=None)
        system = SimpleNamespace(_checkpoints={7: checkpoint})
        inv = CheckpointIntegrity(system)
        assert inv.check(0.0) is None
        clone.variables["x"] = 99  # live state aliased into the snapshot
        assert "mutated" in inv.check(0.1)

    def test_monitor_fails_fast_inside_the_des(self):
        sim = Simulator()
        network = build_lan(sim, 2)
        suite = ResilienceSuite(network, ResiliencePolicy())
        book = RequestBook()
        suite.add_invariant(NoRequestLost(book))

        def workload():
            book.create(1, sim.now)
            book.resolve(1, "completed", sim.now)
            yield sim.timeout(0.06)
            suite.note("resolve", rid=2)
            book.resolve(2, "completed", sim.now)  # the bug: never created
            yield sim.timeout(0.2)

        sim.process(workload())
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert excinfo.value.invariant == "no-request-lost"
        assert (0.06, "resolve", {"rid": 2}) in excinfo.value.excerpt
        assert excinfo.value.t < 0.26  # first sweep after the bug, not the end

    def test_check_final_catches_lost_work(self):
        sim = Simulator()
        network = build_lan(sim, 2)
        suite = ResilienceSuite(network, ResiliencePolicy())
        book = RequestBook()
        suite.add_invariant(NoRequestLost(book))
        book.create(1, 0.0)
        sim.run()
        with pytest.raises(InvariantViolation):
            suite.check_final()

    def test_violation_message_carries_excerpt(self):
        err = InvariantViolation(
            "gvt-monotonic", "boom", 1.0,
            excerpt=[(0.5, "crash", {"host": "host1"})],
        )
        assert "recent events" in str(err)
        assert "crash" in str(err)

    def test_suite_reports_invariant_stats(self):
        sim = Simulator()
        network = build_lan(sim, 2)
        suite = ResilienceSuite(network, ResiliencePolicy())
        suite.add_invariant(NoRequestLost(RequestBook()))

        def keep_alive():
            yield sim.timeout(0.2)

        sim.process(keep_alive())
        sim.run()
        suite.check_final()
        stats = suite.stats()
        assert stats["invariants"] == ["no-request-lost"]
        assert stats["invariant_checks"] > 0

    def test_clean_crashy_run_passes_invariants(self):
        # A crash + detection-driven recovery violates nothing.
        clean = run_messengers(GRID, PROCS)
        faulty = run_messengers(
            GRID, PROCS, faults=_crash_plan(clean.seconds), seed=7,
            resilience=ResiliencePolicy(detector="heartbeat"),
        )
        assert _image_hash(faulty) == _image_hash(clean)


def _host1_is_load_bearing(plan, seed):
    """Fake workload: dies iff the schedule crashes host1."""
    for event in plan.sorted_events():
        if event.kind == "crash" and event.host == "host1":
            raise SimulationError("host1 is load-bearing")


class TestScheduleSearcher:
    def test_finds_and_shrinks_seeded_violation(self):
        searcher = ScheduleSearcher(
            _host1_is_load_bearing, ["host0", "host1"], 1.0, seed=3
        )
        report = searcher.search(max_schedules=40, max_depth=2)
        assert not report["clean"]
        assert report["violations"][0]["error"] == "SimulationError"
        assert report["minimal"]["atoms"] == [
            {"kind": "crash", "host": "host1", "at": 0.25}
        ]
        # The serialized reproducer replays verbatim.
        plan = FaultPlan.from_dict(report["minimal"]["plan"])
        with pytest.raises(SimulationError):
            _host1_is_load_bearing(plan, report["minimal"]["seed"])

    def test_shrink_drops_irrelevant_atoms(self):
        searcher = ScheduleSearcher(
            _host1_is_load_bearing, ["host0", "host1"], 1.0
        )
        # crash host0 @0.25, crash host1 @0.25, drop — only one matters.
        atoms = [searcher.atoms[0], searcher.atoms[3], searcher.atoms[6]]
        assert searcher.shrink(atoms) == [searcher.atoms[3]]

    def test_clean_run_explores_the_full_budget(self):
        searcher = ScheduleSearcher(
            lambda plan, seed: None,
            [f"host{i}" for i in range(4)], 2.0,
        )
        report = searcher.search(max_schedules=50, max_depth=2)
        assert report["clean"]
        assert report["schedules_run"] >= 50
        assert report["violations"] == []
        assert report["minimal"] is None

    def test_search_is_deterministic(self):
        reports = [
            ScheduleSearcher(
                _host1_is_load_bearing, ["host0", "host1"], 1.0, seed=11
            ).search(max_schedules=30)
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_searcher_validation(self):
        with pytest.raises(ValueError):
            ScheduleSearcher(lambda p, s: None, [], 1.0, loss_rates=())
        with pytest.raises(ValueError):
            ScheduleSearcher(lambda p, s: None, ["host0"], 0.0)

    def test_real_workload_manager_crash_is_found(self):
        # The PVM workload cannot survive losing the manager host — the
        # searcher should find that violation and report it minimally.
        # (The run dies assembling an image with missing blocks, a
        # ValueError, so the searcher is told to count that type too.)
        grid = TaskGrid(32, 2)
        clean = run_pvm(grid, 2)

        def runner(plan, seed):
            run_pvm(grid, 2, faults=plan, seed=seed)

        searcher = ScheduleSearcher(
            runner, ["host0"], clean.seconds, crash_fractions=(0.5,),
            loss_rates=(),
            violation_types=(SimulationError, ValueError),
        )
        report = searcher.search(max_schedules=5, max_depth=1)
        assert not report["clean"]
        assert report["minimal"]["atoms"][0]["host"] == "host0"


class TestFacadeIntegration:
    def test_cluster_arms_resilience(self):
        import repro

        c = repro.cluster(
            config=repro.ClusterConfig(
                n_hosts=2,
                resilience=repro.ResiliencePolicy(detector="heartbeat"),
            )
        )
        assert c.resilience is not None
        assert c.resilience_stats["detector"] == "heartbeat"

    def test_cluster_without_policy_has_no_suite(self):
        import repro

        c = repro.cluster(2)
        assert c.resilience is None
        assert c.resilience_stats == {}
