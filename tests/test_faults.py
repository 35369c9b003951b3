"""Fault injection, reliable transport, and crash recovery.

Covers the ``repro.faults`` layer end to end: plan validation, the
ack/seq/retransmit channel, partitions, host crash/restart (including
the transmit-pump idempotence regression), deadlock diagnostics,
pvm_notify, MESSENGERS checkpoint/re-dispatch recovery, Time-Warp LP
kills, and the determinism contract: same seed + same plan ⇒ same run.
"""

import dataclasses
import hashlib

import pytest

from repro import Cluster, ClusterConfig

from repro.apps.mandelbrot.kernel import TaskGrid
from repro.apps.mandelbrot.messengers_app import run_messengers
from repro.apps.mandelbrot.pvm_app import run_pvm
from repro.des import SimDeadlockError, SimulationError, Simulator
from repro.faults import FaultInjector, FaultPlan, FaultPlanError
from repro.faults.plan import FaultEvent
from repro.messengers import build_ring
from repro.netsim import DEFAULT_COSTS, HostCrashedError, Packet, build_lan


def _image_hash(result):
    return hashlib.sha256(result.image.tobytes()).hexdigest()


class TestFaultPlan:
    def test_builder_is_fluent_and_queryable(self):
        plan = (
            FaultPlan()
            .drop(0.1)
            .drop(0.5, src="host1")
            .duplicate(0.2, dst="host2")
            .corrupt(0.05, src="host0", dst="host3")
            .crash("host2", at=1.0)
            .restart("host2", at=2.0)
        )
        # Most specific key wins.
        assert plan.drop_rate("host1", "host9") == 0.5
        assert plan.drop_rate("host9", "host9") == 0.1
        assert plan.duplicate_rate("host9", "host2") == 0.2
        assert plan.corrupt_rate("host0", "host3") == 0.05
        assert plan.corrupt_rate("host0", "host4") == 0.0
        assert plan.lossy and plan.can_crash and not plan.empty

    def test_zero_rate_clears_and_empty_plan_is_empty(self):
        plan = FaultPlan().drop(0.1).drop(0.0)
        assert plan.empty and not plan.lossy and not plan.can_crash

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().drop(1.5)
        with pytest.raises(ValueError):
            FaultEvent(at=-1.0, kind="crash", host="h")
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="meteor", host="h")
        with pytest.raises(ValueError):
            FaultPlan().hang("h", at=0.0, duration=0.0)

    def test_events_sorted_by_time(self):
        plan = FaultPlan().restart("h", at=2.0).crash("h", at=1.0)
        assert [e.kind for e in plan.sorted_events()] == [
            "crash", "restart",
        ]


class TestFaultPlanValidation:
    """Schedule-level checks: typed errors at arm time, not mid-run."""

    def test_rates_out_of_range_rejected_at_build(self):
        with pytest.raises(ValueError):
            FaultPlan().drop(-0.1)
        with pytest.raises(ValueError):
            FaultPlan().duplicate(1.5)
        with pytest.raises(ValueError):
            FaultPlan().corrupt(2.0, src="host0")

    def test_crash_of_unknown_host_rejected_at_arm_time(self):
        sim = Simulator()
        network = build_lan(sim, 2)  # host0, host1
        plan = FaultPlan().crash("host9", at=1.0)
        with pytest.raises(FaultPlanError, match="unknown host 'host9'"):
            FaultInjector(network, plan)

    def test_rate_key_with_unknown_host_rejected_at_arm_time(self):
        sim = Simulator()
        network = build_lan(sim, 2)
        plan = FaultPlan().drop(0.1, dst="nosuch")
        with pytest.raises(FaultPlanError, match="drop rate dst"):
            FaultInjector(network, plan)

    def test_overlapping_partition_intervals_rejected(self):
        plan = (
            FaultPlan()
            .partition("a", "b", at=1.0)
            .partition("b", "a", at=2.0)  # same link, still cut
            .heal("a", "b", at=3.0)
        )
        with pytest.raises(FaultPlanError, match="overlapping"):
            plan.validate()

    def test_heal_of_unpartitioned_link_rejected(self):
        with pytest.raises(FaultPlanError, match="not\\s+partitioned"):
            FaultPlan().heal("a", "b", at=1.0).validate()

    def test_heal_before_its_partition_rejected(self):
        # Events are checked in virtual-time order, so a heal that
        # precedes its cut is a heal of an uncut link.
        plan = (
            FaultPlan()
            .heal("a", "b", at=1.0)
            .partition("a", "b", at=2.0)
        )
        with pytest.raises(FaultPlanError, match="not\\s+partitioned"):
            plan.validate()

    def test_unhealed_then_recut_across_windows_rejected(self):
        plan = (
            FaultPlan()
            .partition("a", "b", at=1.0)
            .heal("a", "b", at=2.0)
            .partition("a", "b", at=3.0)
            .partition("a", "b", at=4.0)  # window 2 never healed
        )
        with pytest.raises(FaultPlanError, match="overlapping"):
            plan.validate()

    def test_disjoint_partition_windows_are_legal(self):
        plan = (
            FaultPlan()
            .partition("a", "b", at=1.0)
            .heal("a", "b", at=2.0)
            .partition("a", "b", at=3.0)
            .heal("b", "a", at=4.0)
        )
        assert plan.validate() is plan

    def test_none_endpoints_rejected(self):
        with pytest.raises(FaultPlanError, match="concrete host"):
            FaultPlan().partition("a", None, at=1.0).validate()
        with pytest.raises(FaultPlanError, match="concrete host"):
            FaultPlan().heal(None, "b", at=1.0).validate()
        with pytest.raises(FaultPlanError, match="concrete host"):
            FaultPlan().crash(None, at=1.0).validate()

    def test_self_partition_rejected(self):
        with pytest.raises(FaultPlanError, match="itself"):
            FaultPlan().partition("a", "a", at=1.0).validate()

    def test_restart_without_crash_rejected(self):
        with pytest.raises(FaultPlanError, match="never crashed"):
            FaultPlan().restart("h", at=1.0).validate()

    def test_double_crash_without_restart_rejected(self):
        plan = FaultPlan().crash("h", at=1.0).crash("h", at=2.0)
        with pytest.raises(FaultPlanError, match="intervening restart"):
            plan.validate()

    def test_crash_restart_crash_is_legal(self):
        plan = (
            FaultPlan()
            .crash("h", at=1.0)
            .restart("h", at=2.0)
            .crash("h", at=3.0)
        )
        assert plan.validate() is plan

    def test_round_trip_through_dict(self):
        plan = (
            FaultPlan()
            .drop(0.1)
            .drop(0.4, src="host1")
            .duplicate(0.2, dst="host2")
            .corrupt(0.05, src="host0", dst="host3")
            .crash("host2", at=1.0)
            .restart("host2", at=2.0)
            .partition("host0", "host1", at=0.5)
            .heal("host0", "host1", at=0.75)
        )
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt.to_dict() == plan.to_dict()
        assert rebuilt.drop_rate("host1", "hostX") == 0.4

    def test_from_dict_reads_older_files_retransmit_key(self):
        # ``repro search --out`` files written before retransmit timing
        # moved to CostModel carry ``"retransmit": null``; that replays.
        # A non-null policy cannot be honoured and fails loudly.
        data = FaultPlan().drop(0.1).crash("host1", at=1.0).to_dict()
        assert "retransmit" not in data
        old = dict(data, retransmit=None)
        assert FaultPlan.from_dict(old).to_dict() == data
        policy = {"timeout_s": 0.5, "backoff": 2.0, "jitter": 0.25,
                  "max_retries": 7}
        with pytest.raises(FaultPlanError, match="CostModel.retransmit_"):
            FaultPlan.from_dict(dict(data, retransmit=policy))


def _reliable_net(plan, seed=0, n_hosts=2):
    sim = Simulator()
    network = build_lan(sim, n_hosts)
    network.set_reliable("data")
    injector = FaultInjector(network, plan, seed=seed)
    return sim, network, injector


class TestReliableTransport:
    def test_heavy_loss_still_delivers_everything(self):
        sim, network, injector = _reliable_net(FaultPlan().drop(0.4), seed=3)
        received = []

        def sink():
            port = network.host("host1").port("data")
            while True:
                packet = yield port.get()
                received.append(packet.payload)

        sim.process(sink(), daemon=True)
        for i in range(30):
            network.enqueue(Packet(
                src="host0", dst="host1", port="data",
                payload=i, size_bytes=100,
            ))
        sim.run()
        assert sorted(received) == list(range(30))
        assert injector.counts["packets_dropped"] > 0
        assert injector.counts["retransmits"] > 0

    def test_duplicates_are_suppressed(self):
        sim, network, injector = _reliable_net(
            FaultPlan().duplicate(1.0), seed=1
        )
        received = []

        def sink():
            port = network.host("host1").port("data")
            while True:
                packet = yield port.get()
                received.append(packet.payload)

        sim.process(sink(), daemon=True)
        for i in range(10):
            network.enqueue(Packet(
                src="host0", dst="host1", port="data",
                payload=i, size_bytes=100,
            ))
        sim.run()
        assert sorted(received) == list(range(10))
        # Every data packet (and its ack) is duplicated; the receiver's
        # dedup admits each data payload exactly once.
        assert injector.counts["packets_duplicated"] >= 10
        assert injector.counts["duplicates_suppressed"] == 10

    def test_partition_blocks_until_heal(self):
        plan = (
            FaultPlan()
            .partition("host0", "host1", at=0.0)
            .heal("host0", "host1", at=0.5)
        )
        sim, network, injector = _reliable_net(plan, seed=2)
        received = []

        def sink():
            port = network.host("host1").port("data")
            while True:
                packet = yield port.get()
                received.append((sim.now, packet.payload))

        sim.process(sink(), daemon=True)

        def source():
            yield sim.timeout(0.1)  # after the partition hits
            network.enqueue(Packet(
                src="host0", dst="host1", port="data",
                payload="hello", size_bytes=100,
            ))

        sim.process(source())
        sim.run()
        assert [p for _, p in received] == ["hello"]
        # Nothing crossed the cut before the heal at t=0.5.
        assert received[0][0] > 0.5
        assert injector.counts["packets_partitioned"] > 0

    @staticmethod
    def _stranded_walker(costs=None):
        config = ClusterConfig(
            n_hosts=2, faults=FaultPlan().drop(1.0), costs=costs
        )
        c = Cluster(config=config)
        build_ring(c.messengers, 4)
        c.messengers.inject(
            'w() { hop(ll = "ring"; ldir = +); }', daemon="host0",
            node="n0",
        )
        with pytest.raises(SimulationError) as excinfo:
            c.run_to_quiescence()
        return c.network.faults.counts, str(excinfo.value)

    def test_abandoned_packet_is_named_as_the_cause(self):
        # Every packet is lost, so the hop's packet is given up after
        # the retry budget: no host crashed, and the error says so.
        counts, message = self._stranded_walker()
        assert counts["retransmits"] == 12
        assert counts["retransmits_exhausted"] == 1
        assert "abandoned 1 packet(s) after the retry budget" in message
        assert "retransmit_max_retries=12" in message
        assert "host crash" not in message

    def test_retransmit_timing_comes_from_the_cost_model(self):
        costs = dataclasses.replace(
            DEFAULT_COSTS, retransmit_max_retries=2
        )
        counts, message = self._stranded_walker(costs)
        assert counts["retransmits"] == 2
        assert "retransmit_max_retries=2" in message


class TestCrashRestart:
    def test_crashed_host_rejects_compute_and_enqueue(self):
        sim = Simulator()
        network = build_lan(sim, 2)
        network.crash_host("host1")
        with pytest.raises(HostCrashedError):
            sim.run(until=network.host("host1").busy(1e-3))
        with pytest.raises(HostCrashedError):
            network.enqueue(Packet(
                src="host1", dst="host0", port="data",
                payload=0, size_bytes=10,
            ))

    def test_restart_does_not_stack_tx_pumps(self):
        # Regression: restarting a host re-attaches it via add_host;
        # a second transmit pump on the same queue would double-send.
        sim = Simulator()
        network = build_lan(sim, 2)
        assert network.tx_pumps_started["host1"] == 1
        for _ in range(3):
            network.crash_host("host1")
            network.restart_host("host1")
        assert network.tx_pumps_started["host1"] == 1
        received = []

        def sink():
            port = network.host("host0").port("data")
            while True:
                packet = yield port.get()
                received.append(packet.payload)

        sim.process(sink(), daemon=True)
        network.enqueue(Packet(
            src="host1", dst="host0", port="data",
            payload="once", size_bytes=10,
        ))
        sim.run()
        assert received == ["once"]

    def test_add_host_rejects_distinct_object_under_taken_name(self):
        sim = Simulator()
        network = build_lan(sim, 2)
        from repro.netsim import Host

        with pytest.raises(ValueError):
            network.add_host(Host(sim, "host1", network.costs))


class TestDeadlockDetection:
    def test_deadlocked_processes_are_named(self):
        from repro.des import Store

        sim = Simulator()
        store = Store(sim)

        def starved():
            yield store.get()

        sim.process(starved())
        with pytest.raises(SimDeadlockError) as excinfo:
            sim.run()
        assert excinfo.value.blocked
        names = [name for name, _reason in excinfo.value.blocked]
        assert any("starved" in name for name in names)

    def test_daemon_processes_are_exempt(self):
        from repro.des import Store

        sim = Simulator()
        store = Store(sim)

        def service():
            while True:
                yield store.get()

        sim.process(service(), daemon=True)
        sim.run()  # drains without raising


class TestPvmNotify:
    def test_manager_survives_worker_host_crash(self):
        grid = TaskGrid(64, 4)
        clean = run_pvm(grid, 3)
        plan = FaultPlan().crash("host2", at=0.5 * clean.seconds)
        result = run_pvm(grid, 3, faults=plan, seed=7)
        assert _image_hash(result) == _image_hash(clean)
        stats = result.stats["faults"]
        assert stats["host_crashes"] == 1
        assert stats["tasks_crashed"] == 1
        assert stats["notifications"] >= 1


class TestMessengersRecovery:
    def test_crash_redispatches_from_checkpoint(self):
        grid = TaskGrid(64, 4)
        clean = run_messengers(grid, 3)
        plan = FaultPlan().crash("host2", at=0.5 * clean.seconds)
        result = run_messengers(grid, 3, faults=plan, seed=7)
        assert _image_hash(result) == _image_hash(clean)
        stats = result.stats["faults"]
        assert stats["host_crashes"] == 1
        assert stats["messengers_crashed"] >= 1
        assert stats["messengers_redispatched"] >= 1
        assert stats["nodes_rehomed"] >= 1
        assert stats["checkpoints"] > 0

    def test_crash_without_plan_is_loud_about_inflight_loss(self):
        from repro.des import SimulationError
        from repro.messengers import MessengersSystem

        sim = Simulator()
        network = build_lan(sim, 2)
        system = MessengersSystem(network)
        system.inject(
            "f() { create(ALL); hop(ll = $last); M_sched_time_dlt(5); }"
        )

        def assassin():
            # Mid create-request flight (wire transit is ~3ms here): no
            # crash-capable plan means no checkpoint to replay from, so
            # the Messenger is gone and the drain must say so.
            yield sim.timeout(1e-3)
            network.crash_host("host1")

        sim.process(assassin())
        with pytest.raises(SimulationError):
            system.run_to_quiescence()

    def test_crash_before_dispatch_routes_around_dead_daemon(self):
        from repro.messengers import MessengersSystem

        sim = Simulator()
        network = build_lan(sim, 2)
        system = MessengersSystem(network)
        system.inject(
            "f() { create(ALL); hop(ll = $last); M_sched_time_dlt(5); }"
        )

        def assassin():
            # Before the create dispatch: the dead daemon is filtered
            # from the candidate set, leaving none here (matches()
            # excludes self), so the Messenger dies a clean "lost".
            yield sim.timeout(1e-5)
            network.crash_host("host1")

        sim.process(assassin())
        system.run_to_quiescence()
        assert [fate for _m, fate in system.finished] == ["lost"]

    def test_stranded_accounting_is_loud(self):
        from repro.des import SimulationError
        from repro.messengers import MessengersSystem

        sim = Simulator()
        network = build_lan(sim, 2)
        system = MessengersSystem(network)
        system.inject("f() { M_sched_time_dlt(1); }")
        # A phantom activation that never lands (models an in-flight
        # Messenger silently lost without recovery): quiescence is now
        # unreachable and the drain must say so instead of lying.
        system.activate()
        with pytest.raises(SimulationError):
            system.run_to_quiescence()

    def test_restart_revives_daemon_for_new_injections(self):
        from repro.messengers import MessengersSystem

        sim = Simulator()
        network = build_lan(sim, 2)
        system = MessengersSystem(network)
        injector = FaultInjector(
            network,
            FaultPlan().crash("host1", at=0.01).restart("host1", at=0.02),
            seed=0,
        )
        sim.run()
        assert injector.counts["daemon_restarts"] == 1
        assert not system.daemons["host1"].dead
        logged = []

        @system.natives.register
        def note(env):
            logged.append(env.daemon.name)
            return 0

        system.inject("f() { note(); }", daemon="host1")
        system.run_to_quiescence()
        assert logged == ["host1"]


class TestAcceptance:
    """ISSUE acceptance: seeded 5% loss + one mid-run worker crash —
    both Mandelbrot variants complete bit-identical to fault-free."""

    @pytest.mark.parametrize(
        "runner", [run_messengers, run_pvm], ids=["messengers", "pvm"]
    )
    def test_loss_plus_crash_bit_identical(self, runner):
        grid = TaskGrid(64, 4)
        clean = runner(grid, 3)
        plan = (
            FaultPlan()
            .drop(0.05)
            .crash("host2", at=0.5 * clean.seconds)
        )
        result = runner(grid, 3, faults=plan, seed=7)
        assert _image_hash(result) == _image_hash(clean)


class TestDeterminism:
    @pytest.mark.parametrize(
        "runner", [run_messengers, run_pvm], ids=["messengers", "pvm"]
    )
    def test_same_seed_same_plan_same_run(self, runner):
        from repro.obs import MetricsRegistry

        grid = TaskGrid(64, 4)
        clean_seconds = runner(grid, 3).seconds

        def one_run():
            plan = (
                FaultPlan()
                .drop(0.05)
                .duplicate(0.02)
                .crash("host2", at=0.5 * clean_seconds)
            )
            registry = MetricsRegistry()
            result = runner(
                grid, 3, metrics=registry, faults=plan, seed=11
            )
            return (
                result.seconds,
                _image_hash(result),
                result.stats["faults"],
                registry.snapshot(),
            )

        first, second = one_run(), one_run()
        assert first[0] == second[0]  # identical final virtual time
        assert first[1] == second[1]  # identical image
        assert first[2] == second[2]  # identical fault counters
        assert first[3] == second[3]  # identical metrics snapshot

    def test_different_seed_differs(self):
        grid = TaskGrid(64, 4)
        plan = FaultPlan().drop(0.3)
        a = run_messengers(grid, 3, faults=plan, seed=1)
        b = run_messengers(grid, 3, faults=plan, seed=2)
        # Same answer, different fault sequence (overwhelmingly likely
        # at 30% loss over dozens of packets).
        assert (a.image == b.image).all()
        assert (
            a.stats["faults"] != b.stats["faults"]
            or a.seconds != b.seconds
        )


class TestTimeWarpKill:
    def _ping_pong_specs(self):
        from repro.gvt import Event
        from repro.gvt.base import LpSpec

        def handler(state, event):
            state["count"] = state.get("count", 0) + 1
            if event.timestamp < 5.0 and event.payload is not None:
                return [Event(
                    timestamp=event.timestamp + 1.0,
                    target=event.payload,
                    payload=event.target,
                )]
            return []

        return [
            LpSpec(name="a", handler=handler, state={}),
            LpSpec(name="b", handler=handler, state={}),
            LpSpec(name="c", handler=handler, state={}),
        ]

    def test_kill_lp_cancels_orphans_and_completes(self):
        from repro.gvt import Event, TimeWarpKernel

        sim = Simulator()
        kernel = TimeWarpKernel(
            sim, self._ping_pong_specs(), message_latency_s=0.001
        )
        kernel.post(Event(timestamp=1.0, target="a", payload="b"))
        kernel.post(Event(timestamp=1.0, target="c", payload=None))

        def assassin():
            # Mid ping-pong: each exchange takes 0.001 simulated
            # seconds of transit, so the chain is still in flight.
            yield sim.timeout(0.0025)
            kernel.kill_lp("b")

        sim.process(assassin())
        stats = kernel.run()
        assert stats.lps_killed == 1
        assert stats.orphans_cancelled >= 1
        # The kernel still quiesces and commits the survivors' work.
        assert kernel.state_of("c")["count"] == 1

    def test_kill_unknown_lp_raises(self):
        from repro.gvt import TimeWarpKernel, VirtualTimeKernelError

        sim = Simulator()
        kernel = TimeWarpKernel(sim, self._ping_pong_specs())
        with pytest.raises(VirtualTimeKernelError):
            kernel.kill_lp("zeus")


class TestFacadeWiring:
    def test_cluster_accepts_fault_plan(self):
        import repro

        plan = (
            FaultPlan()
            .crash("host1", at=0.001)
            .restart("host1", at=0.002)
        )
        c = repro.cluster(
            config=repro.ClusterConfig(n_hosts=2, faults=plan, seed=5)
        )
        c.sim.run()
        assert c.fault_stats["host_crashes"] == 1
        assert c.injector is not None

    def test_cluster_without_plan_has_empty_stats(self):
        import repro

        c = repro.cluster(2)
        assert c.fault_stats == {} and c.injector is None


class TestSpawnDuringCrashWindow:
    """Regression: a crash landing inside PVM's synchronous spawn window
    used to enrol a zombie task on the dead host (the crash listener had
    already run) and deadlock the manager.  A spawn onto a crashed host
    must come back stillborn so pvm_notify fires immediately."""

    def test_stillborn_spawn_notifies_and_run_recovers(self):
        # mp_spawn_s is 0.1s/worker, so crashing host2 at t=0.15 lands
        # after worker 1's spawn but before worker 2's.
        grid = TaskGrid(32, 2)
        clean = run_pvm(grid, 2)
        plan = FaultPlan().crash("host2", at=0.15)
        faulty = run_pvm(grid, 2, faults=plan, seed=7)
        assert _image_hash(faulty) == _image_hash(clean)
        assert faulty.stats["faults"]["spawns_to_dead_host"] == 1

    def test_crash_before_any_spawn_still_recovers(self):
        grid = TaskGrid(32, 2)
        clean = run_pvm(grid, 2)
        plan = FaultPlan().crash("host2", at=0.05)
        faulty = run_pvm(grid, 2, faults=plan, seed=7)
        assert _image_hash(faulty) == _image_hash(clean)
