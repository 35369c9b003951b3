"""Unit tests for the physical substrate: costs, hosts, Ethernet, network."""

import dataclasses

import pytest

from repro.des import SimDeadlockError, Simulator
from repro.des.core import _describe_wait
from repro.faults import FaultInjector, FaultPlan
from repro.netsim import (
    CostModel,
    Host,
    HostCrashedError,
    Network,
    Packet,
    build_lan,
)
from repro.netsim.costs import CacheModel
from repro.netsim.ethernet import EthernetSegment
from repro.obs import MetricsRegistry


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def costs():
    return CostModel()


class TestCacheModel:
    def test_in_cache_is_free(self):
        cache = CacheModel(capacity_bytes=1 << 20, penalty=3.0)
        assert cache.factor(1000) == 1.0
        assert cache.factor(1 << 20) == 1.0

    def test_factor_monotone_in_working_set(self):
        cache = CacheModel(capacity_bytes=1 << 20, penalty=3.0)
        sizes = [2 << 20, 8 << 20, 64 << 20, 1 << 30]
        factors = [cache.factor(s) for s in sizes]
        assert factors == sorted(factors)
        assert all(f > 1.0 for f in factors)

    def test_factor_saturates_at_penalty(self):
        cache = CacheModel(capacity_bytes=1024, penalty=2.5)
        assert cache.factor(1e15) == pytest.approx(3.5, rel=1e-6)


class TestCostModel:
    def test_with_overrides(self, costs):
        modified = dataclasses.replace(costs, cpu_flops=1e9)
        assert modified.cpu_flops == 1e9
        assert costs.cpu_flops != 1e9  # original untouched (frozen)

    def test_compute_seconds_scales_with_cpu(self, costs):
        base = costs.compute_seconds(1e6)
        fast = costs.compute_seconds(1e6, cpu_scale=2.0)
        assert fast == pytest.approx(base / 2)

    def test_compute_seconds_cache_penalty(self, costs):
        small = costs.compute_seconds(1e6, working_set_bytes=1024)
        large = costs.compute_seconds(1e6, working_set_bytes=1 << 28)
        assert large > small

    def test_wire_seconds(self, costs):
        t = costs.wire_seconds(10_000)
        assert t == pytest.approx(
            costs.wire_latency_s + 10_000 / costs.bandwidth_bytes_per_s
        )


class TestHost:
    def test_compute_charges_time(self, sim, costs):
        host = Host(sim, "h0", costs)

        def proc(sim):
            yield host.compute(costs.cpu_flops)  # 1 second

        p = sim.process(proc(sim))
        sim.run(until=p)
        assert sim.now == pytest.approx(1.0)
        assert host.busy_seconds == pytest.approx(1.0)

    def test_cpu_serializes_jobs(self, sim, costs):
        host = Host(sim, "h0", costs)

        def job(sim):
            yield host.compute(costs.cpu_flops)

        sim.process(job(sim))
        sim.process(job(sim))
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_cpu_scale_validation(self, sim, costs):
        with pytest.raises(ValueError):
            Host(sim, "bad", costs, cpu_scale=0)

    def test_negative_busy_rejected(self, sim, costs):
        host = Host(sim, "h0", costs)
        with pytest.raises(ValueError):
            host.busy(-1)

    def test_ports_created_on_demand(self, sim, costs):
        host = Host(sim, "h0", costs)
        q = host.port("pvm")
        assert host.port("pvm") is q

    def test_stale_process_wrapper_fails_loudly(self, sim, costs):
        host = Host(sim, "h0", costs)
        hold = host.busy(1.0)  # an event now, not a generator
        with pytest.raises(TypeError, match="needs a generator"):
            sim.process(hold)


def _busy_jobs(sim, host, log, count=3, seconds=1.0):
    """``count`` jobs asking for the CPU at t=0, FIFO; each logs
    ``(name, outcome, time)`` when its busy period ends or fails."""

    def job(name):
        try:
            yield host.busy(seconds)
        except HostCrashedError:
            log.append((name, "crashed", sim.now))
        else:
            log.append((name, "done", sim.now))

    for index in range(count):
        sim.process(job(f"job{index}"))


def _at(sim, when, action):
    def later():
        yield sim.timeout(when)
        action()

    sim.process(later())


class TestHostCrashSemantics:
    def test_queued_hold_fails_at_grant_time_running_one_completes(
        self, sim, costs
    ):
        host = Host(sim, "h0", costs)
        log = []
        _busy_jobs(sim, host, log)
        _at(sim, 0.5, host.crash)
        sim.run()
        # job0 was running: it completes through the crash.  job1 and
        # job2 were queued: each fails when its turn comes (t=1.0, not
        # the crash instant 0.5) and hands the CPU straight on.
        assert log == [
            ("job0", "done", 1.0),
            ("job1", "crashed", 1.0),
            ("job2", "crashed", 1.0),
        ]
        assert host.busy_seconds == 1.0
        assert host.cpu.count == 0 and not host.cpu._waiting

    def test_restart_before_the_grant_lets_a_queued_hold_run(
        self, sim, costs
    ):
        host = Host(sim, "h0", costs)
        log = []
        _busy_jobs(sim, host, log, count=2)
        _at(sim, 0.3, host.crash)
        _at(sim, 0.6, host.restart)
        sim.run()
        assert log == [("job0", "done", 1.0), ("job1", "done", 2.0)]
        assert host.busy_seconds == 2.0

    def test_busy_on_a_host_already_down_fails_at_once(self, sim, costs):
        host = Host(sim, "h0", costs)
        log = []
        _busy_jobs(sim, host, log, count=1)
        host.crash()  # before job0's process even starts
        _at(sim, 0.25, lambda: _busy_jobs(sim, host, log, count=1))
        sim.run()
        assert log == [
            ("job0", "crashed", 0.0), ("job0", "crashed", 0.25),
        ]
        assert host.busy_seconds == 0.0

    def test_hang_holds_the_cpu_without_busy_seconds(self, sim, costs):
        net = build_lan(sim, 1, costs)
        host = net.host("host0")
        FaultInjector(
            net, FaultPlan().hang("host0", at=0.1, duration=0.5)
        )
        log = []
        _at(sim, 0.2, lambda: _busy_jobs(sim, host, log, 1, seconds=0.25))
        sim.run()
        # The hang holds the CPU over [0.1, 0.6]; the job waits it out.
        assert log == [("job0", "done", 0.6 + 0.25)]
        assert host.busy_seconds == 0.25

    def test_deadlock_report_names_the_cpu_and_the_medium(
        self, sim, costs
    ):
        host = Host(sim, "h0", costs)
        segment = EthernetSegment(sim, costs)
        # A CPU slot taken and never returned: everything behind it
        # starves.  The medium has no slot to take: a frame always
        # completes, so its label shows only mid-transmit.
        host.cpu.request()

        def wants_cpu():
            yield host.busy(1.0)

        def wants_wire():
            yield segment.transmit(4000)

        sim.process(wants_cpu())
        wire = sim.process(wants_wire())
        sim.run(until=costs.wire_seconds(1500))
        assert _describe_wait(wire) == "ethernet.medium"
        with pytest.raises(SimDeadlockError) as excinfo:
            sim.run()
        assert dict(excinfo.value.blocked) == {"wants_cpu": "host.cpu"}
        assert not wire.is_alive


class TestEthernet:
    def test_transmission_time(self, sim, costs):
        segment = EthernetSegment(sim, costs)

        def proc(sim):
            yield segment.transmit(1000)

        p = sim.process(proc(sim))
        sim.run(until=p)
        assert sim.now == pytest.approx(costs.wire_seconds(1000))
        assert segment.bytes_carried == 1000
        assert segment.frames_carried == 1

    def test_fragmentation(self, sim, costs):
        segment = EthernetSegment(sim, costs)

        def proc(sim):
            yield segment.transmit(4000)

        p = sim.process(proc(sim))
        sim.run(until=p)
        # ceil(4000/1500) = 3 fragments, each paying latency.
        assert segment.frames_carried == 3
        assert segment.bytes_carried == 4000
        expected = (
            2 * costs.wire_seconds(1500) + costs.wire_seconds(1000)
        )
        assert sim.now == pytest.approx(expected)

    def test_medium_is_serialized(self, sim, costs):
        segment = EthernetSegment(sim, costs)
        ends = []

        def sender(sim):
            yield segment.transmit(1500)
            ends.append(sim.now)

        sim.process(sender(sim))
        sim.process(sender(sim))
        sim.run()
        one = costs.wire_seconds(1500)
        assert ends == [pytest.approx(one), pytest.approx(2 * one)]

    def test_short_frame_interleaves_with_a_fragmented_transfer(
        self, sim, costs
    ):
        segment = EthernetSegment(sim, costs)
        ends = {}

        def sender(name, size):
            yield segment.transmit(size)
            ends[name] = sim.now

        sim.process(sender("bulk", 4000))
        sim.process(sender("short", 64))
        sim.run()
        # Each fragment re-arbitrates at the back of the queue, so the
        # 64 B frame goes second, not after all three bulk fragments.
        full, short = costs.wire_seconds(1500), costs.wire_seconds(64)
        assert ends["short"] == full + short
        assert ends["bulk"] == pytest.approx(
            2 * full + short + costs.wire_seconds(1000)
        )
        assert segment.frames_carried == 4
        assert segment.bytes_carried == 4064
        assert segment.busy_seconds == pytest.approx(ends["bulk"])

    def test_stall_counters_match_the_pre_hold_values(self, costs):
        """Values captured on the commit before frames became single
        kernel events (5d091dc): same scenario, same floats."""
        sim = Simulator()
        registry = MetricsRegistry()
        sim.metrics = registry
        net = build_lan(sim, 3, costs)
        net.post(Packet("host0", "host2", "bulk", None, 4000))
        net.post(Packet("host1", "host2", "svc", None, 64))
        sim.run()
        snap = registry.snapshot()
        assert snap["netsim.eth.frames"] == 4
        assert snap["netsim.eth.bytes"] == 4064
        assert snap["netsim.eth.stall_seconds"] == 0.002964
        assert snap["netsim.eth.stall"]["count"] == 2
        assert snap["netsim.eth.stall"]["sum"] == 0.002964
        frames = [
            (s.t0, s.t1) for s in registry.spans if s.track == "lan0"
        ]
        assert frames == [
            (0.0004, 0.0026000000000000003),
            (0.0026000000000000003, 0.0033640000000000002),
            (0.0033640000000000002, 0.005564),
            (0.005564, 0.0072640000000000005),
        ]
        assert sim.now == 0.007664000000000001
        assert net.segment.busy_seconds == 0.006864

    def test_negative_size_rejected(self, sim, costs):
        segment = EthernetSegment(sim, costs)
        with pytest.raises(ValueError):
            segment.transmit(-1)

    def test_utilization(self, sim, costs):
        segment = EthernetSegment(sim, costs)
        assert segment.busy_seconds == 0.0


class TestNetwork:
    def test_build_lan(self, sim, costs):
        net = build_lan(sim, 4, costs)
        assert len(net) == 4
        assert net.host_names == ["host0", "host1", "host2", "host3"]
        assert net.host("host2").network is net

    def test_build_lan_validation(self, sim, costs):
        with pytest.raises(ValueError):
            build_lan(sim, 0, costs)

    def test_duplicate_host_rejected(self, sim, costs):
        net = Network(sim, costs)
        net.add_host(Host(sim, "a", costs))
        with pytest.raises(ValueError):
            net.add_host(Host(sim, "a", costs))

    def test_unknown_host_lookup(self, sim, costs):
        net = Network(sim, costs)
        with pytest.raises(KeyError):
            net.host("ghost")

    def test_remote_delivery(self, sim, costs):
        net = build_lan(sim, 2, costs)
        received = []

        def receiver(sim):
            packet = yield net.host("host1").port("svc").get()
            received.append((sim.now, packet.payload))

        def sender(sim):
            yield sim.process(
                net.send(Packet("host0", "host1", "svc", "hello", 100))
            )

        sim.process(receiver(sim))
        sim.process(sender(sim))
        sim.run()
        assert len(received) == 1
        time, payload = received[0]
        assert payload == "hello"
        expected = 2 * costs.endpoint_overhead_s + costs.wire_seconds(100)
        assert time == pytest.approx(expected)

    def test_local_delivery_skips_wire(self, sim, costs):
        net = build_lan(sim, 1, costs)
        times = []

        def receiver(sim):
            yield net.host("host0").port("svc").get()
            times.append(sim.now)

        def sender(sim):
            yield sim.process(
                net.send(Packet("host0", "host0", "svc", "x", 10_000))
            )

        sim.process(receiver(sim))
        sim.process(sender(sim))
        sim.run()
        assert times[0] == pytest.approx(costs.endpoint_overhead_s)
        assert net.segment.frames_carried == 0

    def test_send_to_unknown_host_raises(self, sim, costs):
        net = build_lan(sim, 1, costs)
        with pytest.raises(KeyError):
            net.send(Packet("host0", "nowhere", "svc", None, 1))

    def test_post_fire_and_forget(self, sim, costs):
        net = build_lan(sim, 2, costs)
        net.post(Packet("host0", "host1", "svc", 42, 10))
        sim.run()
        assert net.delivered == 1
        [packet] = net.host("host1").port("svc").items
        assert packet.payload == 42
