"""Coverage for remaining corners: groups, transport edges, reprs."""

import pytest

from repro.des import Simulator
from repro.mp import MessagePassingSystem
from repro.mp.groups import GroupRegistry
from repro.netsim import CostModel, Packet, build_lan
from repro.messengers import MessengersSystem


class TestGroupRegistry:
    @pytest.fixture
    def groups(self):
        return GroupRegistry(Simulator())

    def test_join_is_idempotent(self, groups):
        assert groups.join("g", 10) == 0
        assert groups.join("g", 10) == 0
        assert groups.size("g") == 1

    def test_instance_numbers_are_dense(self, groups):
        assert [groups.join("g", tid) for tid in (5, 6, 7)] == [0, 1, 2]
        assert groups.members("g") == [5, 6, 7]

    def test_leave_shifts_instances(self, groups):
        for tid in (5, 6, 7):
            groups.join("g", tid)
        groups.leave("g", 6)
        assert groups.tid_of("g", 1) == 7

    def test_leave_unknown_raises(self, groups):
        with pytest.raises(KeyError):
            groups.leave("g", 99)

    def test_lookup_errors(self, groups):
        groups.join("g", 1)
        with pytest.raises(KeyError):
            groups.tid_of("g", 5)

    def test_barrier_count_mismatch(self, groups):
        groups.barrier("g", 3)
        with pytest.raises(ValueError):
            groups.barrier("g", 4)

    def test_barrier_is_reusable(self):
        sim = Simulator()
        system = MessagePassingSystem(build_lan(sim, 2))
        epochs = []

        def member(ctx, name):
            ctx.join_group("b")
            for epoch in range(3):
                yield from ctx.delay(0.1)
                yield from ctx.barrier("b", 2)
                epochs.append((epoch, name, ctx.now))

        tids = [system.spawn(member, n) for n in "xy"]
        for tid in tids:
            system.run_until_task(tid)
        # both members observed each epoch at the same instant
        times = {}
        for epoch, _name, when in epochs:
            times.setdefault(epoch, set()).add(when)
        assert all(len(ts) == 1 for ts in times.values())


class TestTransportEdges:
    def test_zero_byte_packet(self):
        sim = Simulator()
        net = build_lan(sim, 2)
        net.post(Packet("host0", "host1", "svc", None, 0))
        sim.run()
        assert net.delivered == 1

    def test_many_interleaved_senders_conserve_packets(self):
        sim = Simulator()
        net = build_lan(sim, 4)
        for index in range(40):
            src = f"host{index % 4}"
            dst = f"host{(index + 1) % 4}"
            net.post(Packet(src, dst, "svc", index, 100 * (index % 7)))
        sim.run()
        assert net.delivered == 40
        total = sum(
            len(net.host(f"host{h}").port("svc")) for h in range(4)
        )
        assert total == 40

    def test_enqueue_to_unknown_source_raises(self):
        sim = Simulator()
        net = build_lan(sim, 1)
        with pytest.raises(KeyError):
            net.enqueue(Packet("ghost", "host0", "svc", None, 1))

    def test_wire_time_dominated_by_bandwidth_for_bulk(self):
        sim = Simulator()
        costs = CostModel()
        net = build_lan(sim, 2, costs)
        done = []

        def receiver(sim):
            yield net.host("host1").port("bulk").get()
            done.append(sim.now)

        sim.process(receiver(sim))
        net.post(Packet("host0", "host1", "bulk", b"", 1_000_000))
        sim.run()
        # ~1 MB over ~1 MB/s: at least one second of wire time.
        assert done[0] > 0.9


class TestReprsAndIntrospection:
    def test_reprs_do_not_crash(self):
        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 2))
        messenger = system.inject("f() { create(ALL); }")
        system.run_to_quiescence()
        for obj in (
            sim,
            system,
            system.logical,
            system.daemon("host0"),
            system.daemon_graph,
            system.vtime,
            messenger,
            system.network,
            system.network.segment,
        ):
            assert repr(obj)

    def test_logical_repr_counts(self):
        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 3))
        assert "nodes=3" in repr(system.logical)

    def test_ethernet_utilization_after_traffic(self):
        sim = Simulator()
        net = build_lan(sim, 2)
        net.post(Packet("host0", "host1", "svc", None, 50_000))
        sim.run()
        assert 0 < net.segment.busy_seconds <= sim.now
