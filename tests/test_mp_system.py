"""Integration tests for the PVM-workalike: spawn, send/recv, groups."""

import pytest

from repro.des import Simulator
from repro.mp import ANY, MessagePassingSystem, PackBuffer
from repro.mp.task import NO_PARENT
from repro.netsim import CostModel, build_lan


@pytest.fixture
def rig():
    sim = Simulator()
    network = build_lan(sim, 4, CostModel())
    system = MessagePassingSystem(network)
    return sim, network, system


class TestSpawn:
    def test_root_task_runs(self, rig):
        sim, _net, system = rig
        log = []

        def root(ctx):
            log.append(ctx.tid)
            yield from ctx.delay(1)
            return "ok"

        tid = system.spawn(root)
        assert system.run_until_task(tid) == "ok"
        assert log == [tid]
        assert system.task(tid).parent == NO_PARENT

    def test_round_robin_placement(self, rig):
        _sim, net, system = rig

        def noop(ctx):
            yield from ctx.delay(0)

        tids = [system.spawn(noop) for _ in range(4)]
        hosts = [system.task(t).host.name for t in tids]
        assert hosts == net.host_names

    def test_ctx_spawn_charges_cost(self, rig):
        sim, _net, system = rig

        def child(ctx):
            yield from ctx.delay(0)

        def parent(ctx):
            tids = yield from ctx.spawn(child, count=3)
            assert len(tids) == 3
            for tid in tids:
                assert ctx._system.task(tid).parent == ctx.tid

        tid = system.spawn(parent)
        system.run_until_task(tid)
        assert sim.now >= 3 * system.costs.mp_spawn_s

    def test_spawn_with_host_pinning(self, rig):
        _sim, _net, system = rig

        def noop(ctx):
            yield from ctx.delay(0)

        def parent(ctx):
            tids = yield from ctx.spawn(
                noop, count=2, hosts=["host3", "host3"]
            )
            return tids

        tid = system.spawn(parent)
        tids = system.run_until_task(tid)
        assert all(
            system.task(t).host.name == "host3" for t in tids
        )

    def test_unknown_tid_raises(self, rig):
        _sim, _net, system = rig
        with pytest.raises(KeyError):
            system.task(999)


class TestSendRecv:
    def test_ping_pong(self, rig):
        sim, _net, system = rig
        trace = []

        def ponger(ctx):
            msg = yield from ctx.recv()
            trace.append(("pong-got", msg.buffer.unpack_string()))
            yield from ctx.send(msg.src, "pong")

        def pinger(ctx):
            [pong_tid] = yield from ctx.spawn(ponger)
            yield from ctx.send(pong_tid, "ping")
            msg = yield from ctx.recv(src=pong_tid)
            trace.append(("ping-got", msg.buffer.unpack_object()))

        tid = system.spawn(pinger)
        system.run_until_task(tid)
        assert trace == [("pong-got", "ping"), ("ping-got", "pong")]

    def test_tag_filtering(self, rig):
        _sim, _net, system = rig
        got = []

        def receiver(ctx):
            msg = yield from ctx.recv(tag=7)
            got.append(("tag7", msg.buffer.unpack_int()))
            msg = yield from ctx.recv(tag=3)
            got.append(("tag3", msg.buffer.unpack_int()))

        def sender(ctx):
            [rtid] = yield from ctx.spawn(receiver)
            yield from ctx.send(rtid, PackBuffer().pack_int(30), tag=3)
            yield from ctx.send(rtid, PackBuffer().pack_int(70), tag=7)
            yield ctx._system.wait_for(rtid)

        tid = system.spawn(sender)
        system.run_until_task(tid)
        # tag=7 message is consumed first even though it arrived second.
        assert got == [("tag7", 70), ("tag3", 30)]

    def test_fifo_per_sender(self, rig):
        _sim, _net, system = rig
        got = []

        def receiver(ctx):
            for _ in range(5):
                msg = yield from ctx.recv()
                got.append(msg.buffer.unpack_int())

        def sender(ctx):
            [rtid] = yield from ctx.spawn(receiver)
            for k in range(5):
                yield from ctx.send(rtid, PackBuffer().pack_int(k))
            yield ctx._system.wait_for(rtid)

        tid = system.spawn(sender)
        system.run_until_task(tid)
        assert got == [0, 1, 2, 3, 4]

    def test_send_charges_pack_time(self, rig):
        sim, _net, system = rig

        def receiver(ctx):
            yield from ctx.recv()

        def sender(ctx):
            [rtid] = yield from ctx.spawn(receiver)
            start = ctx.now
            big = PackBuffer().pack_bytes(b"\x00" * 100_000)
            yield from ctx.send(rtid, big)
            elapsed = ctx.now - start
            pack = 100_000 * system.costs.pack_cost_per_byte_s
            assert elapsed >= pack

        tid = system.spawn(sender)
        system.run_until_task(tid)

    def test_probe_sees_queued_message(self, rig):
        _sim, _net, system = rig
        results = []

        def receiver(ctx):
            results.append(ctx.probe())
            yield from ctx.delay(1.0)  # let the message arrive
            results.append(ctx.probe())
            msg = yield from ctx.recv()
            results.append(msg.buffer.unpack_int())

        def sender(ctx):
            [rtid] = yield from ctx.spawn(receiver)
            yield from ctx.send(rtid, PackBuffer().pack_int(5))
            yield ctx._system.wait_for(rtid)

        tid = system.spawn(sender)
        system.run_until_task(tid)
        assert results == [False, True, 5]

    def test_src_filtering_any(self, rig):
        _sim, _net, system = rig
        got = []

        def receiver(ctx, n):
            for _ in range(n):
                msg = yield from ctx.recv(src=ANY)
                got.append(msg.src)

        def child(ctx, rtid):
            yield from ctx.send(rtid, "hi")

        def root(ctx):
            [rtid] = yield from ctx.spawn(receiver, 2)
            yield from ctx.spawn(child, rtid, count=2)
            yield ctx._system.wait_for(rtid)

        tid = system.spawn(root)
        system.run_until_task(tid)
        assert len(got) == 2


class TestMulticastAndGroups:
    def test_mcast_reaches_all_but_sender(self, rig):
        _sim, _net, system = rig
        got = []

        def member(ctx):
            ctx.join_group("g")
            msg = yield from ctx.recv()
            got.append((ctx.tid, msg.buffer.unpack_string()))

        def root(ctx):
            ctx.join_group("g")
            tids = yield from ctx.spawn(member, count=3)
            yield from ctx.delay(0.01)  # let members join
            members = [
                ctx.tid_in_group("g", i)
                for i in range(ctx.group_size("g"))
            ]
            yield from ctx.mcast(members, "broadcast")
            for tid in tids:
                yield ctx._system.wait_for(tid)

        tid = system.spawn(root)
        system.run_until_task(tid)
        assert sorted(tag for _tid, tag in got) == ["broadcast"] * 3

    def test_group_instance_numbers(self, rig):
        _sim, _net, system = rig

        def root(ctx):
            inum = ctx.join_group("grid")
            assert inum == 0
            assert ctx.tid_in_group("grid", 0) == ctx.tid
            assert ctx.group_size("grid") == 1
            yield from ctx.delay(0)

        tid = system.spawn(root)
        system.run_until_task(tid)

    def test_barrier_synchronizes(self, rig):
        sim, _net, system = rig
        release_times = []

        def member(ctx, delay):
            ctx.join_group("b")
            yield from ctx.delay(delay)
            yield from ctx.barrier("b", 3)
            release_times.append(ctx.now)

        tids = [system.spawn(member, d) for d in (1.0, 2.0, 3.0)]
        for tid in tids:
            system.run_until_task(tid)
        assert release_times == [3.0, 3.0, 3.0]


class TestKill:
    def test_kill_blocked_task(self, rig):
        sim, _net, system = rig

        def victim(ctx):
            yield from ctx.recv()  # blocks forever

        def killer(ctx):
            [vtid] = yield from ctx.spawn(victim)
            yield from ctx.delay(1)
            ctx.kill(vtid)
            return vtid

        tid = system.spawn(killer)
        vtid = system.run_until_task(tid)
        sim.run()
        assert system.task(vtid).exited
        assert not system.live_tasks

    def test_kill_exited_task_is_noop(self, rig):
        _sim, _net, system = rig

        def quick(ctx):
            yield from ctx.delay(0)

        def root(ctx):
            [qtid] = yield from ctx.spawn(quick)
            yield ctx._system.wait_for(qtid)
            ctx.kill(qtid)  # already exited

        tid = system.spawn(root)
        system.run_until_task(tid)

    def test_message_to_dead_task_dropped(self, rig):
        sim, _net, system = rig

        def quick(ctx):
            yield from ctx.delay(0)

        def root(ctx):
            [qtid] = yield from ctx.spawn(quick)
            yield ctx._system.wait_for(qtid)
            yield from ctx.send(qtid, "too late")
            yield from ctx.delay(1)

        tid = system.spawn(root)
        system.run_until_task(tid)
        sim.run()
        assert system.dropped == 1
