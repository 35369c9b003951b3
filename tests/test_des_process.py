"""Unit tests for simulation processes (spawn, wait, interrupt)."""

import pytest

from repro.des import Interrupt, Simulator, SimulationError
from repro.des.errors import ProcessDead


@pytest.fixture
def sim():
    return Simulator()


class TestProcessBasics:
    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_process_is_waitable_event(self, sim):
        def child(sim):
            yield sim.timeout(3)
            return "child-result"

        def parent(sim):
            result = yield sim.process(child(sim))
            assert result == "child-result"
            return "parent-done"

        p = sim.process(parent(sim))
        assert sim.run(until=p) == "parent-done"
        assert sim.now == 3

    def test_exception_propagates_to_waiter(self, sim):
        def child(sim):
            yield sim.timeout(1)
            raise KeyError("missing")

        def parent(sim):
            with pytest.raises(KeyError):
                yield sim.process(child(sim))
            return "survived"

        p = sim.process(parent(sim))
        assert sim.run(until=p) == "survived"

    def test_unwaited_crash_surfaces(self, sim):
        def bad(sim):
            yield sim.timeout(1)
            raise RuntimeError("unobserved")

        sim.process(bad(sim))
        with pytest.raises(RuntimeError, match="unobserved"):
            sim.run()

    def test_yield_non_event_fails_process(self, sim):
        def bad(sim):
            yield "not an event"

        p = sim.process(bad(sim))
        with pytest.raises(SimulationError, match="non-event"):
            sim.run(until=p)

    def test_immediate_return(self, sim):
        def instant(sim):
            return 7
            yield  # pragma: no cover - makes this a generator

        p = sim.process(instant(sim))
        assert sim.run(until=p) == 7
        assert sim.now == 0

    def test_is_alive_transitions(self, sim):
        def proc(sim):
            yield sim.timeout(5)

        p = sim.process(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_active_process_visible(self, sim):
        seen = []

        def proc(sim):
            seen.append(sim.active_process)
            yield sim.timeout(1)

        p = sim.process(proc(sim))
        sim.run()
        assert seen == [p]
        assert sim.active_process is None


class TestInterrupts:
    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def victim(sim):
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                causes.append((sim.now, intr.cause))

        def attacker(sim, victim_proc):
            yield sim.timeout(2)
            victim_proc.interrupt("wake up")

        v = sim.process(victim(sim))
        sim.process(attacker(sim, v))
        sim.run(until=v)
        assert causes == [(2, "wake up")]
        assert sim.now == 2

    def test_interrupted_process_can_continue(self, sim):
        def victim(sim):
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(5)
            return "finished"

        def attacker(sim, victim_proc):
            yield sim.timeout(1)
            victim_proc.interrupt()

        v = sim.process(victim(sim))
        sim.process(attacker(sim, v))
        assert sim.run(until=v) == "finished"
        assert sim.now == 6

    def test_interrupt_dead_process_raises(self, sim):
        def quick(sim):
            yield sim.timeout(1)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(ProcessDead):
            p.interrupt()

    def test_self_interrupt_rejected(self, sim):
        def proc(sim):
            with pytest.raises(SimulationError):
                sim.active_process.interrupt()
            yield sim.timeout(1)

        p = sim.process(proc(sim))
        sim.run(until=p)

    def test_unhandled_interrupt_kills_process(self, sim):
        def victim(sim):
            yield sim.timeout(100)

        def attacker(sim, victim_proc):
            yield sim.timeout(1)
            victim_proc.interrupt("die")

        v = sim.process(victim(sim))
        sim.process(attacker(sim, v))
        with pytest.raises(Interrupt):
            sim.run(until=v)

    def test_original_target_unaffected_after_interrupt(self, sim):
        """The timeout a victim waited on must not resume it later."""
        resumed = []

        def victim(sim):
            try:
                yield sim.timeout(10)
                resumed.append("timeout")
            except Interrupt:
                resumed.append("interrupt")
            yield sim.timeout(50)
            resumed.append("second")

        def attacker(sim, v):
            yield sim.timeout(1)
            v.interrupt()

        v = sim.process(victim(sim))
        sim.process(attacker(sim, v))
        sim.run()
        assert resumed == ["interrupt", "second"]
        assert sim.now == 51


class TestProcessChains:
    def test_deep_chain(self, sim):
        def leaf(sim):
            yield sim.timeout(1)
            return 1

        def node(sim, depth):
            if depth == 0:
                result = yield sim.process(leaf(sim))
            else:
                result = yield sim.process(node(sim, depth - 1))
            return result + 1

        p = sim.process(node(sim, 20))
        assert sim.run(until=p) == 22

    def test_fan_out_fan_in(self, sim):
        def worker(sim, k):
            yield sim.timeout(k)
            return k * k

        def coordinator(sim):
            workers = [sim.process(worker(sim, k)) for k in range(1, 6)]
            results = yield sim.all_of(workers)
            return sum(results.values())

        p = sim.process(coordinator(sim))
        assert sim.run(until=p) == 1 + 4 + 9 + 16 + 25
        assert sim.now == 5
