"""Unit tests for the simulation kernel core (events, clock, run)."""

import pytest

from repro.des import Simulator, SimulationError
from repro.des.errors import EventAlreadyTriggered


@pytest.fixture
def sim():
    return Simulator()


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        def proc(sim):
            yield sim.timeout(5)

        sim.process(proc(sim))
        sim.run()
        assert sim.now == 5

    def test_run_until_time(self, sim):
        def proc(sim):
            while True:
                yield sim.timeout(1)

        sim.process(proc(sim))
        sim.run(until=10)
        assert sim.now == 10

    def test_run_until_past_raises(self, sim):
        def proc(sim):
            yield sim.timeout(100)

        sim.process(proc(sim))
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=50)

    def test_empty_run_returns(self, sim):
        sim.run()
        assert sim.now == 0.0

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(7)
        assert sim.peek() == 7


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        seen = []

        def proc(sim):
            seen.append((yield ev))

        sim.process(proc(sim))
        ev.succeed("payload")
        sim.run()
        assert seen == ["payload"]

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed(2)

    def test_fail_then_succeed_raises(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("x"))
        ev.defuse()
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed(1)

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_throws_into_waiter(self, sim):
        ev = sim.event()
        caught = []

        def proc(sim):
            try:
                yield ev
            except RuntimeError as err:
                caught.append(str(err))

        sim.process(proc(sim))
        ev.fail(RuntimeError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_unhandled_failure_surfaces(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("lost"))
        with pytest.raises(RuntimeError, match="lost"):
            sim.run()

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.value
        with pytest.raises(SimulationError):
            ev.ok

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_yield_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed("early")
        log = []

        def late(sim):
            yield sim.timeout(3)
            log.append((yield ev))

        sim.process(late(sim))
        sim.run()
        assert log == ["early"]
        assert sim.now == 3


class TestRunUntilEvent:
    def test_returns_event_value(self, sim):
        def proc(sim):
            yield sim.timeout(2)
            return 42

        p = sim.process(proc(sim))
        assert sim.run(until=p) == 42
        assert sim.now == 2

    def test_raises_event_failure(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            raise ValueError("inside")

        p = sim.process(proc(sim))
        with pytest.raises(ValueError, match="inside"):
            sim.run(until=p)

    def test_already_processed_event(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        assert sim.run(until=p) == "done"

    def test_never_triggering_event_raises(self, sim):
        ev = sim.event()

        def proc(sim):
            yield sim.timeout(1)

        sim.process(proc(sim))
        with pytest.raises(SimulationError):
            sim.run(until=ev)


class TestConditions:
    def test_any_of_fires_on_first(self, sim):
        def fast(sim):
            yield sim.timeout(1)
            return "fast"

        def slow(sim):
            yield sim.timeout(10)
            return "slow"

        f, s = sim.process(fast(sim)), sim.process(slow(sim))

        def waiter(sim):
            result = yield f | s
            assert f in result and s not in result
            assert sim.now == 1

        w = sim.process(waiter(sim))
        sim.run(until=w)

    def test_all_of_waits_for_all(self, sim):
        def make(delay):
            def proc(sim):
                yield sim.timeout(delay)
                return delay

            return proc

        procs = [sim.process(make(d)(sim)) for d in (3, 1, 2)]

        def waiter(sim):
            result = yield sim.all_of(procs)
            assert sorted(result.values()) == [1, 2, 3]
            assert sim.now == 3

        w = sim.process(waiter(sim))
        sim.run(until=w)

    def test_empty_all_of_fires_immediately(self, sim):
        cond = sim.all_of([])
        assert cond.triggered

    def test_condition_propagates_failure(self, sim):
        def bad(sim):
            yield sim.timeout(1)
            raise RuntimeError("nope")

        def ok(sim):
            yield sim.timeout(5)

        b, o = sim.process(bad(sim)), sim.process(ok(sim))
        caught = []

        def waiter(sim):
            try:
                yield b & o
            except RuntimeError as err:
                caught.append(str(err))

        sim.process(waiter(sim))
        sim.run()
        assert caught == ["nope"]

    def test_cross_simulator_condition_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([sim.event(), other.event()])


class TestOrdering:
    def test_same_time_events_fifo(self, sim):
        order = []

        def proc(sim, tag):
            yield sim.timeout(5)
            order.append(tag)

        for tag in "abc":
            sim.process(proc(sim, tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_events_in_time_order(self, sim):
        order = []

        def proc(sim, delay):
            yield sim.timeout(delay)
            order.append(delay)

        for delay in (5, 1, 3, 2, 4):
            sim.process(proc(sim, delay))
        sim.run()
        assert order == [1, 2, 3, 4, 5]

    def test_stop_mid_run(self, sim):
        def stopper(sim):
            yield sim.timeout(2)
            sim.stop("halted")

        def runner(sim):
            yield sim.timeout(100)

        sim.process(stopper(sim))
        sim.process(runner(sim))
        assert sim.run() == "halted"
        assert sim.now == 2
