"""Unit tests for Resource / Hold / Store / PriorityStore / FilterStore."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.des import (
    FilterStore,
    Hold,
    Resource,
    Simulator,
    SimulationError,
    Store,
)
from repro.des.resources import PriorityStore


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_exclusive_access(self, sim):
        cpu = Resource(sim, capacity=1)
        trace = []

        def job(sim, name, hold):
            req = cpu.request()
            yield req
            trace.append((sim.now, name, "start"))
            yield sim.timeout(hold)
            cpu.release(req)
            trace.append((sim.now, name, "end"))

        sim.process(job(sim, "a", 3))
        sim.process(job(sim, "b", 2))
        sim.run()
        assert trace == [
            (0, "a", "start"),
            (3, "a", "end"),
            (3, "b", "start"),
            (5, "b", "end"),
        ]

    def test_capacity_two_runs_concurrently(self, sim):
        link = Resource(sim, capacity=2)
        done = []

        def job(sim, name):
            with link.request() as req:
                yield req
                yield sim.timeout(4)
                done.append((sim.now, name))

        for name in "xyz":
            sim.process(job(sim, name))
        sim.run()
        assert done == [(4, "x"), (4, "y"), (8, "z")]

    def test_count_and_queue_length(self, sim):
        res = Resource(sim, capacity=1)

        def holder(sim):
            req = res.request()
            yield req
            assert res.count == 1
            yield sim.timeout(5)
            res.release(req)

        def contender(sim):
            yield sim.timeout(1)
            req = res.request()
            assert len(res._waiting) == 1
            yield req
            res.release(req)

        sim.process(holder(sim))
        sim.process(contender(sim))
        sim.run()
        assert res.count == 0
        assert len(res._waiting) == 0

    def test_cancel_queued_request(self, sim):
        res = Resource(sim, capacity=1)

        def holder(sim):
            req = res.request()
            yield req
            yield sim.timeout(10)
            res.release(req)

        def quitter(sim):
            yield sim.timeout(1)
            req = res.request()
            # changed our mind before being granted
            res.release(req)
            assert len(res._waiting) == 0

        sim.process(holder(sim))
        sim.process(quitter(sim))
        sim.run()

    def test_release_unknown_request_raises(self, sim):
        a = Resource(sim, capacity=1)
        b = Resource(sim, capacity=1)

        def proc(sim):
            req = a.request()
            yield req
            with pytest.raises(SimulationError):
                b.release(req)
            a.release(req)

        p = sim.process(proc(sim))
        sim.run(until=p)


#: Inexact binary fractions and exact ones, few enough that arrivals
#: tie with each other and with completions all the time.
_TIMES = st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.7, 1e-3, 1.0])


def _generator_spelling(server, seconds):
    """What hold() replaces, kept as the oracle."""
    request = server.request()
    yield request
    granted_at = server.sim.now
    yield server.sim.timeout(seconds)
    server.release(request)
    return granted_at


def _hold_spelling(server, seconds):
    hold = server.hold(seconds)
    yield hold
    return hold.start


def _run_jobs(jobs, spell_hold):
    """Run ``(arrival, seconds, use_hold)`` jobs on one capacity-1
    resource; jobs with ``use_hold`` occupy it through ``spell_hold``,
    the rest through the generator spelling.  Returns the completion
    log ``(job, granted_at, done_at)`` in completion order."""
    sim = Simulator()
    server = Resource(sim, capacity=1)
    log = []

    def job(index, arrival, seconds, use_hold):
        yield sim.timeout(arrival)
        spell = spell_hold if use_hold else _generator_spelling
        granted_at = yield from spell(server, seconds)
        log.append((index, granted_at, sim.now))

    for index, spec in enumerate(jobs):
        sim.process(job(index, *spec))
    sim.run()
    assert server.count == 0 and len(server._waiting) == 0
    return log


class TestHold:
    def test_hold_is_one_event_and_returns_the_slot(self, sim):
        cpu = Resource(sim, capacity=1)
        first, second = cpu.hold(3), cpu.hold(2)
        assert isinstance(first, Hold)
        assert (cpu.count, len(cpu._waiting)) == (1, 1)
        assert sim.run(until=second) is None
        assert sim.now == 5
        assert (first.start, second.start) == (0, 3)
        assert (cpu.count, len(cpu._waiting)) == (0, 0)
        assert sim._eid == 2  # one kernel event per hold, no process

    def test_queued_hold_can_be_withdrawn(self, sim):
        cpu = Resource(sim, capacity=1)
        cpu.hold(3)
        queued = cpu.hold(2)
        cpu.release(queued)
        sim.run()
        assert sim.now == 3
        assert not queued.triggered

    @pytest.mark.parametrize("spelling", [
        _hold_spelling,
        # What Host.busy was: the generator spelling as a sub-process.
        lambda cpu, s: (yield cpu.sim.process(_generator_spelling(cpu, s))),
    ], ids=["hold", "sub-process"])
    def test_waiter_resumes_behind_what_is_already_due_that_instant(
        self, spelling
    ):
        """A tie: the hold was scheduled first, but the sub-process it
        replaces woke its waiter through an event created on completion
        — behind the sleeper's timeout — and results depend on it."""
        sim = Simulator()
        cpu = Resource(sim)
        order = []

        def holder():
            yield from spelling(cpu, 1.0)
            order.append("holder")

        def sleeper():
            yield sim.timeout(0.5)
            yield sim.timeout(0.5)
            order.append("sleeper")

        sim.process(holder())
        sim.process(sleeper())
        sim.run()
        assert order == ["sleeper", "holder"]

    def test_negative_hold_rejected(self, sim):
        with pytest.raises(ValueError):
            Resource(sim).hold(-1)

    @given(jobs=st.lists(
        st.tuples(_TIMES, _TIMES, st.booleans()), min_size=1, max_size=12,
    ))
    @settings(max_examples=200, deadline=None)
    def test_mixed_holds_match_the_all_generator_spelling(self, jobs):
        """hold() mixed with request()/timeout()/release() completes at
        exactly the float times, and in the order, of the spelling it
        replaces."""
        assert _run_jobs(jobs, _hold_spelling) == _run_jobs(
            jobs, _generator_spelling
        )


def _drain(store, insert, items, getters):
    """Insert ``items`` at t=0 via ``insert(store, item)``, then at t=1
    take ``len(getters)`` items (one ``get`` argument tuple each)."""
    sim = store.sim
    got = []

    def consumer():
        yield sim.timeout(1)
        for args in getters:
            got.append((yield store.get(*args)))

    for item in items:
        insert(store, item)
    sim.process(consumer())
    sim.run()
    return got, store.items


class TestPush:
    """push() is put() for a caller that ignores the returned event."""

    @pytest.mark.parametrize("make, getters, expected", [
        # Bounded and full: the overflow queues in put order.
        (lambda sim: Store(sim, capacity=2), [()] * 4, [5, 1, 3, 4]),
        (lambda sim: PriorityStore(sim), [()] * 4, [1, 3, 4, 5]),
        (
            lambda sim: FilterStore(sim),
            [(lambda item: item % 2 == 0,), (), ()],
            [4, 5, 1],
        ),
    ], ids=["bounded-full", "priority", "filter"])
    def test_push_behaves_as_put(self, make, getters, expected):
        items = [5, 1, 3, 4]
        pushed = _drain(make(Simulator()), Store.push, items, getters)
        put = _drain(
            make(Simulator()), lambda store, item: store.put(item),
            items, getters,
        )
        assert pushed == put
        assert pushed[0] == expected

    def test_push_wakes_a_parked_getter_without_a_put_event(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            got.append((yield store.get()))

        sim.process(consumer(), daemon=True)
        sim.run()  # parks the consumer
        events = sim._eid
        store.push("x")
        assert sim._eid == events + 1  # the get's wake-up, nothing else
        sim.run()
        assert got == ["x"]


class TestStore:
    def test_fifo_order(self, sim):
        store = Store(sim)
        got = []

        def producer(sim):
            for k in range(3):
                yield store.put(k)
                yield sim.timeout(1)

        def consumer(sim):
            for _ in range(3):
                got.append((yield store.get()))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        times = []

        def consumer(sim):
            yield store.get()
            times.append(sim.now)

        def producer(sim):
            yield sim.timeout(7)
            yield store.put("item")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert times == [7]

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def producer(sim):
            yield store.put("a")
            log.append((sim.now, "put-a"))
            yield store.put("b")
            log.append((sim.now, "put-b"))

        def consumer(sim):
            yield sim.timeout(5)
            item = yield store.get()
            log.append((sim.now, f"got-{item}"))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert log == [(0, "put-a"), (5, "got-a"), (5, "put-b")]

    def test_len_and_items(self, sim):
        store = Store(sim)

        def proc(sim):
            yield store.put("a")
            yield store.put("b")

        sim.process(proc(sim))
        sim.run()
        assert len(store) == 2
        assert store.items == ["a", "b"]

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


class TestPriorityStore:
    def test_orders_by_value(self, sim):
        store = PriorityStore(sim)
        got = []

        def producer(sim):
            for item in (5, 1, 3):
                yield store.put(item)

        def consumer(sim):
            yield sim.timeout(1)
            for _ in range(3):
                got.append((yield store.get()))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert got == [1, 3, 5]

    def test_peek(self, sim):
        store = PriorityStore(sim)
        with pytest.raises(SimulationError):
            store.peek()

        def proc(sim):
            yield store.put((3, "c"))
            yield store.put((1, "a"))

        sim.process(proc(sim))
        sim.run()
        assert store.peek() == (1, "a")
        assert len(store) == 2


class TestFilterStore:
    def test_predicate_matching(self, sim):
        store = FilterStore(sim)
        got = []

        def producer(sim):
            yield store.put(("b", 2))
            yield store.put(("a", 1))

        def consumer(sim):
            item = yield store.get(lambda it: it[0] == "a")
            got.append(item)

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert got == [("a", 1)]
        assert store.items == [("b", 2)]

    def test_waits_for_matching_item(self, sim):
        store = FilterStore(sim)
        times = []

        def consumer(sim):
            yield store.get(lambda it: it == "wanted")
            times.append(sim.now)

        def producer(sim):
            yield store.put("other")
            yield sim.timeout(9)
            yield store.put("wanted")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert times == [9]
