"""Property-based tests for the simulation kernel (hypothesis)."""


from hypothesis import given, settings, strategies as st

from repro.des import Resource, Simulator, Store
from repro.des.resources import PriorityStore


class TestEventOrderingProperties:
    @given(delays=st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        min_size=1, max_size=50,
    ))
    def test_timeouts_fire_in_sorted_order(self, delays):
        sim = Simulator()
        fired = []

        def proc(sim, delay):
            yield sim.timeout(delay)
            fired.append(delay)

        for delay in delays:
            sim.process(proc(sim, delay))
        sim.run()
        assert fired == sorted(delays)
        assert sim.now == max(delays)

    @given(delays=st.lists(
        st.integers(min_value=0, max_value=100), min_size=2, max_size=30,
    ))
    def test_equal_delays_preserve_creation_order(self, delays):
        sim = Simulator()
        fired = []

        def proc(sim, delay, tag):
            yield sim.timeout(delay)
            fired.append((delay, tag))

        for tag, delay in enumerate(delays):
            sim.process(proc(sim, delay, tag))
        sim.run()
        assert fired == sorted(
            ((delay, tag) for tag, delay in enumerate(delays)),
        )

    @given(
        delays=st.lists(
            st.floats(min_value=0.001, max_value=100, allow_nan=False),
            min_size=1, max_size=20,
        ),
        cutoff=st.floats(min_value=0.0, max_value=120, allow_nan=False),
    )
    def test_run_until_never_overshoots(self, delays, cutoff):
        sim = Simulator()

        def proc(sim, delay):
            yield sim.timeout(delay)

        for delay in delays:
            sim.process(proc(sim, delay))
        sim.run(until=cutoff)
        assert sim.now <= cutoff + 1e-12


class TestStoreProperties:
    @given(items=st.lists(st.integers(), max_size=50))
    def test_store_is_fifo(self, items):
        sim = Simulator()
        store = Store(sim)
        received = []

        def producer(sim):
            for item in items:
                yield store.put(item)

        def consumer(sim):
            for _ in items:
                received.append((yield store.get()))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert received == items

    @given(items=st.lists(
        st.tuples(st.integers(), st.integers()), max_size=40,
    ))
    def test_priority_store_is_heap_ordered(self, items):
        sim = Simulator()
        store = PriorityStore(sim)
        received = []

        def producer(sim):
            for item in items:
                yield store.put(item)

        def consumer(sim):
            yield sim.timeout(1)
            for _ in items:
                received.append((yield store.get()))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert received == sorted(items)

    @given(
        items=st.lists(st.integers(), min_size=1, max_size=30),
        capacity=st.integers(min_value=1, max_value=5),
    )
    def test_bounded_store_never_overfills(self, items, capacity):
        sim = Simulator()
        store = Store(sim, capacity=capacity)
        max_seen = 0

        def producer(sim):
            for item in items:
                yield store.put(item)

        def watcher(sim):
            nonlocal max_seen
            while True:
                max_seen = max(max_seen, len(store))
                yield sim.timeout(0.1)

        def consumer(sim):
            for _ in items:
                yield sim.timeout(1)
                yield store.get()

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.process(watcher(sim))
        sim.run(until=len(items) + 2)
        assert max_seen <= capacity


class TestResourceProperties:
    @given(
        holds=st.lists(
            st.floats(min_value=0.01, max_value=5, allow_nan=False),
            min_size=1, max_size=20,
        ),
        capacity=st.integers(min_value=1, max_value=4),
    )
    @settings(deadline=None)
    def test_concurrency_never_exceeds_capacity(self, holds, capacity):
        sim = Simulator()
        resource = Resource(sim, capacity=capacity)
        active = 0
        peak = 0

        def job(sim, hold):
            nonlocal active, peak
            req = resource.request()
            yield req
            active += 1
            peak = max(peak, active)
            yield sim.timeout(hold)
            active -= 1
            resource.release(req)

        for hold in holds:
            sim.process(job(sim, hold))
        sim.run()
        assert peak <= capacity
        assert active == 0
        assert resource.count == 0

    @given(
        holds=st.lists(
            st.floats(min_value=0.1, max_value=2, allow_nan=False),
            min_size=1, max_size=15,
        ),
    )
    @settings(deadline=None)
    def test_exclusive_resource_serializes_total_time(self, holds):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def job(sim, hold):
            with resource.request() as req:
                yield req
                yield sim.timeout(hold)

        for hold in holds:
            sim.process(job(sim, hold))
        sim.run()
        assert sim.now >= sum(holds) - 1e-9
