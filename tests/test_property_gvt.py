"""Property-based tests for the virtual-time kernels (hypothesis).

The central invariant of §2.2: whatever synchronization strategy is
used, the committed computation must be identical.  We generate random
event workloads — random LP graphs, random itineraries, random costs —
and assert the conservative and Time-Warp kernels commit identical
final states.
"""

from hypothesis import given, settings, strategies as st

from repro.des import Simulator
from repro.gvt import ConservativeKernel, Event, TimeWarpKernel, phold
from repro.gvt.base import LpSpec


@st.composite
def random_workloads(draw):
    """A deterministic multi-hop workload over a small LP set."""
    n_lps = draw(st.integers(min_value=1, max_value=4))
    n_jobs = draw(st.integers(min_value=1, max_value=6))
    hops = draw(st.integers(min_value=1, max_value=8))
    itineraries = [
        [
            (
                draw(st.integers(min_value=0, max_value=n_lps - 1)),
                draw(
                    st.floats(
                        min_value=0.25, max_value=3.0,
                        allow_nan=False, allow_infinity=False,
                    )
                ),
            )
            for _ in range(hops)
        ]
        for _ in range(n_jobs)
    ]
    costs = [
        draw(st.floats(min_value=0.0, max_value=0.01, allow_nan=False))
        for _ in range(n_lps)
    ]
    return n_lps, itineraries, costs


def build(n_lps, itineraries, costs):
    hops = len(itineraries[0])

    def handler(state, event):
        job, hop_index = event.payload
        state.setdefault("trace", []).append(
            (job, hop_index, round(event.timestamp, 9))
        )
        if hop_index + 1 >= hops:
            return []
        target, increment = itineraries[job][hop_index + 1]
        return [
            Event(
                timestamp=event.timestamp + increment,
                target=f"lp{target}",
                payload=(job, hop_index + 1),
            )
        ]

    specs = [
        LpSpec(name=f"lp{i}", handler=handler, cost_s=costs[i])
        for i in range(n_lps)
    ]
    initial = []
    for job, itinerary in enumerate(itineraries):
        target, increment = itinerary[0]
        initial.append(
            Event(timestamp=increment, target=f"lp{target}",
                  payload=(job, 0))
        )
    return specs, initial


def canonical(states):
    return {
        name: sorted(state.get("trace", []))
        for name, state in states.items()
    }


class TestEngineEquivalence:
    @given(workload=random_workloads())
    @settings(max_examples=25, deadline=None)
    def test_conservative_equals_timewarp(self, workload):
        n_lps, itineraries, costs = workload

        specs_c, initial_c = build(n_lps, itineraries, costs)
        kernel_c = ConservativeKernel(Simulator(), specs_c)
        for event in initial_c:
            kernel_c.post(event)
        stats_c = kernel_c.run()
        states_c = canonical({s.name: s.state for s in specs_c})

        specs_o, initial_o = build(n_lps, itineraries, costs)
        kernel_o = TimeWarpKernel(
            Simulator(), specs_o, gvt_interval_s=0.002
        )
        for event in initial_o:
            kernel_o.post(event)
        stats_o = kernel_o.run()
        states_o = canonical(
            {s.name: kernel_o.state_of(s.name) for s in specs_o}
        )

        assert states_c == states_o
        # Committed event counts agree too (TW may process more, but
        # rolled-back work is subtracted).
        committed_c = stats_c.events_processed
        committed_o = stats_o.events_processed - stats_o.events_rolled_back
        assert committed_c == committed_o

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_phold_equivalence_over_seeds(self, seed):
        specs_c, initial_c = phold(
            n_lps=3, population=4, hops=8, seed=seed
        )
        kernel_c = ConservativeKernel(Simulator(), specs_c)
        for event in initial_c:
            kernel_c.post(event)
        kernel_c.run()

        specs_o, initial_o = phold(
            n_lps=3, population=4, hops=8, seed=seed
        )
        kernel_o = TimeWarpKernel(
            Simulator(), specs_o, gvt_interval_s=0.005
        )
        for event in initial_o:
            kernel_o.post(event)
        kernel_o.run()

        for spec_c, spec_o in zip(specs_c, specs_o):
            assert spec_c.state.get("arrivals", 0) == kernel_o.state_of(
                spec_o.name
            ).get("arrivals", 0)
            assert sorted(spec_c.state.get("jobs_seen", [])) == sorted(
                kernel_o.state_of(spec_o.name).get("jobs_seen", [])
            )

    @given(workload=random_workloads())
    @settings(max_examples=15, deadline=None)
    def test_timewarp_commits_every_event_exactly_once(self, workload):
        n_lps, itineraries, costs = workload
        specs, initial = build(n_lps, itineraries, costs)
        kernel = TimeWarpKernel(Simulator(), specs, gvt_interval_s=0.002)
        for event in initial:
            kernel.post(event)
        stats = kernel.run()

        total_committed = sum(
            len(kernel.state_of(s.name).get("trace", [])) for s in specs
        )
        expected = len(itineraries) * len(itineraries[0])
        assert total_committed == expected
        assert (
            stats.events_processed - stats.events_rolled_back == expected
        )
