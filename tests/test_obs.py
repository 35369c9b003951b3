"""The observability layer: metric semantics, the cost ledger and its
accounting identity, and the exporters.

The load-bearing test here is the accounting identity: on a real run
(the Figure-4 Mandelbrot at reduced scale) every virtual-time charge
must land in exactly one cost category, so categories + idle tile the
``n_tracks x elapsed`` timeline to float precision.  If an instrumented
path double-charges (or forgets to charge) the identity breaks.
"""

import json

import pytest

from repro.des import Simulator
from repro.obs import (
    CATEGORIES,
    Histogram,
    InstantEvent,
    MetricsRegistry,
    cost_breakdown,
    dump_chrome_trace,
    format_breakdown,
    format_counters,
)
from repro.obs.export import to_jsonl
from repro.obs.registry import CounterFamily, MetricNameError


class TestCounter:
    def test_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.value("a.b") == 5

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_count_convenience(self):
        registry = MetricsRegistry()
        registry.count("hits")
        registry.count("hits", 2)
        assert registry.value("hits") == 3


class TestGauge:
    def test_up_and_down(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue.depth")
        gauge.inc(3)
        gauge.inc(-1)
        assert gauge.value == 2
        gauge.set(10)
        assert registry.value("queue.depth") == 10


class TestHistogram:
    def test_bucketing(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 106.5
        assert histogram.mean == pytest.approx(26.625)
        # 0.5 and 1.0 land <= 1.0; 5.0 <= 10.0; 100.0 overflows.
        assert histogram.counts == [2, 1, 1]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.5)
        value = registry.value("lat")
        assert value["count"] == 1
        assert "+inf" in value["buckets"]

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))

    def test_quantile_interpolates_inside_the_bucket(self):
        histogram = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        assert histogram.quantile(0.5) == 0.0  # empty
        for value in (0.5, 1.5, 1.5, 3.0):
            histogram.observe(value)
        # Rank 1 of 4 fills the first bucket, interpolated from 0.
        assert histogram.quantile(0.25) == pytest.approx(1.0)
        # Rank 2 is halfway through the two samples in (1, 2].
        assert histogram.quantile(0.5) == pytest.approx(1.5)
        assert histogram.quantile(1.0) == pytest.approx(4.0)
        histogram.observe(100.0)  # +inf bucket: the estimate saturates
        assert histogram.quantile(1.0) == 4.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)


class TestCounterFamily:
    def test_labelled_counts_accumulate(self):
        registry = MetricsRegistry()
        family = registry.counter_family("vm.ops", "opcode")
        family.inc("CALL")
        family.inc("CALL", 2)
        family.inc("HOP", 5)
        assert family.get("CALL") == 3
        assert family.get("HOP") == 5
        snapshot = registry.snapshot()
        assert snapshot["vm.ops{opcode=CALL}"] == 3
        assert snapshot["vm.ops{opcode=HOP}"] == 5

    def test_family_cannot_decrease(self):
        family = CounterFamily("f", "l")
        with pytest.raises(ValueError):
            family.inc("x", -1)


class TestNameCollisions:
    def test_kind_mismatch(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(MetricNameError):
            registry.gauge("a.b")

    def test_metric_cannot_shadow_subtree(self):
        registry = MetricsRegistry()
        registry.counter("des.events")
        with pytest.raises(MetricNameError):
            registry.counter("des")  # "des" is now a branch

    def test_metric_cannot_be_extended(self):
        registry = MetricsRegistry()
        registry.counter("des")
        with pytest.raises(MetricNameError):
            registry.counter("des.events")  # "des" is already a leaf

    def test_bad_names(self):
        registry = MetricsRegistry()
        for bad in ("", ".x", "x."):
            with pytest.raises(MetricNameError):
                registry.counter(bad)


class TestDisabledRegistry:
    def test_everything_is_a_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc()
        registry.gauge("b").set(9)
        registry.histogram("c").observe(1.0)
        registry.counter_family("d", "l").inc("x")
        registry.count("e", 5)
        registry.charge("compute", 1.0)
        registry.span("t", "s", "compute", 0.0, 1.0)
        registry.instant("t", "i", 0.5)
        assert registry.snapshot() == {}
        assert registry.ledger == {}
        assert registry.spans == []
        assert registry.instants == []

    def test_sim_without_registry_runs(self):
        sim = Simulator()
        assert sim.metrics is None
        sim.timeout(1.0)
        sim.run()
        assert sim.now == 1.0


class TestLedgerAndSpans:
    def test_charge_accumulates(self):
        registry = MetricsRegistry()
        registry.charge("copies", 0.25)
        registry.charge("copies", 0.75)
        assert registry.ledger["copies"] == 1.0
        assert registry.ledger_total() == 1.0

    def test_span_charges_its_category(self):
        registry = MetricsRegistry()
        registry.span("host0", "work", "compute", 1.0, 3.0)
        assert registry.ledger["compute"] == 2.0

    def test_uncharged_span(self):
        registry = MetricsRegistry()
        registry.span("host0", "envelope", None, 0.0, 1.0)
        registry.span("host0", "pre-charged", "compute", 0.0, 1.0,
                      charge=False)
        assert registry.ledger == {}
        assert len(registry.spans) == 2

    def test_span_capacity(self):
        registry = MetricsRegistry(span_capacity=2)
        for index in range(5):
            registry.span("t", f"s{index}", None, 0.0, 1.0)
            registry.instant("t", f"i{index}", 0.0)
        assert len(registry.spans) == 2
        assert registry.spans_dropped == 3
        assert registry.instants_dropped == 3

    def test_tracks_sorted(self):
        registry = MetricsRegistry()
        registry.span("b", "s", None, 0, 1)
        registry.instant("a", "i", 0)
        assert registry.tracks() == ["a", "b"]

    def test_clear_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.count("hits", 3)
        registry.charge("wire", 1.0)
        registry.span("t", "s", None, 0, 1)
        registry.clear()
        assert registry.value("hits") == 0
        assert "hits" in registry
        assert registry.ledger == {}
        assert registry.spans == []


class TestSnapshotDeterminism:
    def test_insertion_order_does_not_matter(self):
        first = MetricsRegistry()
        first.count("b", 1)
        first.count("a", 2)
        first.counter_family("f", "l").inc("z", 1)
        first.counter_family("f", "l").inc("a", 2)
        second = MetricsRegistry()
        second.counter_family("f", "l").inc("a", 2)
        second.counter_family("f", "l").inc("z", 1)
        second.count("a", 2)
        second.count("b", 1)
        assert first.snapshot() == second.snapshot()
        assert list(first.snapshot()) == list(second.snapshot())


class TestDesIntegration:
    def test_events_executed_counter(self):
        sim = Simulator()
        sim.metrics = MetricsRegistry()
        for delay in (1.0, 2.0, 3.0):
            sim.timeout(delay)
        sim.run()
        assert sim.metrics.value("des.events_executed") == 3

    def test_disabled_registry_is_not_consulted(self):
        sim = Simulator()
        sim.metrics = MetricsRegistry(enabled=False)
        sim.timeout(1.0)
        sim.run()
        assert sim.metrics.snapshot() == {}


class TestChromeTrace:
    def _populated(self):
        registry = MetricsRegistry()
        registry.span("host0", "work", "compute", 1.0, 3.0,
                      args={"block": 7})
        registry.span("eth0", "frame", "wire", 2.0, 2.5)
        registry.instant("host0", "hop", 2.25, args={"messenger": 1})
        return registry

    def test_round_trip(self, tmp_path):
        registry = self._populated()
        path = tmp_path / "trace.json"
        events_written = dump_chrome_trace(registry, str(path))
        trace = json.loads(path.read_text())
        assert len(trace["traceEvents"]) == events_written
        # 2 thread_name metadata + 2 spans + 1 instant
        assert events_written == 5
        by_phase = {}
        for event in trace["traceEvents"]:
            by_phase.setdefault(event["ph"], []).append(event)
        assert len(by_phase["M"]) == 2
        assert len(by_phase["X"]) == 2
        assert len(by_phase["i"]) == 1
        work = next(e for e in by_phase["X"] if e["name"] == "work")
        assert work["ts"] == pytest.approx(1.0e6)  # seconds -> us
        assert work["dur"] == pytest.approx(2.0e6)
        assert work["args"] == {"block": 7}
        # Tracks map to stable thread ids with name metadata.
        names = {e["tid"]: e["args"]["name"] for e in by_phase["M"]}
        assert set(names.values()) == {"host0", "eth0"}
        assert by_phase["i"][0]["tid"] == [
            tid for tid, name in names.items() if name == "host0"
        ][0]

    def test_jsonl_lines_parse(self):
        registry = self._populated()
        lines = to_jsonl(registry)
        records = [json.loads(line) for line in lines]
        types = [record["type"] for record in records]
        assert types.count("span") == 2
        assert types.count("instant") == 1
        assert types[-2:] == ["snapshot", "ledger"]
        assert records[-1]["categories"] == {"compute": 2.0, "wire": 0.5}


class TestBreakdown:
    def test_percentages_tile_the_timeline(self):
        registry = MetricsRegistry()
        registry.charge("compute", 6.0)
        registry.charge("wire", 2.0)
        breakdown = cost_breakdown(registry, elapsed_s=5.0, n_tracks=2)
        assert breakdown["timeline_s"] == 10.0
        assert breakdown["accounted_s"] == 8.0
        assert breakdown["idle_s"] == pytest.approx(2.0)
        total_percent = sum(
            data["percent"] for data in breakdown["categories"].values()
        ) + 100.0 * breakdown["idle_s"] / breakdown["timeline_s"]
        assert total_percent == pytest.approx(100.0)
        text = format_breakdown(breakdown)
        assert "compute" in text and "idle" in text and "100.00%" in text

    def test_format_counters(self):
        registry = MetricsRegistry()
        registry.count("a.hits", 3)
        registry.observe("a.lat", 0.5)
        text = format_counters(registry, prefix="a.")
        assert "a.hits" in text and "n=1" in text


class TestAccountingIdentity:
    """Categories + idle must tile n_tracks x elapsed on real runs."""

    def _check(self, registry, elapsed, n_tracks):
        breakdown = cost_breakdown(registry, elapsed, n_tracks)
        accounted = breakdown["accounted_s"]
        assert accounted > 0
        assert accounted <= breakdown["timeline_s"] * (1 + 1e-9)
        assert accounted + breakdown["idle_s"] == pytest.approx(
            breakdown["timeline_s"], rel=1e-9
        )
        # The ISSUE's acceptance bar: the breakdown explains the run's
        # total simulated time to within 1% (here: exactly).
        share = sum(
            data["percent"] for data in breakdown["categories"].values()
        )
        idle_share = 100.0 * breakdown["idle_s"] / breakdown["timeline_s"]
        assert share + idle_share == pytest.approx(100.0, abs=1e-6)
        return breakdown

    def test_messengers_mandelbrot(self):
        from repro.apps.mandelbrot.kernel import TaskGrid
        from repro.apps.mandelbrot.messengers_app import run_messengers

        registry = MetricsRegistry()
        result = run_messengers(TaskGrid(64, 4), 3, metrics=registry)
        breakdown = self._check(registry, result.seconds, n_tracks=5)
        # A messengers run interprets scripts and dispatches hops.
        for category in ("compute", "wire", "interpretation", "dispatch"):
            assert breakdown["categories"][category]["seconds"] > 0
        assert registry.value("messengers.hops") > 0
        assert registry.value("des.events_executed") > 0

    def test_pvm_mandelbrot(self):
        from repro.apps.mandelbrot.kernel import TaskGrid
        from repro.apps.mandelbrot.pvm_app import run_pvm

        registry = MetricsRegistry()
        result = run_pvm(TaskGrid(64, 4), 3, metrics=registry)
        breakdown = self._check(registry, result.seconds, n_tracks=5)
        # A PVM run pays for marshalling copies and protocol overhead.
        for category in ("compute", "copies", "wire", "protocol"):
            assert breakdown["categories"][category]["seconds"] > 0
        assert registry.value("mp.messages_sent") > 0
        assert registry.value("mp.pack.bytes_copied") > 0

    def test_wire_ledger_matches_segment_occupancy(self):
        from repro.apps.mandelbrot.kernel import TaskGrid
        from repro.apps.mandelbrot.pvm_app import run_pvm

        registry = MetricsRegistry()
        run_pvm(TaskGrid(64, 4), 2, metrics=registry)
        assert registry.ledger["wire"] > 0
        # Every wire charge is one Ethernet frame span; the exporter
        # sees the same intervals.
        frame_time = sum(
            span.duration
            for span in registry.spans
            if span.category == "wire"
        )
        assert frame_time == pytest.approx(registry.ledger["wire"])


class TestOpcodeCounts:
    def test_per_opcode_family(self):
        from repro.apps.mandelbrot.kernel import TaskGrid
        from repro.apps.mandelbrot.messengers_app import run_messengers

        registry = MetricsRegistry(opcode_counts=True)
        run_messengers(TaskGrid(32, 2), 2, metrics=registry)
        family = registry.counter_family("mcl.vm.instructions", "opcode")
        total = sum(family.values.values())
        assert total == registry.value("mcl.vm.instructions_total")
        assert total > 0

    def test_off_by_default(self):
        from repro.apps.mandelbrot.kernel import TaskGrid
        from repro.apps.mandelbrot.messengers_app import run_messengers

        registry = MetricsRegistry()
        run_messengers(TaskGrid(32, 2), 2, metrics=registry)
        snapshot = registry.snapshot()
        assert not any("opcode=" in name for name in snapshot)
        assert registry.value("mcl.vm.instructions_total") > 0


class TestTracerFold:
    """messengers.trace.Tracer consumes the shared obs event model."""

    def test_tracer_and_metrics_see_the_same_events(self):
        from repro.des import Simulator
        from repro.messengers import MessengersSystem, Tracer
        from repro.netsim import build_lan

        sim = Simulator()
        sim.metrics = MetricsRegistry()
        system = MessengersSystem(build_lan(sim, 2))
        tracer = Tracer.attach(system)
        system.inject("f() { create(ALL); hop(ll = $last); }")
        system.run_to_quiescence()
        assert len(tracer.events) > 0
        # Every tracer record came from an InstantEvent recorded in the
        # registry too (same count, same kinds).
        instants = [
            event for event in sim.metrics.instants
            if event.args and "messenger" in event.args
        ]
        assert len(instants) == len(tracer.events)
        assert {e.name for e in instants} == {
            t.kind for t in tracer.events
        }

    def test_legacy_record_api(self):
        from types import SimpleNamespace

        from repro.messengers.trace import Tracer

        messenger = SimpleNamespace(
            id=7,
            program=SimpleNamespace(name="f"),
            vt=2.0,
            node=SimpleNamespace(display_name="init"),
        )
        tracer = Tracer()
        tracer.record(1.5, messenger, "hop", "host0", "detail text")
        event = tracer.events[0]
        assert event.time == 1.5
        assert event.messenger == 7
        assert event.kind == "hop"
        assert event.daemon == "host0"
        assert event.node == "init"
        assert event.detail == "detail text"

    def test_consume_instant_event(self):
        from repro.messengers.trace import Tracer

        tracer = Tracer()
        tracer.consume(
            InstantEvent(
                track="host1",
                name="create",
                t=0.25,
                args={"messenger": 3, "program": "f", "vt": 1.0,
                      "node": "init", "detail": "x"},
            )
        )
        event = tracer.events[0]
        assert event.kind == "create"
        assert event.daemon == "host1"
        assert event.vt == 1.0
        assert event.program == "f"


class TestCategoriesConstant:
    def test_paper_taxonomy(self):
        assert CATEGORIES == (
            "compute", "copies", "wire", "interpretation",
            "dispatch", "protocol", "gvt",
        )
