"""SCALE-PERF — the scale sweep versus ``BENCH_scale.json``.

Two guards with different portability, same contract as the other perf
suites:

* The *simulated* side (final sim time, event count, remote-hop count
  at every grid point) is deterministic — the truncated smoke grid
  must match the committed blob bit-for-bit on any host.  Any
  divergence means the scale path changed simulated behaviour.
* ``events_per_sec`` is wall-clock.  The regression gate is
  host-normalised so machine speed cancels out: the *scale degradation
  ratio* (largest smoke point's throughput over the smallest
  measurement-grade point's) may lose at most 25% versus the same
  ratio in the committed blob.  An accidental O(log n) or O(n) creep
  in the per-event path shows up exactly there.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.scale_experiments import (
    BASELINE,
    SMOKE_FACTORS,
    run_scale_bench,
)

BENCH_SCALE = Path(__file__).resolve().parents[1] / "BENCH_scale.json"

_SIMULATED_KEYS = ("daemons", "nodes", "messengers", "sim_seconds",
                   "events", "remote_hops")

#: The wall gate compares the throughput *ratio* largest/normaliser.
#: Factor 1 runs ~10 ms of wall — too noisy to normalise by — so the
#: mid smoke point is the normaliser and the largest the gated point.
GATE_FACTOR = SMOKE_FACTORS[-1]
NORM_FACTOR = SMOKE_FACTORS[-2]
ALLOWED_REGRESSION = 0.25


def _blob():
    if not hasattr(_blob, "cached"):
        # run_scale_bench itself asserts repeat agreement and
        # bit-identity against the module BASELINE at every point.
        _blob.cached = run_scale_bench(factors=SMOKE_FACTORS, repeats=2)
    return _blob.cached


def _point(report, factor):
    for point in report["points"]:
        if point["factor"] == factor:
            return point
    raise AssertionError(f"factor {factor} missing from scale report")


def test_committed_blob_matches_module_baseline():
    committed = json.loads(BENCH_SCALE.read_text())
    assert committed["baseline"] == BASELINE, (
        "BENCH_scale.json is out of sync with "
        "repro.bench.scale_experiments.BASELINE — regenerate it with "
        "`python -m repro bench scale --out BENCH_scale.json`"
    )


def test_committed_full_grid_met_the_2x_target():
    committed = json.loads(BENCH_SCALE.read_text())
    current = committed["current"]
    assert current["within_2x"] is True
    ratio = current["largest_vs_smallest_evps"]
    assert ratio >= 0.5, (
        f"committed blob shows throughput at 1000x fell below half of "
        f"small-scale ({ratio:.2f}x)"
    )


def test_smoke_grid_is_bit_identical_to_committed(show):
    committed = json.loads(BENCH_SCALE.read_text())
    for factor in SMOKE_FACTORS:
        pinned = _point(committed["current"], factor)
        current = _point(_blob()["current"], factor)
        for key in _SIMULATED_KEYS:
            assert current[key] == pinned[key], (
                f"factor {factor}: simulated {key} diverged from the "
                f"committed BENCH_scale.json ({current[key]!r} vs "
                f"{pinned[key]!r}) — the scale path changed behaviour"
            )
    show(f"smoke factors {SMOKE_FACTORS}: simulated results bit-identical")


def _evps_ratio(report) -> float:
    return (
        _point(report, GATE_FACTOR)["events_per_sec"]
        / _point(report, NORM_FACTOR)["events_per_sec"]
    )


def test_throughput_ratio_regression_gate(show):
    committed = json.loads(BENCH_SCALE.read_text())
    pinned_ratio = _evps_ratio(committed["current"])
    current_ratio = _evps_ratio(_blob()["current"])
    floor = pinned_ratio * (1.0 - ALLOWED_REGRESSION)
    show(
        f"evps ratio {GATE_FACTOR}x/{NORM_FACTOR}x = "
        f"{current_ratio:.3f} (committed {pinned_ratio:.3f}, "
        f"floor {floor:.3f})"
    )
    assert current_ratio >= floor, (
        f"throughput at factor {GATE_FACTOR} degraded "
        f"{(1 - current_ratio / pinned_ratio) * 100:.0f}% relative to "
        f"factor {NORM_FACTOR} vs the committed blob — per-event cost "
        f"is no longer scale-independent"
    )
