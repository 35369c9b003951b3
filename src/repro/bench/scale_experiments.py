"""Scale experiment driver: the numbers behind ``BENCH_scale.json``.

``repro bench scale`` sweeps :data:`repro.perf.scale.SCALE_GRID` —
daemon count x logical-ring size x walker-Messenger population growing
three orders of magnitude (72 -> 72,000 logical entities) — and
asserts at every point that the simulated results match
:data:`BASELINE` bit for bit.

Two kinds of numbers come out, same contract as the other suites:

* The *simulated* results per point (final sim time, event count,
  remote-hop count) are deterministic — the workload draws no random
  numbers at all — and must reproduce bit-identically on any host.
  :data:`BASELINE` pins them; the CI ``scale-smoke`` job replays the
  truncated :data:`SMOKE_FACTORS` grid and fails on any divergence.
* ``events_per_sec`` is wall-clock and moves with the machine.  The
  headline claim (ROADMAP scale target) is the *ratio*: throughput at
  the 1000x point must stay within 2x of the smallest point.  CI
  additionally guards absolute regressions at the largest smoke point,
  normalised by the smallest point so host speed cancels out.
"""

from __future__ import annotations

from ..perf.scale import HOPS_PER_WALKER, SCALE_GRID, run_scale_sweep

__all__ = ["BASELINE", "SMOKE_FACTORS", "run_scale_bench"]

#: Grid factors the CI ``scale-smoke`` job replays (a truncated sweep:
#: the full 1000x point takes ~25 s of wall per run, the smoke points
#: seconds).  The largest smoke factor is the regression-gate point.
SMOKE_FACTORS = (1, 10, 100)

#: What the scale sweep measured when the committed
#: ``BENCH_scale.json`` was captured.  ``sim_seconds`` / ``events`` /
#: ``remote_hops`` are simulated and must reproduce bit-identically on
#: any host.
BASELINE: dict = {
    "captured": "scale layer at introduction (v1.4.0)",
    "hops_per_walker": HOPS_PER_WALKER,
    "points": {
        "1": {
            "daemons": 4,
            "nodes": 64,
            "messengers": 8,
            "sim_seconds": 0.1060639999999998,
            "events": 1043,
            "remote_hops": 128,
        },
        "10": {
            "daemons": 8,
            "nodes": 640,
            "messengers": 80,
            "sim_seconds": 1.0121899999999733,
            "events": 10401,
            "remote_hops": 1280,
        },
        "100": {
            "daemons": 16,
            "nodes": 6400,
            "messengers": 800,
            "sim_seconds": 10.064001999998293,
            "events": 104533,
            "remote_hops": 12800,
        },
        "1000": {
            "daemons": 32,
            "nodes": 64000,
            "messengers": 8000,
            "sim_seconds": 100.61052000017939,
            "events": 1047287,
            "remote_hops": 128000,
        },
    },
}


def run_scale_bench(factors=None, repeats: int = 1) -> dict:
    """Run the scale sweep and shape the ``BENCH_scale.json`` blob.

    ``factors`` selects a subset of :data:`SCALE_GRID` (e.g. the CI
    smoke grid); ``repeats`` re-runs each point, keeping the best
    wall-clock throughput (simulated values are asserted identical
    across repeats).
    """
    grid = [
        spec
        for spec in SCALE_GRID
        if factors is None or spec["factor"] in set(factors)
    ]
    report = run_scale_sweep(grid=grid)
    for _ in range(max(0, repeats - 1)):
        again = run_scale_sweep(grid=grid)
        for best, fresh in zip(report["points"], again["points"]):
            for key in ("sim_seconds", "events", "remote_hops"):
                if best[key] != fresh[key]:
                    raise AssertionError(
                        f"repeat diverged on {key} at factor "
                        f"{best['factor']}: {best[key]} != {fresh[key]}"
                    )
            if fresh["events_per_sec"] > best["events_per_sec"]:
                best["events_per_sec"] = fresh["events_per_sec"]
                best["wall_s"] = fresh["wall_s"]
        if len(report["points"]) >= 2:
            small, large = report["points"][0], report["points"][-1]
            ratio = large["events_per_sec"] / small["events_per_sec"]
            report["largest_vs_smallest_evps"] = ratio
            report["within_2x"] = ratio >= 0.5
    for point in report["points"]:
        golden = BASELINE["points"].get(str(point["factor"]))
        if golden is not None:
            for key in ("sim_seconds", "events", "remote_hops"):
                if point[key] != golden[key]:
                    raise AssertionError(
                        f"simulated {key} at factor {point['factor']} "
                        f"diverged from BASELINE: {point[key]!r} != "
                        f"{golden[key]!r}"
                    )
    return {"suite": "scale", "baseline": BASELINE, "current": report}
