"""PERF — simulator throughput: floors and the closures-backend leg.

Two measurements (no pytest-benchmark dependency — the CI perf-smoke
job runs this file with plain pytest):

* the absolute throughput suite (events/sec, opcodes/sec, packets/sec)
  with generous sanity floors;
* the closures-backend leg: the MCL closures compiler (one generated
  function per program; the raced program's hop-free loop runs as a
  structured ``while`` over Python locals) raced against the
  int-opcode interpreter back-to-back in one process
  (floor + a 25% ratio-regression guard against the committed
  ``BENCH_perf.json``).  Its bit-identity gate lives in
  ``tests/test_perf_determinism.py`` and runs in the same CI job.

Kernel and packet-path speed is compared commit against commit with
``benchmark/run.py --compare``.
"""

import json
from functools import lru_cache
from pathlib import Path

from repro.perf import throughput_suite, vm_backend_speedup

BENCH_PERF = Path(__file__).resolve().parents[1] / "BENCH_perf.json"


@lru_cache(maxsize=None)
def _backend_speedup() -> dict:
    return vm_backend_speedup(n=20_000, rounds=15)


def test_throughput_suite_floors(show):
    suite = throughput_suite(scale=0.25, repeats=3)
    for name, probe in sorted(suite.items()):
        show(f"{name:<14} {probe['per_sec']:>12,.0f}/s  (n={probe['n']})")
    # Deliberately loose floors — they catch catastrophic regressions
    # (an accidental O(n^2) or a debug path left on), not host speed.
    assert suite["des_events"]["per_sec"] > 200_000
    assert suite["store_events"]["per_sec"] > 150_000
    assert suite["vm_opcodes"]["per_sec"] > 1_000_000
    assert suite["net_packets"]["per_sec"] > 5_000


def test_closures_backend_speedup_floor(show):
    # The closures-backend leg of the perf-smoke job.  The acceptance
    # target (>=3x, recorded in BENCH_perf.json) is measured on a quiet
    # host; the CI floor is deliberately looser.
    result = _backend_speedup()
    show(
        f"MCL closures: {result['closures_per_sec']:,.0f} op/s vs "
        f"interp {result['interp_per_sec']:,.0f} op/s -> "
        f"{result['speedup']:.2f}x"
    )
    assert result["speedup"] >= 2.0


def test_closures_no_regression_vs_committed_baseline(show):
    committed = json.loads(BENCH_PERF.read_text())
    pinned = committed["current"]["backends"]["closures_speedup"]
    measured = _backend_speedup()["speedup"]
    show(
        f"closures: speedup vs interp {measured:.2f}x "
        f"(committed {pinned:.2f}x)"
    )
    assert measured >= 0.75 * pinned, (
        "closures backend: opcodes/sec regressed >25% against the "
        f"committed BENCH_perf.json baseline "
        f"({measured:.2f}x vs {pinned:.2f}x)"
    )
