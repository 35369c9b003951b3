"""Tests for the matrix-multiplication application (all four versions)."""

import numpy as np
import pytest

from repro.apps.matmul import (
    make_matrices,
    multiply_flops,
    multiply_working_set,
    run_blocked,
    run_messengers,
    run_naive,
    run_pvm,
)
from repro.apps.matmul.kernel import block_of, set_block
from repro.netsim import ethernet
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def operands():
    return make_matrices(60, seed=3)


@pytest.fixture(scope="module")
def reference(operands):
    a, b = operands
    return a @ b


class TestKernelHelpers:
    def test_block_round_trip(self, operands):
        a, _ = operands
        block = block_of(a, 1, 2, 20)
        copy = a.copy()
        set_block(copy, 1, 2, 20, np.zeros((20, 20)))
        assert not np.array_equal(copy, a)
        set_block(copy, 1, 2, 20, block)
        assert np.array_equal(copy, a)

    def test_flops_and_working_set(self):
        assert multiply_flops(100) == 2e6
        assert multiply_working_set(100) == 240_000

    def test_matrices_deterministic(self):
        a1, b1 = make_matrices(16, seed=9)
        a2, b2 = make_matrices(16, seed=9)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


class TestSequential:
    def test_naive_correct(self, operands, reference):
        a, b = operands
        assert np.allclose(run_naive(a, b).c, reference)

    def test_blocked_correct(self, operands, reference):
        a, b = operands
        for m in (2, 3):
            assert np.allclose(run_blocked(a, b, m).c, reference)

    def test_blocked_requires_divisibility(self, operands):
        a, b = operands
        with pytest.raises(ValueError):
            run_blocked(a, b, 7)

    def test_blocking_speedup_for_large_matrices(self):
        """The paper's ~13% claim (TXT-BLK) — cache model, no actual
        1500x1500 arithmetic needed to check the *cost* ratio."""
        from repro.netsim import DEFAULT_COSTS

        n, m = 1500, 3
        s = n // m
        naive_cost = DEFAULT_COSTS.compute_seconds(
            multiply_flops(n), 3 * n * n * 8
        )
        blocked_cost = (m ** 3) * DEFAULT_COSTS.compute_seconds(
            multiply_flops(s), multiply_working_set(s)
        )
        speedup = naive_cost / blocked_cost
        assert 1.05 < speedup < 1.25  # paper: roughly 13%

    def test_small_matrices_see_no_blocking_gain(self, operands):
        a, b = operands
        naive = run_naive(a, b).seconds
        blocked = run_blocked(a, b, 2).seconds
        assert naive == pytest.approx(blocked, rel=0.01)


class TestDistributedCorrectness:
    def test_pvm_2x2(self, operands, reference):
        a, b = operands
        assert np.allclose(run_pvm(a, b, 2).c, reference)

    def test_pvm_3x3(self, operands, reference):
        a, b = operands
        assert np.allclose(run_pvm(a, b, 3).c, reference)

    def test_messengers_2x2(self, operands, reference):
        a, b = operands
        assert np.allclose(run_messengers(a, b, 2).c, reference)

    def test_messengers_3x3(self, operands, reference):
        a, b = operands
        assert np.allclose(run_messengers(a, b, 3).c, reference)

    def test_messengers_1x1(self, reference, operands):
        a, b = operands
        result = run_messengers(a, b, 1)
        assert np.allclose(result.c, reference)

    def test_pvm_1x1(self, reference, operands):
        a, b = operands
        assert np.allclose(run_pvm(a, b, 1).c, reference)

    def test_divisibility_enforced(self, operands):
        a, b = operands
        with pytest.raises(ValueError):
            run_pvm(a, b, 7)
        with pytest.raises(ValueError):
            run_messengers(a, b, 7)


class TestVirtualTimeCoordination:
    def test_gvt_rounds_scale_with_m(self, operands):
        a, b = operands
        r2 = run_messengers(a, b, 2)
        r3 = run_messengers(a, b, 3)
        # one round per tick and half-tick: ~2m advances
        assert r3.gvt_rounds > r2.gvt_rounds >= 2

    def test_block_transfers_happen(self, operands):
        a, b = operands
        result = run_messengers(a, b, 2)
        # A-distribution: 2 rows x 1; B-rotation: 4 nodes x 2 iterations
        assert result.hops_remote >= 8


class TestCountedRuns:
    @pytest.mark.parametrize("runner", [run_messengers, run_pvm])
    def test_counted_frames_equal_the_segment_count(
        self, operands, monkeypatch, runner
    ):
        segments = []
        build = ethernet.EthernetSegment.__init__

        def recording(segment, *args, **kwargs):
            build(segment, *args, **kwargs)
            segments.append(segment)

        monkeypatch.setattr(ethernet.EthernetSegment, "__init__", recording)
        a, b = operands
        registry = MetricsRegistry()
        plain = runner(a, b, 3)
        counted = runner(a, b, 3, metrics=registry)
        assert counted.seconds == plain.seconds
        frames = registry.snapshot()["netsim.eth.frames"]
        assert frames == segments[-1].frames_carried > 9


class TestPerformanceShape:
    def test_pvm_wins_at_small_blocks(self):
        a, b = make_matrices(60)
        pvm = run_pvm(a, b, 3, cpu_scale=1.55).seconds
        msgr = run_messengers(a, b, 3, cpu_scale=1.55).seconds
        assert pvm < msgr

    def test_messengers_wins_at_large_blocks(self):
        a, b = make_matrices(300)
        pvm = run_pvm(a, b, 3, cpu_scale=1.55).seconds
        msgr = run_messengers(a, b, 3, cpu_scale=1.55).seconds
        assert msgr < pvm

    def test_parallel_speedup_over_blocked(self):
        """Large matrices: 4 processors beat the blocked sequential
        version clearly (Figure 12a's right-hand side)."""
        a, b = make_matrices(600)
        blocked = run_blocked(a, b, 2).seconds
        msgr = run_messengers(a, b, 2).seconds
        assert blocked / msgr > 1.5
