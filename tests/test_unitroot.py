"""AR(1) fit and the simulated p-value unit root test."""

import concurrent.futures
import math
import os
import random
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import oracles
from partlin import unitroot
from partlin.errors import ParameterError
from partlin.markov import simulate_ar1, simulate_random_walk
from partlin.rng import (
    BLOCK_CELLS,
    MAX_THREADS,
    block_rows,
    normal_block,
    standard_normal,
)
from partlin.unitroot import (
    DfResult,
    df_statistic,
    df_test,
    _simulated_t,
    simulated_pvalue,
)


def patch_cores(monkeypatch, cores):
    """Make this process look as if it may run on ``cores`` cores."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False
    )


@pytest.fixture
def fast_switching():
    """Threads switch every microsecond, so blocks interleave finely."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each thread pool made while the test runs."""
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return made


def test_slope_by_hand():
    # sum z_{t-1} z_t = 8, sum z_{t-1}^2 = 5
    assert df_test(np.array([1.0, 2.0, 3.0]), reps=100).rho_hat == 8.0 / 5.0


def test_statistic_by_hand():
    z = np.array([1.0, 2.0, 3.0])
    # slope 8/5, residuals (0.4, -0.2), one degree of freedom,
    # s^2 = 0.2, se = sqrt(0.2 / 5) = 0.2, t = 0.6 / 0.2
    assert df_statistic(z) == pytest.approx(3.0, rel=1e-12)


def test_statistic_matches_oracle():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(5, 60)
        z = [rng.gauss(0.0, 1.0) for _ in range(n)]
        z[0] += 3.0  # keep the lagged series away from zero
        got = df_statistic(np.array(z))
        assert got == pytest.approx(oracles.oracle_df_t(z), rel=1e-12)


def test_input_validation():
    with pytest.raises(ParameterError):
        df_statistic(np.array([1.0, 2.0]))
    with pytest.raises(ParameterError, match="finite"):
        df_statistic(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ParameterError, match="zero"):
        df_statistic(np.array([0.0, 0.0, 0.0]))
    with pytest.raises(ParameterError, match="deterministic"):
        df_statistic(np.array([1.0, 2.0, 4.0, 8.0]))


def test_pvalue_validation():
    with pytest.raises(ParameterError, match="t_stat"):
        simulated_pvalue(np.nan, 100, 200, 0)
    with pytest.raises(ParameterError, match="n"):
        simulated_pvalue(-1.0, 2, 200, 0)
    with pytest.raises(ParameterError, match="reps"):
        simulated_pvalue(-1.0, 100, 50, 0)


def test_pvalue_monotone_and_deterministic():
    args = dict(n=200, reps=400, seed=9)
    p_low = simulated_pvalue(-4.0, **args)
    p_mid = simulated_pvalue(-1.5, **args)
    p_high = simulated_pvalue(1.0, **args)
    assert p_low <= p_mid <= p_high
    assert simulated_pvalue(-1.5, **args) == p_mid
    assert simulated_pvalue(-100.0, **args) == 0.0
    assert simulated_pvalue(100.0, **args) == 1.0


def test_null_draws_follow_their_streams_across_blocks():
    """Path r of the null is the walk of stream r, whichever block of
    the simulation holds it; 150 paths span four blocks."""
    n, reps, seed = BLOCK_CELLS // 50 + 1, 150, 6
    assert -(-reps // block_rows(n)) == 4
    want = [df_statistic(np.cumsum(standard_normal(seed, r, n))) for r in range(reps)]
    np.testing.assert_allclose(_simulated_t(n, reps, seed), want, rtol=1e-10)


def test_null_simulation_memory_is_bounded():
    """The null paths are never all held at once: the peak stays well
    below the reps * n floats of the whole simulation."""
    n, reps = 5000, 400
    tracemalloc.start()
    try:
        simulated_pvalue(-1.5, n, reps, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < reps * n * 8 / 4


@pytest.mark.parametrize("n, reps", [(BLOCK_CELLS // 50 + 1, 150), (500, 2000)])
def test_null_draws_are_identical_for_any_core_count(
    monkeypatch, fast_switching, n, reps
):
    """Four and sixteen blocks give the same bytes on 1, 2, 3 and 64
    cores, the last capped at MAX_THREADS threads, more than this host
    may have."""
    draws = {}
    for cores in (1, 2, 3, 64):
        patch_cores(monkeypatch, cores)
        draws[cores] = _simulated_t(n, reps, 4).tobytes()
    for cores in (2, 3, 64):
        assert draws[cores] == draws[1]


@pytest.mark.parametrize("n, reps, rows", [(4000, 1000, 32), (8000, 1100, 32)])
def test_null_draws_are_identical_for_any_block_budget(monkeypatch, n, reps, rows):
    """One walk a block, ``block_rows(n)`` walks and the budget of a
    draw that keeps sums, ``block_rows(n, reps)``, give the same bytes on
    1 and 2 cores.  The last makes 2x and 4x fewer blocks, capped by a
    1/32 share of the walks at n = 4000 and by SUM_CELLS at n = 8000."""
    assert block_rows(n, reps) == rows > block_rows(n)
    draws = set()
    for budget in (1, block_rows(n), rows):
        monkeypatch.setattr(unitroot, "block_rows", lambda size, streams=0: budget)
        for cores in (1, 2):
            patch_cores(monkeypatch, cores)
            draws.add(_simulated_t(n, reps, 5).tobytes())
    assert len(draws) == 1


def test_null_walks_are_drawn_in_blocks_of_the_sum_budget(monkeypatch):
    """1000 walks of 4000 run 32 a block, not the 16 of block_rows(4000)."""
    sizes = []

    def counted(seed, streams, size):
        sizes.append(len(streams))
        return normal_block(seed, streams, size)

    monkeypatch.setattr(unitroot, "normal_block", counted)
    patch_cores(monkeypatch, 1)
    _simulated_t(4000, 1000, 0)
    assert sizes == [32] * 31 + [8]


def test_thread_pool_only_for_several_blocks_and_cores(monkeypatch, pools):
    """One block, or one core, runs inline; several blocks on many cores
    start one pool of at most MAX_THREADS threads."""
    patch_cores(monkeypatch, 64)
    assert block_rows(500) >= 100
    _simulated_t(500, 100, 0)
    assert pools == []
    _simulated_t(500, 2000, 0)
    assert pools == [MAX_THREADS]
    patch_cores(monkeypatch, 1)
    _simulated_t(500, 2000, 0)
    assert pools == [MAX_THREADS]


def test_null_simulation_memory_is_bounded_on_a_large_host(monkeypatch):
    """The memory bound holds with every allowed thread holding a block."""
    patch_cores(monkeypatch, 64)
    test_null_simulation_memory_is_bounded()


def test_df_test_on_a_random_walk():
    z = simulate_random_walk(300, 1.0, 0.0, 11)
    res = df_test(z, reps=500, seed=1)
    assert res.sim_reps == 500
    assert 0.0 <= res.p_value <= 1.0
    assert res.p_value > 0.05  # the null is true here
    assert abs(res.rho_hat - 1.0) < 0.05


def test_df_test_rejects_stationary_series():
    z = simulate_ar1(400, 0.2, 1.0, 12)
    res = df_test(z, reps=500, seed=2)
    assert res.p_value <= 0.01
    assert res.t_stat < -5.0


def test_df_result_validates_p():
    with pytest.raises(ParameterError, match="p_value"):
        DfResult(rho_hat=1.0, t_stat=0.0, p_value=1.5, sim_reps=100)


def test_null_pvalues_roughly_uniform():
    """A small calibration run; the acceptance suite scales this up."""
    ps = []
    for trial in range(40):
        z = simulate_random_walk(200, 1.0, 0.0, 50_000 + trial)
        ps.append(df_test(z, reps=400, seed=90_000 + trial).p_value)
    d = stats.kstest(ps, "uniform").statistic
    assert d < 0.25
