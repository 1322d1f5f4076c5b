"""AR(1) fit and the simulated p-value unit root test."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import oracles
from partlin.errors import ParameterError
from partlin.markov import simulate_ar1, simulate_random_walk
from partlin.rng import BLOCK_CELLS, block_rows, standard_normal
from partlin.unitroot import (
    DfResult,
    df_statistic,
    df_test,
    _simulated_t,
    simulated_pvalue,
)


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
