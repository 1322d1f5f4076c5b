"""Estimator core: detrended least squares, covariances and curves."""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import oracles
from helpers import as_dataset, build_dataset, tiny_fixture
from partlin import TimeSeriesDataset
from partlin.errors import ParameterError, RankError, TruncationError
from partlin.bandwidth import cv_select, default_h_grid
from partlin.kernel import KernelSpec, SortedView, TruncationSpec, default_truncation
from partlin.markov import SmallSet, simulate_random_walk
from partlin.montecarlo import table_grid
from partlin.rng import standard_normal
from partlin.sls import (
    asymptotic_ci,
    default_max_lag,
    estimate_g,
    estimate_h,
    longrun_covariance,
    naive_sls,
    residuals,
    truncated_sls,
    truncated_theta,
)

UNIT_TRUNC = TruncationSpec(0.05, SmallSet(-1.0, 1.0))


def test_naive_theta_matches_oracle():
    rng = random.Random(11)
    checked = 0
    for _ in range(12):
        y, x, v, family, h, _, _, _ = tiny_fixture(rng)
        ds = as_dataset(y, x, v)
        try:
            got = naive_sls(ds, KernelSpec(family, h))
        except RankError:
            continue
        want = oracles.oracle_naive_theta(y, x, v, family, h)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        checked += 1
    assert checked >= 8


def test_truncated_theta_matches_oracle():
    rng = random.Random(12)
    checked = 0
    for _ in range(12):
        y, x, v, family, h, bn, lo, hi = tiny_fixture(rng)
        ds = as_dataset(y, x, v)
        trunc = TruncationSpec(bn, SmallSet(lo, hi))
        try:
            got, mask = truncated_theta(ds, KernelSpec(family, h), trunc)
        except (RankError, TruncationError):
            continue
        assert mask.tolist() == oracles.oracle_mask(v, family, h, bn, lo, hi)
        want = oracles.oracle_truncated_theta(y, x, v, family, h, bn, lo, hi)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        checked += 1
    assert checked >= 8


def test_zero_floor_reduces_to_naive():
    ds = build_dataset(seed=4, n=250)
    spec = KernelSpec("uniform", 0.3)
    trunc = TruncationSpec(0.0, SmallSet(-1.0, 1.0))
    theta_t, mask = truncated_theta(ds, spec, trunc)
    assert mask.all()
    np.testing.assert_allclose(theta_t, naive_sls(ds, spec), rtol=1e-12)


def test_noiseless_fit_is_exact():
    """With y = x and a unit coefficient the normal equations give 1.0."""
    v = simulate_random_walk(120, 0.1, 0.0, 31)
    x = standard_normal(31, 1, 120)
    ds = TimeSeriesDataset(y=x.copy(), x=x, v=v)
    spec = KernelSpec("uniform", 0.3)
    assert naive_sls(ds, spec)[0] == 1.0
    theta, _ = truncated_theta(ds, spec, default_truncation(120))
    assert theta[0] == 1.0


def test_location_shift_in_y_leaves_theta():
    ds = build_dataset(seed=8, n=240)
    spec = KernelSpec("uniform", 0.3)
    base = naive_sls(ds, spec)
    shifted = TimeSeriesDataset(y=ds.y + 1.0e4, x=ds.x, v=ds.v)
    np.testing.assert_allclose(naive_sls(shifted, spec), base, atol=1e-10)


def test_regressor_equivariance():
    ds = build_dataset(seed=9, n=220, d=2)
    spec = KernelSpec("uniform", 0.35)
    a = np.array([[2.0, 0.5], [-1.0, 1.5]])
    mapped = TimeSeriesDataset(y=ds.y, x=ds.x @ a, v=ds.v)
    theta = truncated_theta(ds, spec, UNIT_TRUNC)[0]
    theta_a = truncated_theta(mapped, spec, UNIT_TRUNC)[0]
    np.testing.assert_allclose(theta_a, np.linalg.solve(a, theta), rtol=1e-8)


def test_constant_regressor_raises_rank_error():
    n = 150
    v = simulate_random_walk(n, 0.1, 0.0, 7)
    ds = TimeSeriesDataset(y=v + 1.0, x=np.ones((n, 1)), v=v)
    spec = KernelSpec("uniform", 0.3)
    with pytest.raises(RankError, match="not identified"):
        naive_sls(ds, spec)
    with pytest.raises(RankError):
        truncated_theta(ds, spec, default_truncation(n))


def test_collinear_columns_raise_rank_error():
    ds = build_dataset(seed=10, n=100)
    x = np.column_stack([ds.x[:, 0], 2.0 * ds.x[:, 0]])
    dsc = TimeSeriesDataset(y=ds.y, x=x, v=ds.v)
    with pytest.raises(RankError):
        naive_sls(dsc, KernelSpec("uniform", 0.3))


def test_everything_truncated_raises():
    ds = build_dataset(seed=2, n=80)
    with pytest.raises(TruncationError, match="removed all"):
        truncated_theta(
            ds, KernelSpec("uniform", 0.3), TruncationSpec(1e9, SmallSet(-1, 1))
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["uniform", "epanechnikov"])
def test_huge_bandwidth_truncates_without_numpy_warnings(family):
    """At h = 1e308 the visit count times h overflows, so the density
    is 0 everywhere: every row is truncated, with no numpy warning."""
    ds = build_dataset(seed=2, n=80)
    with pytest.raises(TruncationError, match="removed all"):
        truncated_sls(ds, KernelSpec(family, 1e308), default_truncation(ds.n))


def test_residuals_reconstruct_detrended_response():
    ds = build_dataset(seed=6, n=90)
    spec = KernelSpec("epanechnikov", 0.5)
    theta = np.array([0.7])
    res = residuals(ds, theta, spec)
    # eps + u theta recovers the detrended response used inside the fit
    other = residuals(ds, np.array([0.0]), spec)
    np.testing.assert_allclose(
        res.eps_hat + res.u_hat @ theta, other.eps_hat, atol=1e-12
    )


@pytest.mark.filterwarnings("error")
def test_residuals_theta_shape_checked():
    ds = build_dataset(seed=6, n=30)
    for theta in ([1.0, 2.0], [np.nan], [np.inf], [-np.inf]):
        with pytest.raises(ParameterError, match="shape"):
            residuals(ds, np.array(theta), KernelSpec("uniform", 0.3))


def test_longrun_covariance_no_lag_terms_by_hand():
    eps = np.array([1.0, -1.0, 2.0])
    u = np.array([[1.0], [0.0], [1.0]])
    cov = longrun_covariance(eps, u, max_lag=1)
    assert cov.sigma_hat_sq == pytest.approx(14.0 / 9.0, rel=1e-15)
    np.testing.assert_allclose(cov.sigma_u, [[2.0 / 3.0]], rtol=1e-15)
    np.testing.assert_allclose(cov.sigma_eps_u, [[28.0 / 27.0]], rtol=1e-14)
    assert cov.psd_projected is False


def test_longrun_covariance_zero_lag_equals_one():
    eps = standard_normal(3, 0, 40)
    u = standard_normal(3, 1, 40)[:, None]
    a = longrun_covariance(eps, u, max_lag=0)
    b = longrun_covariance(eps, u, max_lag=1)
    np.testing.assert_array_equal(a.sigma_eps_u, b.sigma_eps_u)
    np.testing.assert_allclose(
        a.sigma_eps_u, a.sigma_hat_sq * a.sigma_u, rtol=1e-14
    )


def test_longrun_covariance_one_lag_by_hand():
    eps = np.array([1.0, -1.0, 2.0, 0.0])
    u = np.array([[1.0], [2.0], [0.0], [1.0]])
    cov = longrun_covariance(eps, u, max_lag=2)
    # variance 5/4, taper 1/2, lag-1 pieces -0.9375 and 0.5
    np.testing.assert_allclose(cov.sigma_eps_u, [[1.40625]], rtol=1e-14)


def test_longrun_covariance_matches_plain_loops():
    rng = np.random.default_rng(14)
    eps = rng.standard_normal(30)
    u = rng.standard_normal((30, 2))
    max_lag = 4
    cov = longrun_covariance(eps, u, max_lag)

    m = eps.size
    e = eps - eps.mean()
    want = (float(e @ e) / m) * (u.T @ u / m)
    for lag in range(1, max_lag):
        w = 1.0 - lag / max_lag
        ge = sum(e[t] * e[t + lag] for t in range(m - lag)) / m
        gu = np.zeros((2, 2))
        for t in range(m - lag):
            gu += np.outer(u[t], u[t + lag])
        gu /= m
        want = want + w * ge * (gu + gu.T)
    want = 0.5 * (want + want.T)
    np.testing.assert_allclose(cov.sigma_eps_u, want, rtol=1e-12, atol=1e-12)


def test_longrun_covariance_validation():
    eps = np.zeros(5)
    u = np.zeros((5, 1))
    with pytest.raises(ParameterError, match="max_lag"):
        longrun_covariance(eps, u, -1)
    with pytest.raises(ParameterError, match="pairs"):
        longrun_covariance(eps, u, 4)
    with pytest.raises(ParameterError, match="rows"):
        longrun_covariance(eps, np.zeros((4, 1)), 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    max_lag=st.integers(min_value=0, max_value=6),
    d=st.integers(min_value=1, max_value=3),
)
def test_longrun_covariance_is_psd_and_symmetric(seed, max_lag, d):
    rng = np.random.default_rng(seed)
    m = max_lag + 2 + int(rng.integers(0, 20))
    eps = rng.standard_normal(m)
    u = rng.standard_normal((m, d))
    cov = longrun_covariance(eps, u, max_lag)
    s = cov.sigma_eps_u
    np.testing.assert_array_equal(s, s.T)
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(s)).max()))
    assert np.linalg.eigvalsh(s).min() >= -1e-12 * scale


def test_longrun_covariance_tracks_serial_correlation():
    """Two independent AR(1) streams against the truncated population sum."""
    from partlin.markov import simulate_ar1

    n, rho_e, rho_u, L = 60_000, 0.5, 0.3, 25
    eps = simulate_ar1(n, rho_e, 1.0, 77, stream=0)
    u = simulate_ar1(n, rho_u, 1.0, 77, stream=1)[:, None]
    cov = longrun_covariance(eps, u, L)
    var_e = 1.0 / (1.0 - rho_e**2)
    var_u = 1.0 / (1.0 - rho_u**2)
    want = var_e * var_u
    for lag in range(1, L):
        want += 2.0 * (1.0 - lag / L) * var_e * rho_e**lag * var_u * rho_u**lag
    assert cov.sigma_eps_u[0, 0] == pytest.approx(want, rel=0.10)


def test_default_max_lag():
    assert default_max_lag(1000) == 10
    assert default_max_lag(26) == 2
    assert default_max_lag(1) == 1
    with pytest.raises(ParameterError):
        default_max_lag(0)


def test_truncated_sls_field_consistency():
    ds = build_dataset(seed=15, n=600)
    spec = KernelSpec("uniform", 0.25)
    trunc = default_truncation(600)
    fit = truncated_sls(ds, spec, trunc)
    assert fit.n == 600
    assert fit.effective_n == int(fit.mask.sum())
    visits = int(np.count_nonzero(trunc.small_set.contains(ds.v)))
    assert fit.n_visits == visits
    assert fit.beta_hat == pytest.approx(np.log(visits) / np.log(600))
    assert fit.kernel == spec
    assert fit.truncation == trunc
    assert fit.sigma_hat_sq > 0
    assert np.all(np.isfinite(fit.avar))
    assert fit.psd_projected is False
    theta_direct, _ = truncated_theta(ds, spec, trunc)
    np.testing.assert_array_equal(fit.theta_hat, theta_direct)


def test_truncated_sls_avar_near_theory():
    """Case (i): iid unit regressor noise, AR(1/2) errors, avar near 4/3."""
    ds = build_dataset(seed=44, n=20_000)
    fit = truncated_sls(ds, KernelSpec("uniform", 0.12), default_truncation(20_000))
    assert fit.avar[0, 0] == pytest.approx(4.0 / 3.0, rel=0.10)


def test_asymptotic_ci_values_and_monotonicity():
    ds = build_dataset(seed=16, n=400)
    fit = truncated_sls(ds, KernelSpec("uniform", 0.3), default_truncation(400))
    fixed = replace(fit, avar=np.array([[4.0]]))
    ci = asymptotic_ci(fixed, 0.95)
    half = ndtri(0.975) * np.sqrt(4.0 / 400.0)
    np.testing.assert_allclose(ci[0], [fit.theta_hat[0] - half, fit.theta_hat[0] + half])
    degenerate = asymptotic_ci(fixed, 0.0)
    np.testing.assert_array_equal(degenerate[:, 0], degenerate[:, 1])
    wider = asymptotic_ci(fixed, 0.99)
    assert wider[0, 1] - wider[0, 0] > ci[0, 1] - ci[0, 0]


def test_asymptotic_ci_rejects_bad_level_or_avar():
    ds = build_dataset(seed=16, n=60)
    fit = truncated_sls(ds, KernelSpec("uniform", 0.4), default_truncation(60))
    for level in (1.0, 1.5, -0.01):
        with pytest.raises(ParameterError, match="level"):
            asymptotic_ci(fit, level)
    broken = replace(fit, avar=np.full((1, 1), np.nan))
    with pytest.raises(ParameterError, match="avar"):
        asymptotic_ci(broken, 0.95)


def test_estimate_g_matches_oracle():
    rng = random.Random(13)
    for _ in range(8):
        y, x, v, family, h, _, _, _ = tiny_fixture(rng)
        ds = as_dataset(y, x, v)
        theta = [0.4] * ds.d
        grid = np.array([-0.5, 0.0, 0.9])
        curve = estimate_g(ds, np.array(theta), grid, KernelSpec(family, h))
        for j, point in enumerate(grid):
            want = oracles.oracle_g_at(y, x, v, theta, float(point), family, h)
            if want is None:
                assert not curve.valid[j]
                assert np.isnan(curve.values[j])
            else:
                assert curve.values[j] == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_estimate_g_exact_zero_on_pure_linear_data():
    v = simulate_random_walk(200, 0.1, 0.0, 18)
    x = standard_normal(18, 1, 200)[:, None]
    ds = TimeSeriesDataset(y=x[:, 0] * 2.0, x=x, v=v)
    grid = np.linspace(v.min(), v.max(), 50)
    curve = estimate_g(ds, np.array([2.0]), grid, KernelSpec("uniform", 0.2))
    assert np.all(curve.values[curve.valid] == 0.0)


def test_estimate_g_constant_response():
    v = simulate_random_walk(150, 0.1, 0.0, 19)
    ds = TimeSeriesDataset(y=np.full(150, 3.25), x=np.zeros((150, 1)) + 1e-9, v=v)
    grid = np.linspace(v.min(), v.max(), 20)
    curve = estimate_g(ds, np.array([0.0]), grid, KernelSpec("epanechnikov", 0.5))
    np.testing.assert_allclose(curve.values[curve.valid], 3.25, rtol=1e-12)


def test_estimate_g_flags_empty_regions():
    ds = build_dataset(seed=20, n=50)
    far = float(ds.v.max()) + 100.0
    grid = np.array([float(ds.v[0]), far])
    curve = estimate_g(ds, np.array([1.0]), grid, KernelSpec("uniform", 0.2))
    assert curve.valid[0]
    assert not curve.valid[1]
    assert np.isnan(curve.values[1])
    assert curve.local_mass[1] == 0.0


def test_estimate_g_interpolates_fit_smoother():
    """At the sample points the curve equals the partial residual smoother."""
    from partlin.kernel import smooth

    ds = build_dataset(seed=21, n=130)
    spec = KernelSpec("uniform", 0.3)
    theta = truncated_theta(ds, spec, default_truncation(130))[0]
    curve = estimate_g(ds, theta, ds.v, spec)
    want, want_valid = smooth(ds.v, ds.y - ds.x @ theta, spec)
    np.testing.assert_array_equal(curve.valid, want_valid)
    np.testing.assert_array_equal(curve.values, want)


_BAD_GRIDS = (np.zeros((2, 2)), [], [0.0, np.nan], [np.inf], [-np.inf])


@pytest.mark.filterwarnings("error")
def test_estimate_g_validates_inputs():
    ds = build_dataset(seed=20, n=40)
    for family in ("uniform", "epanechnikov"):
        spec = KernelSpec(family, 0.3)
        for theta in ([1.0, 2.0], [np.nan], [np.inf], [-np.inf]):
            with pytest.raises(ParameterError, match="shape"):
                estimate_g(ds, np.array(theta), np.array([0.0]), spec)
        for grid in _BAD_GRIDS:
            with pytest.raises(ParameterError, match="grid"):
                estimate_g(ds, np.array([1.0]), np.asarray(grid), spec)


@pytest.mark.filterwarnings("error")
def test_estimate_h_validates_grid():
    ds = build_dataset(seed=20, n=40)
    for family in ("uniform", "epanechnikov"):
        for grid in _BAD_GRIDS:
            with pytest.raises(ParameterError, match="grid"):
                estimate_h(ds, np.asarray(grid), KernelSpec(family, 0.3))


def test_estimate_h_tracks_identity_regressor():
    n = 2000
    v = simulate_random_walk(n, 0.1, 0.0, 23)
    ds = TimeSeriesDataset(y=v.copy(), x=v.copy(), v=v)
    h = 0.1
    grid = np.linspace(float(v.min()), float(v.max()), 40)
    curves = estimate_h(ds, grid, KernelSpec("uniform", h))
    assert len(curves) == 1
    c = curves[0]
    err = np.abs(c.values[c.valid] - grid[c.valid])
    assert err.max() <= h  # local averages of points within the window


def test_estimate_h_matches_column_smoothing():
    ds = build_dataset(seed=24, n=180, d=2)
    spec = KernelSpec("uniform", 0.3)
    grid = np.linspace(float(ds.v.min()), float(ds.v.max()), 25)
    curves = estimate_h(ds, grid, spec)
    for j in range(2):
        as_g = estimate_g(
            TimeSeriesDataset(y=ds.x[:, j], x=np.ones((180, 1)), v=ds.v),
            np.array([0.0]),
            grid,
            spec,
        )
        np.testing.assert_allclose(curves[j].values, as_g.values, atol=1e-13)
        np.testing.assert_array_equal(curves[j].valid, as_g.valid)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["uniform", "epanechnikov"])
def test_curves_and_residuals_refuse_values_past_the_float_range(family):
    """A response near the float range overflows the window sums: every
    curve point whose value is not finite is NaN and flagged invalid,
    and the residuals raise, as a fit does."""
    n = 300
    v = np.linspace(-1.0, 1.0, n)
    ds = TimeSeriesDataset(y=np.full(n, 1e307), x=v**2, v=v)
    spec = KernelSpec(family, 0.3)
    curve = estimate_g(ds, np.array([0.0]), np.linspace(-1.0, 1.0, 7), spec)
    assert not np.isinf(curve.values).any()
    assert np.array_equal(curve.valid, np.isfinite(curve.values))
    with pytest.raises(RankError, match="float range"):
        residuals(ds, np.array([0.0]), spec)


def test_fit_identical_across_methods():
    """The fit equals the oracle's for both families."""
    ds = build_dataset(seed=25, n=350)
    trunc = default_truncation(350)
    small = trunc.small_set
    for family in ("uniform", "epanechnikov"):
        got = truncated_theta(ds, KernelSpec(family, 0.25), trunc)[0]
        want = oracles.oracle_truncated_theta(
            ds.y.tolist(), ds.x.tolist(), ds.v.tolist(), family, 0.25,
            trunc.b_n, small.lower, small.upper,
        )
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_one_sort_per_dataset(monkeypatch):
    """Selection, the fit and both curves share one sorted view of v."""
    built = []
    init = SortedView.__init__

    def spy(self, v):
        built.append(v)
        init(self, v)

    monkeypatch.setattr(SortedView, "__init__", spy)
    ds = build_dataset(seed=31, n=400)
    trunc = default_truncation(ds.n)
    for family in ("uniform", "epanechnikov"):
        h = cv_select(ds, default_h_grid(ds.n), family, trunc).h_star
        spec = KernelSpec(family, h)
        fit = truncated_sls(ds, spec, trunc)
        grid = table_grid(ds.v, 50)
        estimate_g(ds, fit.theta_hat, grid, spec)
        estimate_h(ds, grid, spec)
    assert len(built) == 1
    assert built[0] is ds.v


def test_results_do_not_depend_on_call_order():
    """Fits on one dataset, whose view is shared by every bandwidth,
    are bit-identical to fits on fresh datasets."""
    shared = build_dataset(seed=32, n=400)
    trunc = default_truncation(shared.n)

    def fit(ds, family, h):
        theta, mask = truncated_theta(ds, KernelSpec(family, h), trunc)
        cv = cv_select(ds, np.array([h]), family, trunc)
        return theta, mask, cv.criterion

    for family, h in [
        ("uniform", 0.2), ("uniform", 0.35), ("uniform", 0.2),
        ("epanechnikov", 0.35), ("uniform", 0.35), ("epanechnikov", 0.2),
    ]:
        fresh = TimeSeriesDataset(y=shared.y, x=shared.x, v=shared.v)
        for got, want in zip(fit(shared, family, h), fit(fresh, family, h)):
            np.testing.assert_array_equal(got, want)
