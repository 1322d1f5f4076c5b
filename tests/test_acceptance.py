"""Acceptance gate: one test per release criterion.

Each test prints a single PASS or FAIL line with the measured numbers
before asserting, so the run report doubles as the scorecard.

Criteria 1 and 2 check the two Monte Carlo error tables against the law
of the documented design, the ``McConfig`` defaults: walk increments
N(0, 0.1^2), x = H(v) + u with u iid N(0, 1), AR(1) errors with
rho = 0.5 and innovation sd 1, theta0 = 1 and g(v) = v.  There
x - E[x | v] = u in both H designs, so Sigma = 1 and
Omega = 1 / (1 - 0.5^2) = 4/3.  At these sample sizes the truncation
floor drops almost no row (1 of 120 000 over every tenth replication of
an n = 1200 curve cell, none in the other cells).

* Criterion 1 asserts each coefficient cell within +-10 % of the
  root-n limit law, sqrt(2/pi) sqrt(4/(3n)): 0.0652, 0.0348 and 0.0266
  at n = 200, 700 and 1200.  The measured ratios are 0.979-1.010.
* Criterion 2 asserts each curve cell within +-10 % of the conditional
  law of g_hat - g given a replication's walk and regressors
  (``oracles.oracle_curve_error``), averaged over the cell's first 200
  replications.  The measured ratios are 1.002-1.021.

Both also require the error to fall with n.  The paper's own table
values are printed beside each cell, with the ratio to them, but not
asserted: they come from a design the repository does not record, and
the documented design cannot produce them.  The first table's values
sit 1.8-3.7x below the error of generalised least squares with g and
the error law known, sqrt(2/pi) / sqrt(1.25 n), and fall by 1.17x from
n = 200 to 700 where a root-n estimator falls by 1.87x.
"""

import math
import random

import numpy as np
from scipy import stats

from helpers import as_dataset, build_dataset, tiny_fixture
from oracles import (
    oracle_curve_error,
    oracle_cv_criterion,
    oracle_g_at,
    oracle_naive_theta,
    oracle_truncated_theta,
)
from partlin.bandwidth import cv_select
from partlin.dataset import TimeSeriesDataset
from partlin.errors import RankError, TruncationError
from partlin.kernel import KernelSpec, TruncationSpec, default_truncation, smooth
from partlin.markov import SmallSet, estimate_beta, regeneration_blocks, \
    simulate_random_walk
from partlin.montecarlo import (
    CURVE_GRID_POINTS,
    McConfig,
    g_clt_check,
    normality_check,
    run_g_experiment,
    run_theta_experiment,
    simulate_replication,
    theta_experiment_details,
)
from partlin.rng import _to_uniform, _words
from partlin.sls import estimate_g, naive_sls, truncated_sls, truncated_theta
from partlin.unitroot import df_test


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


_CELLS = [("H_zero", 200), ("H_zero", 700), ("H_zero", 1200),
          ("H_identity", 200), ("H_identity", 700), ("H_identity", 1200)]

# The paper's two error tables, cell for cell in _CELLS order: printed,
# not asserted (see the module docstring for why).
PAPER_THETA_MAE = (0.0137, 0.0117, 0.0064, 0.0172, 0.0149, 0.0079)
PAPER_G_MAE = (0.1158, 0.0894, 0.0628, 0.1391, 0.1299, 0.1075)

# Replications of each curve cell, from the first, that the conditional
# law is averaged over.
_G_LAW_REPS = 200


def _theta_limit_var(cfg: McConfig) -> float:
    """Variance of theta_hat in its limit law under the documented design.

    With x = H(v) + u and u iid N(0, 1) independent of the AR(1) errors,
    x - E[x | v] = u, so Sigma = E[u^2] = 1, the long-run variance of
    u_t eps_t is Omega = E[u^2] eps_sd^2 / (1 - eps_rho^2), and
    Omega / (n Sigma^2) = eps_sd^2 / ((1 - eps_rho^2) n).
    """
    return cfg.eps_sd**2 / ((1.0 - cfg.eps_rho**2) * cfg.n)


def _table_check(runner, expect, paper, band, seed):
    """Run the six table cells; check each against its expected value
    within a relative band, and that the error falls with n in both
    designs.  ``expect(cfg, cell)`` gives the expected mean absolute
    error of a cell from its config and measured result, and a note for
    the scorecard."""
    measured, expected, notes = {}, {}, {}
    for dgp, n in _CELLS:
        cfg = McConfig(n=n, reps=1000, dgp=dgp, master_seed=seed)
        measured[(dgp, n)] = runner(cfg)
        expected[(dgp, n)], notes[(dgp, n)] = expect(cfg, measured[(dgp, n)])
    ratio = {cell: measured[cell].ae / expected[cell] for cell in _CELLS}
    in_band = all(abs(r - 1.0) <= band for r in ratio.values())
    decreasing = all(
        measured[(dgp, 200)].ae > measured[(dgp, 700)].ae
        > measured[(dgp, 1200)].ae
        for dgp in ("H_zero", "H_identity")
    )
    cells = ", ".join(
        f"{dgp}/{n}: ae={measured[(dgp, n)].ae:.4f} "
        f"expected={expected[(dgp, n)]:.4f} ratio={ratio[(dgp, n)]:.3f}"
        f"{notes[(dgp, n)]} paper={ref:.4f} "
        f"(ae/paper={measured[(dgp, n)].ae / ref:.2f})"
        for (dgp, n), ref in zip(_CELLS, paper)
    )
    detail = f"band +-{band:.0%}={'yes' if in_band else 'no'}, " \
             f"decreasing in n={'yes' if decreasing else 'no'}; {cells}"
    return in_band and decreasing, detail


def test_criterion_1_coefficient_table():
    """Coefficient error against the root-n normal limit law.

    With theta_hat - theta0 ~ N(0, V), V = _theta_limit_var(cfg) = 4/(3n)
    under the defaults, the mean absolute error is sqrt(2/pi) sqrt(V):
    0.0652, 0.0348 and 0.0266 at n = 200, 700 and 1200, in both designs.

    Band +-10 %: a mean of 1000 |N(0, V)| draws has relative Monte Carlo
    standard error sqrt(pi/2 - 1) / sqrt(1000) = 2.4 %, three of which is
    7.2 %; the other 2.8 % covers theta_hat's finite-n departure from its
    limit law (detrending with a cross-validated bandwidth, truncation).
    The measured ratios are 0.979-1.010.
    """

    def law(cfg, _cell):
        return math.sqrt(2.0 / math.pi) * math.sqrt(_theta_limit_var(cfg)), ""

    ok, detail = _table_check(
        run_theta_experiment, law, PAPER_THETA_MAE, band=0.10, seed=101
    )
    _report(1, ok, detail)


def test_criterion_2_curve_table():
    """Curve error against its conditional law, `oracle_curve_error`.

    For each of the first _G_LAW_REPS replications of a cell, the law
    takes that replication's (v, x), the cell's bandwidth and the model
    constants, and gives the expected grid-average |g_hat - g|; the
    expected table entry is their mean.

    Band +-10 %: the two means differ by Monte Carlo error at most the
    table's se / sqrt(1000) plus the law's sd / sqrt(_G_LAW_REPS), 1.9-2.2 %
    of the entry per cell (printed as mc), three of which is at most
    6.6 %; the other 3.4 % covers the law's two approximations:
    theta_hat's variance is taken at its limit and independent of the
    window's errors, and its bias from detrending g is left out of the
    mean.  Over all 1000 replications the ratios are 1.005-1.026.
    """

    def law(cfg, cell):
        h = cell.kernel.bandwidth
        g = (lambda a: a) if cfg.g0 == "identity" else np.zeros_like
        preds = np.empty(_G_LAW_REPS)
        for rep in range(_G_LAW_REPS):
            ds = simulate_replication(cfg, rep)
            preds[rep] = oracle_curve_error(
                ds.v, ds.x[:, 0], h, CURVE_GRID_POINTS, g,
                cfg.eps_rho, cfg.eps_sd, _theta_limit_var(cfg),
            )
        want = float(preds.mean())
        mc = cell.se / math.sqrt(cfg.reps) \
            + float(preds.std(ddof=1)) / math.sqrt(_G_LAW_REPS)
        return want, f" mc={mc / want:.1%}"

    ok, detail = _table_check(
        run_g_experiment, law, PAPER_G_MAE, band=0.10, seed=202
    )
    _report(2, ok, detail)


def test_criterion_3_normal_limit_and_coverage():
    cfg = McConfig(n=1200, reps=1000, dgp="H_zero", master_seed=20260822)
    det = theta_experiment_details(cfg, ci_level=0.95)
    rep = normality_check(det.draws[:, 0], cfg.theta0)
    coverage = float(det.covered.mean())
    ok = rep.ks_pvalue > 0.01 and 0.90 <= coverage <= 0.985
    _report(
        3,
        ok,
        f"ks_p={rep.ks_pvalue:.4f} (need > 0.01), "
        f"coverage={coverage:.4f} (need in [0.90, 0.985]), "
        f"reps_used={det.reps_used}, ks_distance={rep.ks_distance:.4f}, "
        f"mean_bias={rep.mean_bias:+.5f}, skewness={rep.skewness:+.3f}, "
        f"excess_kurtosis={rep.excess_kurtosis:+.3f}",
    )


def test_criterion_4_local_curve_variance():
    cfg = McConfig(
        n=1200, reps=1000, dgp="H_zero", master_seed=20260822,
        kernel=KernelSpec("uniform", 0.015),
    )
    rep = g_clt_check(cfg, v_point=0.0)
    target = 2.0 / 3.0
    ok = abs(rep.variance - target) <= 0.3 * target and rep.target == target
    _report(
        4,
        ok,
        f"variance={rep.variance:.4f}, target={rep.target:.4f} +-30%, "
        f"reps_used={rep.reps_used}, invalid={rep.invalid}",
    )


def test_criterion_5_recurrence_index():
    small = SmallSet(-1.0, 1.0)
    betas = [
        estimate_beta(simulate_random_walk(10**6, 1.0, 0.0, seed), small)
        for seed in range(20)
    ]
    med = float(np.median(betas))
    v_iid = 2.0 * _to_uniform(_words(123, [0], 5000))[0] - 1.0
    beta_iid = estimate_beta(v_iid, small)
    ok = 0.4 <= med <= 0.6 and beta_iid == 1.0
    _report(
        5,
        ok,
        f"walk median beta={med:.4f} (need in [0.4, 0.6]), "
        f"range [{min(betas):.4f}, {max(betas):.4f}], "
        f"iid full-range beta={beta_iid} (need exactly 1.0)",
    )


def test_criterion_6_exactness_and_equivariance():
    checks = []

    # kernel weights sum to one: the engine smooths a column of ones to 1
    ds = build_dataset(seed=5, n=400)
    worst = 0.0
    for family in ("uniform", "epanechnikov"):
        ones, valid = smooth(ds.v, np.ones(ds.n), KernelSpec(family, 0.3))
        worst = max(worst, float(np.max(np.abs(ones[valid] - 1.0))))
    checks.append(("weights", worst <= 1e-12, f"{worst:.2e}"))

    # location shift of the response leaves the coefficient unchanged
    spec = KernelSpec("uniform", 0.4)
    trunc = default_truncation(400)
    base, _ = truncated_theta(ds, spec, trunc)
    shifted = TimeSeriesDataset(y=ds.y + 1.0e4, x=ds.x, v=ds.v)
    moved, _ = truncated_theta(shifted, spec, trunc)
    dy = float(np.max(np.abs(moved - base)))
    checks.append(("Y location", dy <= 1e-10, f"{dy:.2e}"))

    # linear reparametrisation of the regressors
    ds2 = build_dataset(seed=6, n=400, d=2)
    a = np.array([[2.0, 0.5], [-1.0, 1.5]])
    t2, _ = truncated_theta(ds2, spec, trunc)
    mapped = TimeSeriesDataset(y=ds2.y, x=ds2.x @ a, v=ds2.v)
    ta, _ = truncated_theta(mapped, spec, trunc)
    want = np.linalg.solve(a, t2)
    da = float(np.max(np.abs(ta - want) / np.maximum(np.abs(want), 1e-12)))
    checks.append(("reparametrisation", da <= 1e-8, f"{da:.2e}"))

    # no noise and no curve: the fitted curve is zero
    clean = build_dataset(seed=8, n=300, eps_sd=0.0, g_identity=False)
    theta, _ = truncated_theta(clean, spec, default_truncation(300))
    curve = estimate_g(clean, theta, np.linspace(-0.5, 0.5, 41), spec)
    gmax = float(np.max(np.abs(curve.values[curve.valid])))
    checks.append(("noiseless curve", gmax <= 1e-10, f"{gmax:.2e}"))

    # block decomposition reproduces the full sum
    v = simulate_random_walk(5000, 1.0, 0.0, 21)
    dec = regeneration_blocks(v, math.sin, SmallSet(-1.0, 1.0))
    total = float(np.sin(v).sum())
    rebuilt = dec.head + float(dec.blocks.sum()) + dec.tail
    db = abs(rebuilt - total) / max(abs(total), 1.0)
    checks.append(("block identity", db <= 1e-10, f"{db:.2e}"))

    # prefix-sum uniform smoothing equals the literal weighted average
    fit = truncated_sls(ds, spec, trunc)
    want = oracle_truncated_theta(
        ds.y.tolist(), ds.x.tolist(), ds.v.tolist(), "uniform", spec.bandwidth,
        trunc.b_n, trunc.small_set.lower, trunc.small_set.upper,
    )
    dm = float(np.max(np.abs(fit.theta_hat - want)))
    checks.append(("uniform fast path", dm <= 1e-10, f"{dm:.2e}"))

    ok = all(flag for _, flag, _ in checks)
    detail = ", ".join(f"{name} {err}" for name, flag, err in checks if not flag)
    _report(6, ok, detail if detail else
            "; ".join(f"{name}={err}" for name, _, err in checks))


def test_criterion_7_oracle_equivalence():
    rng = random.Random(2024)
    counts = {"naive": 0, "truncated": 0, "curve": 0, "cv": 0}
    worst = 0.0
    for _ in range(50):
        y, x, v, family, h, bn, lo, hi = tiny_fixture(rng)
        ds = as_dataset(y, x, v)
        spec = KernelSpec(family, h)
        trunc = TruncationSpec(bn, SmallSet(lo, hi))

        try:
            got = naive_sls(ds, spec)
        except RankError:
            got = None
        if got is not None:
            want = oracle_naive_theta(y, x, v, family, h)
            worst = max(worst, float(np.max(np.abs(got - want))))
            counts["naive"] += 1

        try:
            theta, _ = truncated_theta(ds, spec, trunc)
        except (RankError, TruncationError):
            continue
        want = oracle_truncated_theta(y, x, v, family, h, bn, lo, hi)
        worst = max(worst, float(np.max(np.abs(theta - want))))
        counts["truncated"] += 1

        point = float(rng.uniform(-1.5, 1.5))
        curve = estimate_g(ds, theta, np.array([point]), spec)
        want_g = oracle_g_at(y, x, v, theta, point, family, h)
        assert curve.valid[0] == (want_g is not None)
        if want_g is not None:
            worst = max(worst, abs(float(curve.values[0]) - want_g))
            counts["curve"] += 1

        sel = cv_select(ds, np.array([h]), family, trunc)
        want_c, want_drop = oracle_cv_criterion(y, x, v, family, h, bn, lo, hi)
        assert int(sel.dropped[0]) == want_drop
        got_c = float(sel.criterion[0])
        if math.isinf(got_c) or math.isinf(want_c):
            assert math.isinf(got_c) == math.isinf(want_c)
        else:
            worst = max(worst, abs(got_c - want_c))
            counts["cv"] += 1

    enough = all(c >= 30 for c in counts.values())
    ok = worst <= 1e-10 and enough
    _report(
        7,
        ok,
        f"max |production - oracle| = {worst:.2e} over "
        + ", ".join(f"{k}:{c}" for k, c in counts.items()) + " comparisons",
    )


def test_criterion_8_pvalue_calibration():
    pvals = np.empty(500)
    for trial in range(500):
        z = simulate_random_walk(500, 1.0, 0.0, 3_000_000 + trial)
        pvals[trial] = df_test(z, reps=2000, seed=500_001 + trial).p_value
    fit = stats.kstest(pvals, "uniform")
    ks = float(fit.statistic)
    ok = ks < 0.05
    _report(
        8, ok,
        f"KS distance to Uniform[0,1] = {ks:.4f} (need < 0.05), "
        f"pvalue {fit.pvalue:.4f}",
    )
