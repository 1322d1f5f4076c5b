#!/usr/bin/env python3
"""Limit-theory diagnostics for the truncated estimator.

Four checks, printed as plain text:

  1. Normality and interval coverage of the coefficient estimate
     across replications (KS test of the standardized draws against
     the normal family, empirical coverage of the nominal 95% CI).
  2. Variance of the local curve statistic sqrt(mass) * (g_hat - g0)
     at a fixed point, against the stationary error variance times the
     squared kernel integral.
  3. Recurrence index estimate on long random walks (should sit near
     1/2) and on an i.i.d. series fully inside the small set (exactly 1).
  4. Calibration of simulated unit-root p-values on fresh null paths
     (KS distance to Uniform[0,1]).

Runtime with defaults is around a minute on one core.
"""

import argparse
import sys

import numpy as np
from scipy import stats

from partlin.kernel import KernelSpec
from partlin.markov import SmallSet, estimate_beta, simulate_random_walk
from partlin.montecarlo import McConfig, g_clt_check, normality_check, \
    theta_experiment_details
from partlin.rng import _to_uniform, _words
from partlin.unitroot import df_test


def check_normality(n: int, reps: int, seed: int) -> None:
    cfg = McConfig(n=n, reps=reps, dgp="H_zero", master_seed=seed)
    det = theta_experiment_details(cfg, ci_level=0.95)
    rep = normality_check(det.draws[:, 0], cfg.theta0)
    print(f"coefficient draws (n={n}, reps={det.reps_used}):")
    print(f"  ks_distance = {rep.ks_distance:.4f}  ks_pvalue = {rep.ks_pvalue:.4f}")
    print(f"  mean_bias = {rep.mean_bias:+.5f}  skewness = {rep.skewness:+.3f}"
          f"  excess_kurtosis = {rep.excess_kurtosis:+.3f}")
    print(f"  95% CI coverage = {det.covered.mean():.4f}")


def check_curve_variance(n: int, reps: int, seed: int) -> None:
    cfg = McConfig(n=n, reps=reps, dgp="H_zero", master_seed=seed,
                   kernel=KernelSpec("uniform", 0.015))
    rep = g_clt_check(cfg, v_point=0.0)
    print(f"local curve statistic at v=0 (n={n}, h=0.015):")
    print(f"  empirical variance = {rep.variance:.4f}"
          f"  theoretical target = {rep.target:.4f}")
    print(f"  reps_used = {rep.reps_used}  invalid = {rep.invalid}")


def check_recurrence_index(walk_n: int, seeds: int) -> None:
    small = SmallSet(-1.0, 1.0)
    betas = [
        estimate_beta(simulate_random_walk(walk_n, 1.0, 0.0, s), small)
        for s in range(seeds)
    ]
    iid = estimate_beta(2.0 * _to_uniform(_words(123, [0], 5000))[0] - 1.0, small)
    print(f"recurrence index (walk length {walk_n}, {seeds} seeds):")
    print(f"  median beta_hat = {np.median(betas):.4f}  "
          f"range [{min(betas):.4f}, {max(betas):.4f}]")
    print(f"  i.i.d. series inside the small set: beta_hat = {iid}")


def check_pvalues(n: int, reps: int, trials: int) -> None:
    pvals = np.empty(trials)
    for trial in range(trials):
        z = simulate_random_walk(n, 1.0, 0.0, 3_000_000 + trial)
        pvals[trial] = df_test(z, reps=reps, seed=500_001 + trial).p_value
    ks = stats.kstest(pvals, "uniform")
    print(f"unit-root p-values on null paths (n={n}, {trials} trials,"
          f" {reps} reps each):")
    print(f"  KS distance to Uniform[0,1] = {ks.statistic:.4f}"
          f"  (pvalue {ks.pvalue:.4f})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1200, help="sample size per path")
    ap.add_argument("--reps", type=int, default=1000,
                    help="Monte Carlo replications")
    ap.add_argument("--seed", type=int, default=20260822, help="master seed")
    ap.add_argument("--trials", type=int, default=500,
                    help="p-value calibration trials")
    args = ap.parse_args()
    check_normality(args.n, args.reps, args.seed)
    print()
    check_curve_variance(args.n, args.reps, args.seed)
    print()
    check_recurrence_index(10**6, 20)
    print()
    check_pvalues(500, 2000, args.trials)
    return 0


if __name__ == "__main__":
    sys.exit(main())
