"""AR(1) fitting and a simulation based unit root test.

The model is z_t = rho z_{t-1} + e_t with no intercept and no trend.
The test statistic is the t ratio of rho against 1; its null law is
nonstandard, so p-values come from simulating pure random walks with
the package generator rather than from a table.  The p-value is the
left tail fraction, matching the rejection direction of the test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, finite_array, scalar
from .rng import block_rows, map_blocks, normal_block


@dataclass(frozen=True)
class DfResult:
    rho_hat: float
    t_stat: float
    p_value: float
    sim_reps: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ParameterError(f"p_value outside [0, 1]: {self.p_value}")


def _ar1_fit(z: np.ndarray) -> tuple[float, float]:
    """No-intercept AR(1) slope rho_hat and the t ratio
    (rho_hat - 1) / se(rho_hat)."""
    z = finite_array(z, "z", min_size=3)
    lag = z[:-1]
    cur = z[1:]
    sxx = float(lag @ lag)
    if sxx == 0.0:
        raise ParameterError("lagged series is identically zero")
    rho = float(lag @ cur) / sxx
    resid = cur - rho * lag
    dof = cur.size - 1
    se = float(np.sqrt(float(resid @ resid) / dof / sxx))
    if se == 0.0:
        raise ParameterError(
            "zero residual variance, the series is deterministic"
        )
    return rho, (rho - 1.0) / se


def df_statistic(z: np.ndarray) -> float:
    """t ratio (rho_hat - 1) / se(rho_hat)."""
    return _ar1_fit(z)[1]


def _simulated_t(n: int, reps: int, seed: int) -> np.ndarray:
    """DF t draws under the null, one substream per simulated path.

    Paths are drawn ``block_rows(n, reps)`` at a time, up to 26 walks of
    10000, so memory is O(SUM_CELLS + n) per thread, not O(reps n); each
    keeps only its three sums.  Blocks run through ``map_blocks``, and
    each fills its own columns of the sums by the same calls on any
    thread, so the draws depend neither on the threads nor on ``rows``.
    """
    rows = block_rows(n, reps)
    sums = np.empty((3, reps))

    def fill(start: int) -> None:
        done = slice(start, min(start + rows, reps))
        paths = normal_block(seed, range(done.start, done.stop), n)
        np.cumsum(paths, axis=1, out=paths)
        lag = paths[:, :-1]
        cur = paths[:, 1:]
        sums[0, done] = np.einsum("ij,ij->i", lag, lag)
        sums[1, done] = np.einsum("ij,ij->i", lag, cur)
        sums[2, done] = np.einsum("ij,ij->i", cur, cur)

    map_blocks(fill, range(0, reps, rows))
    sxx, sxy, syy = sums
    rho = sxy / sxx
    rss = syy - sxy * sxy / sxx
    dof = n - 2
    se = np.sqrt(rss / dof / sxx)
    return (rho - 1.0) / se


def simulated_pvalue(t_stat: float, n: int, reps: int, seed: int) -> float:
    """Left tail fraction of simulated null t statistics at or below
    the observed one.

    The null draws are random walks of length ``n`` with standard
    Gaussian increments; path r uses stream r of ``seed``, so the
    p-value is deterministic given the seed and monotone in ``t_stat``.
    """
    t_stat, n = scalar(t_stat, "t_stat"), scalar(n, "n", int, 3)
    reps = scalar(reps, "reps", int, 100)
    t_sim = _simulated_t(n, reps, seed)
    return float(np.count_nonzero(t_sim <= t_stat)) / reps


def df_test(z: np.ndarray, reps: int = 2000, seed: int = 0) -> DfResult:
    """Fit, statistic and simulated p-value in one call.

    The null simulation uses the observed series length.
    """
    rho, t = _ar1_fit(z)
    p = simulated_pvalue(t, np.size(z), reps, seed)
    return DfResult(rho_hat=rho, t_stat=t, p_value=p, sim_reps=reps)
