"""Semi-parametric least squares in the partially linear model.

The model is y_t = x_t' theta + g(v_t) + eps_t with g unknown.  Both
estimators first remove the covariate trend from y and from every
regressor column by kernel smoothing at the sample points, then regress
the detrended response on the detrended regressors:

``naive_sls``
    plain least squares on all detrended rows;

``truncated_sls``
    weighted least squares keeping only rows whose occupation density
    estimate clears a floor, which screens out covariate regions visited
    too rarely for the smoother to be reliable.  This is the estimator
    with a tractable limit law under null recurrence.

Given any theta, the curve estimate ``estimate_g`` smooths y - x' theta
on the covariate.  Standard errors come from a lag window long run
covariance of the residual pairs (eps_t, u_t), u_t the detrended
regressor row, because eps is serially correlated while theta's limit
variance involves the cross products of both autocovariance sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .dataset import TimeSeriesDataset
from .errors import (
    NoVisitsError,
    ParameterError,
    PartlinError,
    RankError,
    TruncationError,
)
from .kernel import (
    KernelSpec,
    SortedView,
    TruncationSpec,
    _block_sums,
    _truncation_masks,
    _window_sums,
    smooth,
)
from .markov import count_small_set_visits, estimate_beta

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class LongRunCovariance:
    """Plug-in pieces of the limit variance of the linear coefficients."""

    sigma_hat_sq: float
    sigma_u: np.ndarray
    sigma_eps_u: np.ndarray
    psd_projected: bool


@dataclass(frozen=True)
class SlsFit:
    """Truncated fit with its diagnostics.

    ``avar`` is the sandwich estimate of the limit covariance of
    sqrt(n) (theta_hat - theta); it is all NaN when the detrended second
    moment matrix is too ill conditioned to invert for the sandwich,
    even though theta_hat itself was solvable.
    """

    theta_hat: np.ndarray
    mask: np.ndarray
    effective_n: int
    n: int
    n_visits: int
    beta_hat: float
    sigma_hat_sq: float
    sigma_u: np.ndarray
    sigma_eps_u: np.ndarray
    avar: np.ndarray
    psd_projected: bool
    kernel: KernelSpec
    truncation: TruncationSpec


class ResidualSet(NamedTuple):
    eps_hat: np.ndarray
    u_hat: np.ndarray


@dataclass(frozen=True)
class CurveEstimate:
    """A curve evaluated on a grid, with the local kernel mass.

    ``local_mass[i]`` is the raw kernel sum at grid point i; points with
    zero mass carry NaN values and are flagged invalid rather than
    raising, since sparse outer grid regions are expected under null
    recurrence.
    """

    grid: np.ndarray
    values: np.ndarray
    local_mass: np.ndarray
    valid: np.ndarray


def _detrend_rows(
    y: np.ndarray, x: np.ndarray, view: SortedView, spec: KernelSpec
) -> np.ndarray:
    """Remove the covariate trend from y and x at the sample points, for
    every path of a block: y of shape (rows, n), x of shape (rows, n, d)
    and ``view`` the sorted covariate rows.  Returns the (rows, n, 1 + d)
    detrended columns, y first.

    Every family is positive at 0, so each sample point lies in its own
    window and every smoothed value is defined.
    """
    stacked = np.concatenate([y[:, :, None], x], axis=2)
    mass, sums = _block_sums(view, None, spec, stacked)
    return stacked - sums / mass[:, :, None]


def _detrend(
    ds: TimeSeriesDataset, spec: KernelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """``_detrend_rows`` of one dataset, by ``smooth``: (ytilde, xtilde)."""
    stacked = np.column_stack([ds.y, ds.x])
    tilde = stacked - smooth(ds.sorted_v, stacked, spec)[0]
    return tilde[:, 0], tilde[:, 1:]


def _solve_normal(
    xt: np.ndarray, yt: np.ndarray, x_ref: np.ndarray
) -> np.ndarray:
    a = xt.T @ xt
    b = xt.T @ yt
    # a column with no variation around its covariate trend detrends to
    # roundoff noise; its normal-equation diagonal is then far below the
    # raw column scale and the solve would amplify garbage
    ref = np.maximum((x_ref * x_ref).sum(axis=0), np.finfo(float).tiny)
    if np.any(np.diag(a) <= 1e-24 * ref):
        raise RankError(
            "a detrended regressor column is numerically zero, "
            "the coefficient on it is not identified"
        )
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise RankError(
            f"detrended design is numerically singular (condition {cond:.3e})"
        )
    return np.linalg.solve(a, b)


def naive_sls(
    ds: TimeSeriesDataset, spec: KernelSpec
) -> np.ndarray:
    """Least squares on all detrended rows, no density truncation."""
    yt, xt = _detrend(ds, spec)
    return _solve_normal(xt, yt, ds.x)


def _truncated_rows(
    y: np.ndarray,
    x: np.ndarray,
    view: SortedView,
    spec: KernelSpec,
    trunc: TruncationSpec,
) -> tuple[list, np.ndarray, np.ndarray | None]:
    """The truncated fit of every path of a block, shaped as in
    ``_detrend_rows``.

    Returns ``(fits, masks, tilde)``: ``fits[r]`` is the coefficient
    vector of row r, or the error that stops its fit (NoVisitsError,
    TruncationError or RankError, checked in that order); ``masks`` the
    (rows, n) truncation masks and ``tilde`` the detrended columns of
    ``_detrend_rows``, None when no row gets as far as the solve.  The
    normal equations of each row are solved on their own.
    """
    masks, visits = _truncation_masks(view, spec, trunc)
    kept = masks.any(axis=1)
    tilde = None
    if np.any(kept & (visits > 0)):
        tilde = _detrend_rows(y, x, view, spec)
    fits = []
    for r, mask in enumerate(masks):
        if visits[r] == 0:
            fits.append(NoVisitsError("the path never enters the small set"))
        elif not kept[r]:
            fits.append(
                TruncationError(
                    f"density floor {trunc.b_n:g} removed all "
                    f"{mask.size} observations"
                )
            )
        else:
            try:
                fits.append(
                    _solve_normal(
                        tilde[r, :, 1:][mask], tilde[r, :, 0][mask], x[r][mask]
                    )
                )
            except RankError as exc:
                fits.append(exc)
    return fits, masks, tilde


def _truncated_solve(
    ds: TimeSeriesDataset, spec: KernelSpec, trunc: TruncationSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients, the truncation mask, and the detrended data
    ``(ytilde, xtilde)`` they were solved from: ``_truncated_rows`` of
    one dataset, raising its fit error."""
    (theta,), masks, tilde = _truncated_rows(
        ds.y[None], ds.x[None], ds.sorted_v, spec, trunc
    )
    if isinstance(theta, PartlinError):
        raise theta
    return theta, masks[0], tilde[0, :, 0], tilde[0, :, 1:]


def truncated_theta(
    ds: TimeSeriesDataset,
    spec: KernelSpec,
    trunc: TruncationSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and the truncation mask, without fit diagnostics.

    This is the inner loop of bandwidth selection, where the covariance
    block of the full fit would be wasted work.
    """
    return _truncated_solve(ds, spec, trunc)[:2]


def residuals(
    ds: TimeSeriesDataset, theta: np.ndarray, spec: KernelSpec
) -> ResidualSet:
    """Detrended residual pairs (eps_hat_t, u_hat_t) for a given theta.

    ``eps_hat = ytilde - xtilde' theta`` and ``u_hat = xtilde``.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ds.d,):
        raise ParameterError(f"theta must have shape ({ds.d},), got {theta.shape}")
    yt, xt = _detrend(ds, spec)
    return ResidualSet(eps_hat=yt - xt @ theta, u_hat=xt)


def longrun_covariance(
    eps: np.ndarray, u: np.ndarray, max_lag: int
) -> LongRunCovariance:
    """Lag window estimate of the long run covariance pieces.

    With e the mean corrected eps and m pairs, the estimate is

        sigma_eps_u = var(e) * Sigma_u
                      + sum_{l=1}^{max_lag-1} (1 - l/max_lag) * gamma_e(l)
                        * (Gamma_u(l) + Gamma_u(l)')

    where gamma_e and Gamma_u are 1/m normalised autocovariances and
    Sigma_u = u'u / m.  The triangular taper keeps the scalar part
    positive; the symmetrised cross products keep the matrix symmetric,
    and any residual negative eigenvalue is clipped to zero with the
    ``psd_projected`` flag set.  ``u`` is copied to contiguous rows when
    it is a strided view, which keeps the lagged products fast.
    """
    eps = np.asarray(eps, dtype=float)
    u = np.ascontiguousarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    m = eps.size
    if u.shape[0] != m:
        raise ParameterError(f"eps has {m} rows, u has {u.shape[0]}")
    if max_lag < 0:
        raise ParameterError(f"max_lag must be >= 0, got {max_lag}")
    if m < max_lag + 2:
        raise ParameterError(
            f"need at least max_lag + 2 = {max_lag + 2} pairs, got {m}"
        )
    e = eps - eps.mean()
    sigma_hat_sq = float(e @ e) / m
    sigma_u = (u.T @ u) / m
    s = sigma_hat_sq * sigma_u
    for lag in range(1, max_lag):
        w = 1.0 - lag / max_lag
        gamma_e = float(e[:-lag] @ e[lag:]) / m
        gamma_u = (u[:-lag].T @ u[lag:]) / m
        s = s + w * gamma_e * (gamma_u + gamma_u.T)
    s = 0.5 * (s + s.T)
    vals, vecs = np.linalg.eigh(s)
    floor = -1e-12 * max(1.0, float(np.abs(vals).max(initial=0.0)))
    projected = bool(vals.min(initial=0.0) < floor)
    if vals.min(initial=0.0) < 0.0:
        s = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        s = 0.5 * (s + s.T)
    return LongRunCovariance(
        sigma_hat_sq=sigma_hat_sq,
        sigma_u=sigma_u,
        sigma_eps_u=s,
        psd_projected=projected,
    )


def default_max_lag(n: int) -> int:
    """Lag window width floor(n ** (1/3)).

    Computed in integers; the float cube root of a perfect cube can land
    just below the true value (1000 ** (1/3) rounds to 9.999...).
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    k = int(float(n) ** (1.0 / 3.0))
    while (k + 1) ** 3 <= n:
        k += 1
    while k**3 > n:
        k -= 1
    return k


def truncated_sls(
    ds: TimeSeriesDataset,
    spec: KernelSpec,
    trunc: TruncationSpec,
) -> SlsFit:
    """Density truncated fit with recurrence and covariance diagnostics.

    The long run covariance uses the residual pairs at every sample
    point (truncation affects which rows enter the normal equations,
    not where residuals exist), keeping the lag structure intact.
    """
    return _sls_fit(*_truncated_solve(ds, spec, trunc), ds.v, spec, trunc)


def _sls_fit(
    theta: np.ndarray,
    mask: np.ndarray,
    yt: np.ndarray,
    xt: np.ndarray,
    v: np.ndarray,
    spec: KernelSpec,
    trunc: TruncationSpec,
) -> SlsFit:
    """``truncated_sls`` from one path's solved coefficients, mask and
    detrended data, and its covariate ``v``."""
    n, d = xt.shape
    cov = longrun_covariance(yt - xt @ theta, xt, default_max_lag(n))
    cond = np.linalg.cond(cov.sigma_u)
    if np.isfinite(cond) and cond <= _COND_LIMIT:
        half = np.linalg.solve(cov.sigma_u, cov.sigma_eps_u)
        avar = np.linalg.solve(cov.sigma_u, half.T).T
        avar = 0.5 * (avar + avar.T)
    else:
        avar = np.full((d, d), np.nan)
    return SlsFit(
        theta_hat=theta,
        mask=mask,
        effective_n=int(mask.sum()),
        n=n,
        n_visits=count_small_set_visits(v, trunc.small_set),
        beta_hat=estimate_beta(v, trunc.small_set),
        sigma_hat_sq=cov.sigma_hat_sq,
        sigma_u=cov.sigma_u,
        sigma_eps_u=cov.sigma_eps_u,
        avar=avar,
        psd_projected=cov.psd_projected,
        kernel=spec,
        truncation=trunc,
    )


def check_level(level: float) -> None:
    """Reject a confidence level outside [0, 1)."""
    if not 0.0 <= level < 1.0:
        raise ParameterError(f"level must be in [0, 1), got {level}")


def asymptotic_ci(fit: SlsFit, level: float) -> np.ndarray:
    """Normal theory confidence intervals for each linear coefficient.

    Returns an array of shape (d, 2).  ``level`` = 0 gives the
    degenerate interval at theta_hat; levels at or above 1 have no
    finite quantile and are rejected, as is a fit whose ``avar`` is NaN.
    The normal quantile comes from the stdlib's ``NormalDist``, within
    a few ulp of Cephes' ``ndtri`` and exactly 0 at ``level`` = 0; one
    scalar does not justify loading ``scipy.special``.
    """
    check_level(level)
    if not np.all(np.isfinite(fit.avar)):
        raise ParameterError("fit has a non-finite avar, no interval available")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * np.sqrt(np.diag(fit.avar) / fit.n)
    return np.column_stack([fit.theta_hat - half, fit.theta_hat + half])


def _curve_rows(
    y: np.ndarray,
    x: np.ndarray,
    thetas: np.ndarray,
    view: SortedView,
    grids: np.ndarray,
    spec: KernelSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``estimate_g`` of every path of a block: row r smooths
    y_r - x_r' thetas[r] on ``grids[r]``.  Returns the (rows, p) values,
    local masses and validity flags."""
    target = np.stack([yr - xr @ th for yr, xr, th in zip(y, x, thetas)])
    mass, sums = _block_sums(view, grids, spec, target[:, :, None])
    valid = mass > 0.0
    values = np.full(mass.shape, np.nan)
    values[valid] = sums[..., 0][valid] / mass[valid]
    return values, mass, valid


def estimate_g(
    ds: TimeSeriesDataset,
    theta: np.ndarray,
    grid: np.ndarray,
    spec: KernelSpec,
) -> CurveEstimate:
    """Kernel estimate of the curve g on a grid, given theta.

    Smooths the partial residual y - x' theta.  Grid points with no
    sample mass get NaN and a False flag.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ds.d,):
        raise ParameterError(f"theta must have shape ({ds.d},), got {theta.shape}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ParameterError("grid must be a nonempty 1-d array")
    values, mass, valid = _curve_rows(
        ds.y[None], ds.x[None], theta[None], ds.sorted_v, grid[None], spec
    )
    return CurveEstimate(
        grid=grid, values=values[0], local_mass=mass[0], valid=valid[0]
    )


def estimate_h(
    ds: TimeSeriesDataset,
    grid: np.ndarray,
    spec: KernelSpec,
) -> list[CurveEstimate]:
    """Kernel regression of each regressor column on the covariate.

    These are the conditional mean curves subtracted from x during
    detrending, reported on a grid for inspection, one estimate per
    regressor column.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ParameterError("grid must be a nonempty 1-d array")
    mass, sums = _window_sums(ds.sorted_v, grid, spec, ds.x)
    valid = mass > 0.0
    out = []
    for j in range(ds.d):
        values = np.full(grid.size, np.nan)
        values[valid] = sums[valid, j] / mass[valid]
        out.append(
            CurveEstimate(grid=grid, values=values, local_mass=mass, valid=valid)
        )
    return out
