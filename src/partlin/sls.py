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
    finite_array,
    scalar,
)
from .kernel import (
    KernelSpec,
    SortedView,
    TruncationSpec,
    _block_sums,
    _density_masks,
    _prefix_table,
    _regression,
    smooth,
)
from .markov import NO_VISITS, _count_visits, beta_from_visits

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
    zero mass, or a value past the float range, carry NaN values and are
    flagged invalid rather than raising, since sparse outer grid regions
    are expected under null recurrence.
    """

    grid: np.ndarray
    values: np.ndarray
    local_mass: np.ndarray
    valid: np.ndarray


def _detrend(ds: TimeSeriesDataset, spec: KernelSpec) -> np.ndarray:
    """The (n, 1 + d) detrended columns of one dataset, y first, by
    ``smooth``."""
    stacked = np.column_stack([ds.y, ds.x])
    return stacked - smooth(ds.sorted_v, stacked, spec)[0]


def _solve_normal(tilde: np.ndarray, masks: np.ndarray, x: np.ndarray) -> list:
    """Least squares of each row of a block on the points its mask keeps:
    ``tilde`` the (rows, n, 1 + d) detrended columns, y first, and ``x``
    the raw (rows, n, d) regressors.  Returns each row's coefficients,
    or the RankError that stops them; the normal equations are formed
    row by row, then checked and solved at once.  A row whose equations
    are not finite (a sum past the float range) is refused.

    The kept points of the whole block are compacted once, in row
    order, so each row's (k, d) regressors and its k responses are
    contiguous slices, laid out as a gather of the row alone would be;
    a mask of the regressors' own shape keeps numpy from building index
    arrays for the compaction."""
    rows, _, d = x.shape
    a, b = np.empty((rows, d, d)), np.empty((rows, d))
    xc = tilde[..., 1:][np.broadcast_to(masks[..., None], x.shape)].reshape(-1, d)
    yc = tilde[..., 0][masks]
    ends = np.cumsum(masks.sum(axis=1)).tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for r, (lo, hi) in enumerate(zip([0] + ends, ends)):
            xt = xc[lo:hi]
            a[r], b[r] = xt.T @ xt, xt.T @ yc[lo:hi]
    # a column with no variation around its covariate trend detrends to
    # roundoff noise; its normal-equation diagonal is then far below the
    # raw column scale and the solve would amplify garbage
    ref = np.maximum(np.einsum("rt,rtj,rtj->rj", masks, x, x), np.finfo(float).tiny)
    zero = np.any(np.diagonal(a, axis1=1, axis2=2) <= 1e-24 * ref, axis=1)
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    cond = np.full(rows, np.inf)
    cond[finite] = np.linalg.cond(a[finite])
    ok = ~zero & (cond <= _COND_LIMIT)  # False for a NaN condition too
    solved = iter(np.linalg.solve(a[ok], b[ok, :, None])[..., 0])
    return [
        next(solved) if fine else RankError(
            "a detrended regressor column is numerically zero, the coefficient "
            "on it is not identified" if flat
            else "the normal equations overflow the float range" if not fin
            else f"detrended design is numerically singular (condition {c:.3e})"
        )
        for fine, flat, fin, c in zip(ok, zero, finite, cond)
    ]


def naive_sls(ds: TimeSeriesDataset, spec: KernelSpec) -> np.ndarray:
    """Least squares on all detrended rows, no density truncation."""
    tilde = _detrend(ds, spec)[None]
    (theta,) = _solve_normal(tilde, np.ones(tilde.shape[:2], bool), ds.x[None])
    if isinstance(theta, RankError):
        raise theta
    return theta


def _fit_rows(stacked, mass, sums, visits, h, trunc):
    """The truncated fit of every path of a block: ``stacked`` the
    (rows, n, 1 + d) columns y, x of each path, ``mass`` and ``sums``
    their window sums at h at its own points (``_block_sums``), ``visits``
    each path's small set visit count.  Returns ``(fits, masks, tilde)``:
    ``fits[r]`` is row r's coefficient vector, or the error that stops
    its fit (NoVisitsError, TruncationError or RankError, checked in that
    order); ``masks`` the (rows, n) truncation masks, read off ``mass``,
    and ``tilde`` the detrended columns, written over ``sums``."""
    masks = _density_masks(mass, visits, h, trunc)
    for j in range(sums.shape[-1]):  # a column at a time, not broadcast
        sums[..., j] /= mass
    tilde = np.subtract(stacked, sums, out=sums)
    solved = _solve_normal(tilde, masks, stacked[..., 1:])
    fits = [
        NoVisitsError(NO_VISITS) if not seen
        else fit if kept
        else TruncationError(
            f"density floor {trunc.b_n:g} removed all {masks.shape[1]} observations"
        )
        for fit, kept, seen in zip(solved, masks.any(axis=1), visits)
    ]
    return fits, masks, tilde


def _truncated_rows(stacked, view, spec, trunc):
    """``_fit_rows`` of a block of paths, ``stacked`` their (rows, n, 1 + d)
    columns y, x and ``view`` their sorted covariate rows, and the visit
    counts it used: ``(fits, masks, tilde, visits)``."""
    mass, sums = _block_sums(view, None, spec, _prefix_table(view, spec, stacked))
    visits = _count_visits(view.values, trunc.small_set)
    return (*_fit_rows(stacked, mass, sums, visits, spec.bandwidth, trunc), visits)


def _truncated_solve(
    ds: TimeSeriesDataset, spec: KernelSpec, trunc: TruncationSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Coefficients, the truncation mask, the (n, 1 + d) detrended
    columns, y first, they were solved from and the visit count:
    ``_truncated_rows`` of one dataset, raising its fit error."""
    (theta,), masks, tilde, visits = _truncated_rows(
        np.column_stack([ds.y, ds.x])[None], ds.sorted_v, spec, trunc
    )
    if isinstance(theta, PartlinError):
        raise theta
    return theta, masks[0], tilde[0], visits[0]


def truncated_theta(
    ds: TimeSeriesDataset, spec: KernelSpec, trunc: TruncationSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and the truncation mask, without fit diagnostics."""
    return _truncated_solve(ds, spec, trunc)[:2]


def residuals(
    ds: TimeSeriesDataset, theta: np.ndarray, spec: KernelSpec
) -> ResidualSet:
    """Detrended residual pairs (eps_hat_t, u_hat_t) for a given theta.

    ``eps_hat = ytilde - xtilde' theta`` and ``u_hat = xtilde``.  A
    residual past the float range raises RankError, as a fit does.
    """
    theta = finite_array(theta, "theta", rows=ds.d)
    tilde = _detrend(ds, spec)
    xt = tilde[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        eps = tilde[:, 0] - xt @ theta
    if not np.isfinite(eps).all():
        raise RankError("the detrended residuals overflow the float range")
    return ResidualSet(eps_hat=eps, u_hat=xt)


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
    eps = finite_array(eps, "eps")
    m = eps.size
    u = finite_array(u, "u", (1, 2), rows=m)
    u = np.ascontiguousarray(u[:, None] if u.ndim == 1 else u)
    max_lag = scalar(max_lag, "max_lag", int, 0)
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
    n = scalar(n, "n", int, 1)
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
    return _sls_fit(*_truncated_solve(ds, spec, trunc), spec, trunc)


def _sls_fit(
    theta: np.ndarray,
    mask: np.ndarray,
    tilde: np.ndarray,
    visits: int,
    spec: KernelSpec,
    trunc: TruncationSpec,
) -> SlsFit:
    """``truncated_sls`` from one path's solved coefficients, mask,
    (n, 1 + d) detrended columns, y first, and small set visit count."""
    yt, xt = tilde[:, 0], tilde[:, 1:]
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
        n_visits=int(visits),
        beta_hat=beta_from_visits(visits, n),
        sigma_hat_sq=cov.sigma_hat_sq,
        sigma_u=cov.sigma_u,
        sigma_eps_u=cov.sigma_eps_u,
        avar=avar,
        psd_projected=cov.psd_projected,
        kernel=spec,
        truncation=trunc,
    )


def check_level(level: float) -> float:
    """``level`` as a float; a level outside [0, 1) raises."""
    if not 0.0 <= (level := scalar(level, "level")) < 1.0:
        raise ParameterError(f"level must be in [0, 1), got {level}")
    return level


def asymptotic_ci(fit: SlsFit, level: float) -> np.ndarray:
    """Normal theory confidence intervals for each linear coefficient.

    Returns an array of shape (d, 2).  ``level`` = 0 gives the
    degenerate interval at theta_hat; levels at or above 1 have no
    finite quantile and are rejected, as is a fit whose ``avar`` is NaN.
    The normal quantile comes from the stdlib's ``NormalDist``, within
    a few ulp of Cephes' ``ndtri`` and exactly 0 at ``level`` = 0; one
    scalar does not justify loading ``scipy.special``.
    """
    level = check_level(level)
    if not np.all(np.isfinite(fit.avar)):
        raise ParameterError("fit avar holds NaN or inf, no interval available")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * np.sqrt(np.diag(fit.avar) / fit.n)
    return np.column_stack([fit.theta_hat - half, fit.theta_hat + half])


def _curve_rows(
    view: SortedView, grids: np.ndarray, spec: KernelSpec, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel regression of the (n, k) columns ``targets[r]`` of each path
    r of a block on ``grids[r]``: the (rows, p, k) values and the (rows, p)
    local masses and validity flags."""
    mass, sums = _block_sums(view, grids, spec, _prefix_table(view, spec, targets))
    values, valid = _regression(mass, sums)
    return values, mass, valid


def _curves(
    ds: TimeSeriesDataset, grid: np.ndarray, spec: KernelSpec, targets: np.ndarray
) -> list[CurveEstimate]:
    """One curve per column of the (n, k) ``targets`` of ``ds`` on ``grid``."""
    grid = finite_array(grid, "grid")
    values, mass, valid = _curve_rows(ds.sorted_v, grid[None], spec, targets[None])
    return [CurveEstimate(grid, col, mass[0], valid[0]) for col in values[0].T]


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
    theta = finite_array(theta, "theta", rows=ds.d)
    return _curves(ds, grid, spec, (ds.y - ds.x @ theta)[:, None])[0]


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
    return _curves(ds, grid, spec, ds.x)
