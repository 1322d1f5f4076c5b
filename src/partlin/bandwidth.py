"""Bandwidth selection by leave-one-out cross validation.

For each candidate h the linear coefficients are refit on the full
sample (they are cheap and depend on h through the smoother), and the
curve value at each kept observation is recomputed with that
observation's own kernel contribution removed.  The criterion is the
sum of squared prediction errors over kept observations; observations
whose leave-one-out window is empty cannot be scored and are dropped
from the sum, with a per-h count reported.

Truncation enters twice, deliberately with the same floor for every h:
the coefficient refit uses the floor, and only observations passing the
floor are scored, so the criterion compares bandwidths on a common
footing in the well visited region.

Each bandwidth is one pass of window sums, left out, of y and x at
every sample point.  Adding back each point's own term K(0) (y, x) gives
the full sums, from which the mask and the refit are read as in a fit
(``sls._fit_rows``), and the left-out sums give the leave-one-out fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TimeSeriesDataset
from .errors import NoVisitsError, ParameterError, PartlinError, SelectionError
from .kernel import (
    KERNEL_AT_ZERO,
    KernelSpec,
    TruncationSpec,
    _window_sums,
    default_bandwidth,
)
from .sls import _fit_rows


@dataclass(frozen=True)
class CvResult:
    """Outcome of a cross validation sweep.

    ``criterion[i]`` is the score of ``grid[i]`` (infinity marks a
    bandwidth that produced no usable fit), ``dropped[i]`` counts kept
    observations that could not be scored at that bandwidth.  Ties in
    the criterion resolve to the smallest bandwidth.
    """

    h_star: float
    grid: np.ndarray
    criterion: np.ndarray
    dropped: np.ndarray


def default_h_grid(n: int) -> np.ndarray:
    """Twelve log spaced candidates bracketing the rule of thumb bandwidth.

    Spans [0.1 h0, 3 h0] around h0 = n ** -0.25, wide enough to cover
    the rate window in which the truncated estimator is valid.
    """
    h0 = default_bandwidth(n)
    return np.geomspace(0.1 * h0, 3.0 * h0, 12)


def cv_select(
    ds: TimeSeriesDataset,
    h_grid: np.ndarray,
    family: str,
    trunc: TruncationSpec,
) -> CvResult:
    """Pick a bandwidth for ``family`` from ``h_grid`` by leave one out.

    The grid must be strictly increasing, finite and positive.  A
    bandwidth where the refit fails (floor removes everything, or the
    detrended design is singular) scores infinity; if every candidate
    fails a :class:`SelectionError` is raised.  A path that never visits
    the small set raises immediately, since no bandwidth can repair it.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.ndim != 1 or h_grid.size < 1:
        raise ParameterError("h_grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(h_grid)) or np.any(h_grid <= 0):
        raise ParameterError("h_grid values must be finite and > 0")
    if h_grid.size > 1 and np.any(np.diff(h_grid) <= 0):
        raise ParameterError("h_grid must be strictly increasing")

    specs = [KernelSpec(family, float(h)) for h in h_grid]
    visits = np.count_nonzero(trunc.small_set.contains(ds.sorted_v.values), axis=1)
    if visits[0] == 0:
        raise NoVisitsError("the path never enters the small set")
    stacked = np.column_stack([ds.y, ds.x])
    criterion = np.full(h_grid.size, np.inf)
    dropped = np.zeros(h_grid.size, dtype=int)
    for i, spec in enumerate(specs):
        criterion[i], dropped[i] = _score(ds.sorted_v, stacked, visits, spec, trunc)

    if not np.any(np.isfinite(criterion)):
        raise SelectionError(
            "no candidate bandwidth produced a scorable fit"
        )
    best = int(np.argmin(criterion))
    return CvResult(
        h_star=float(h_grid[best]),
        grid=h_grid,
        criterion=criterion,
        dropped=dropped,
    )


def _score(view, stacked, visits, spec, trunc) -> tuple[float, int]:
    """The criterion at one bandwidth and its dropped count, from one
    left-out pass over the (n, 1 + d) columns ``stacked``, y first.
    A fit that fails scores infinity with none dropped."""
    k0 = KERNEL_AT_ZERO[spec.family]
    loo_mass, loo_sums = _window_sums(view, None, spec, stacked, leave_out=True)
    sums = loo_sums + k0 * stacked
    (theta,), (mask,), _ = _fit_rows(
        stacked[None], (loo_mass + k0)[None], sums[None], visits, spec, trunc
    )
    if isinstance(theta, PartlinError):
        return np.inf, 0
    usable = mask & (loo_mass > 0.0)
    dropped = int(np.count_nonzero(mask)) - int(np.count_nonzero(usable))
    if not usable.any():
        return np.inf, dropped
    coef = np.append(1.0, -theta)
    err = stacked[usable] @ coef - (loo_sums[usable] @ coef) / loo_mass[usable]
    return float(err @ err), dropped
