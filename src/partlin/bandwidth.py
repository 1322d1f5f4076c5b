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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TimeSeriesDataset
from .errors import ParameterError, RankError, SelectionError, TruncationError
from .kernel import (
    KernelSpec,
    TruncationSpec,
    _window_sums,
    default_bandwidth,
)
from .sls import truncated_theta


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

    criterion = np.full(h_grid.size, np.inf)
    dropped = np.zeros(h_grid.size, dtype=int)
    for i, h in enumerate(h_grid):
        spec = KernelSpec(family, float(h))
        try:
            theta, mask = truncated_theta(ds, spec, trunc)
        except (RankError, TruncationError):
            continue
        r = ds.y - ds.x @ theta
        loo_mass, loo_sums = _window_sums(
            ds.sorted_v, None, spec, r[:, None], leave_out=True
        )
        loo_ok = loo_mass > 0.0
        usable = mask & loo_ok
        dropped[i] = int(np.count_nonzero(mask & ~loo_ok))
        if not usable.any():
            continue
        g_loo = loo_sums[usable, 0] / loo_mass[usable]
        err = r[usable] - g_loo
        criterion[i] = float(err @ err)

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
