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

A block of R = max(1, SWEEP_CELLS // n) bandwidths, R copies of the
sorted dataset with one h to a row, is one left-out read of window sums
of y and x at every sample point off their prefix table, built once per
block height for the uniform kernel and per block for others.  Adding
back each point's own term K(0) (y, x) gives the full sums, from which
the masks and refits are read as in a block fit (``sls._fit_rows``); the
left-out sums give the leave-one-out fits.  A block shares a pass's
fixed cost among its rows; SWEEP_CELLS caps its memory (an Epanechnikov
pass holds some 70 doubles a cell), so from n = SWEEP_CELLS on each h
is its own pass.  No threads: one per h ran slower on two cores, numpy
holding the GIL through each cumulative sum of the table.
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
    _block_sums,
    _prefix_table,
    default_bandwidth,
)
from .markov import NO_VISITS, count_small_set_visits
from .sls import _check_grid, _fit_rows

SWEEP_CELLS = 2**12  # a block of the sweep: bandwidths times sample points


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
    h_grid = _check_grid(h_grid, "h_grid")
    if h_grid.size > 1 and np.any(np.diff(h_grid) <= 0):
        raise ParameterError("h_grid must be strictly increasing")

    spec = [KernelSpec(family, float(h)) for h in h_grid][0]  # rejects h <= 0
    one, stacked = ds.sorted_v, np.column_stack([ds.y, ds.x])
    visits = count_small_set_visits(one.values, trunc.small_set)
    if visits[0] == 0:
        raise NoVisitsError(NO_VISITS)
    rows, scores, block = max(1, SWEEP_CELLS // ds.n), [], ()
    for i in range(0, h_grid.size, rows):
        h = h_grid[i:i + rows, None]
        if len(h) != len(block):  # R copies of the dataset, a bandwidth each
            view, table = one if len(h) == 1 else one.repeated(len(h)), None
            block = np.broadcast_to(stacked, (len(h), *stacked.shape))
        h = float(h[0, 0]) if len(h) == 1 else h  # one row runs as one path
        if table is None or table[-1] is not None:  # its blocks are h wide
            table = _prefix_table(view, spec, block, h)
        scores += _score(view, block, table, visits, spec, h, trunc)
    criterion, dropped = map(np.array, zip(*scores))

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


def _score(view, stacked, table, visits, spec, h, trunc):
    """The criterion and dropped count of each bandwidth of a block, h an
    (R, 1) array or a float, from one left-out read of ``table``, the
    prefix table of the (R, n, 1 + d) columns ``stacked``, y first."""
    k0 = KERNEL_AT_ZERO[spec.family]
    loo_mass, loo_sums = _block_sums(view, None, spec, table, leave_out=True, h=h)
    fits, masks, _ = _fit_rows(
        stacked, loo_mass + k0, loo_sums + k0 * stacked,
        visits.repeat(len(stacked)), h, trunc,
    )
    return list(map(_row_score, fits, masks, stacked, loo_mass, loo_sums))


def _row_score(theta, mask, stacked, loo_mass, loo_sums) -> tuple[float, int]:
    """One row's score; a fit that fails scores infinity, none dropped."""
    if isinstance(theta, PartlinError):
        return np.inf, 0
    usable = mask & (loo_mass > 0.0)
    dropped = int(np.count_nonzero(mask)) - int(np.count_nonzero(usable))
    if not usable.any():
        return np.inf, dropped
    coef = np.append(1.0, -theta)
    with np.errstate(divide="ignore", invalid="ignore"):  # every point, then the usable
        err = (stacked @ coef - (loo_sums @ coef) / loo_mass)[usable]
    return float(err @ err), dropped
