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
is its own pass.  From n = AHEAD_CELLS (2**16, where a pass is one row)
a helper thread searches the next h's window ends while this one is
scored (below about n = 20 000 it cost more than it saved); two whole
passes at once gained as much, but raised peak RSS 58.5 -> 71-72 MB.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .dataset import TimeSeriesDataset
from .errors import (
    NoVisitsError, ParameterError, PartlinError, SelectionError, finite_array
)
from .kernel import (
    KERNEL_AT_ZERO,
    KernelSpec,
    TruncationSpec,
    _block_sums,
    _prefix_table,
    default_bandwidth,
)
from .markov import NO_VISITS, _count_visits
from .rng import thread_count
from .sls import _fit_rows

SWEEP_CELLS = 2**12  # a block of the sweep: bandwidths times sample points
AHEAD_CELLS = 2**16  # a one-row pass this long has its windows searched ahead


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
    h_grid = finite_array(h_grid, "h_grid")
    if h_grid.size > 1 and np.any(np.diff(h_grid) <= 0):
        raise ParameterError("h_grid must be strictly increasing")

    spec = [KernelSpec(family, float(h)) for h in h_grid][0]  # rejects h <= 0
    one, stacked = ds.sorted_v, np.column_stack([ds.y, ds.x])
    visits = _count_visits(one.values, trunc.small_set)
    if visits[0] == 0:
        raise NoVisitsError(NO_VISITS)
    rows, scores, block = max(1, SWEEP_CELLS // ds.n), [], ()
    with _searched_ahead(one, h_grid, rows) as ends:
        for i in range(0, h_grid.size, rows):
            h = h_grid[i:i + rows, None]
            if len(h) != len(block):  # R copies of the dataset, a bandwidth each
                view, table = one if len(h) == 1 else one.repeated(len(h)), None
                block = np.broadcast_to(stacked, (len(h), *stacked.shape))
            h = float(h[0, 0]) if len(h) == 1 else h  # one row runs as one path
            if table is None or table[-1] is not None:  # its blocks are h wide
                table = _prefix_table(view, spec, block, h)
            scores += _score(view, block, table, visits, spec, h, trunc, ends(i))
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


@contextmanager
def _searched_ahead(one, grid, rows):
    """``ends(k)``: the upper ends of the own windows of the one-path view
    ``one`` at ``grid[k]``, searched on a helper thread while the h before
    it is scored, into two buffers in turn; None, for the pass to search,
    for ``rows`` > 1 h a pass, below AHEAD_CELLS points or on one core.
    The helper is joined before this returns or raises."""
    n = one.values.size
    if rows > 1 or n < AHEAD_CELLS or thread_count(2) < 2:
        yield lambda k: None
        return
    from concurrent.futures import ThreadPoolExecutor  # `import partlin` loads no pool

    bufs = np.empty((2, 1, n), np.int32 if n < 2**31 else np.intp)
    with ThreadPoolExecutor(1) as pool:
        def search(k):
            return pool.submit(one._upper_ends, one.values, float(grid[k]), bufs[k % 2])

        searched = [search(0)]

        def ends(k):  # grid[k - 1] is scored, so its buffer is free
            if k + 1 < len(grid):
                searched.append(search(k + 1))
            return searched[k].result()

        yield ends


def _score(view, stacked, table, visits, spec, h, trunc, hi):
    """The criterion and dropped count of each h of a block, an (R, 1)
    array or a float, from one left-out read of ``table``, the prefix table
    of the (R, n, 1 + d) columns ``stacked``, y first; ``hi`` as in ``_block_sums``."""
    k0 = KERNEL_AT_ZERO[spec.family]
    loo_mass, loo_sums = _block_sums(view, None, spec, table, True, h, hi)
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
    with np.errstate(all="ignore"):  # every point, then the usable; the sum may overflow
        err = (stacked @ coef - (loo_sums @ coef) / loo_mass)[usable]
        return float(err @ err), dropped
