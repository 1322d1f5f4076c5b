"""Kernel evaluation, local mass, density truncation and smoothing.

Everything here reduces to window sums: for evaluation points p_i and
sample points v_t, accumulate K((v_t - p_i)/h) and the same sums against
target columns.  One engine, ``_block_sums``, computes them for every
kernel family and for a block of samples at once, the rows of an array
(a Monte Carlo block of replications); one dataset is the block of one
row, which ``_window_sums`` serves.  The engine reads the samples
through a ``SortedView``, built once per dataset
(``TimeSeriesDataset.sorted_v``) or block, and finds each point's
window, the sample points with |(v_t - p_i)/h| <= 1 in floating point,
as one contiguous run of its row's sorted sample.  When the points are
the sample itself, the windows are read off their upper ends alone,
found by one walk along each sorted row.
The view holds nothing but the sorted rows, so every search is a pure
function of its points and h, a float or an (R, 1) array of one per
row (a block of one sample at R bandwidths).  Every family is a polynomial
in u on its window, so window sums are read off a table of prefix sums
of moments (``_prefix_table``), O((n + p) log n) whatever the window
sizes: of each row for a constant kernel, a table that holds for every
h, so the cross validation sweep builds it once, else of blocks of
width h, re-centred to each point (Seifert et al. 1994, Fan & Marron
1994).  A fit at one h is one pass, its truncation mask read off the
mass of its detrending sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, log, ulp
from typing import Callable

import numpy as np

from .errors import NoVisitsError, ParameterError, finite_array, scalar, store_scalars
from .markov import NO_VISITS, SmallSet, _count_visits

# K(u) on its window |u| <= 1, as coefficients of u**0, u**1, ...
_POLYNOMIAL = {"uniform": (0.5,), "epanechnikov": (0.75, 0.0, -0.75)}
FAMILIES = tuple(_POLYNOMIAL)
KERNEL_AT_ZERO = {family: c[0] for family, c in _POLYNOMIAL.items()}
# integral of the squared kernel, the scale in the pointwise limit law
KERNEL_L2 = {"uniform": 0.5, "epanechnikov": 0.6}
# a window sum below this share of its terms' magnitudes lost 16 bits or more
_CANCELLED = 2.0**-16


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus a bandwidth h > 0."""

    family: str
    bandwidth: float

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ParameterError(
                f"unknown kernel family {self.family!r}, expected one of {FAMILIES}"
            )
        store_scalars(self, float, bandwidth=ulp(0.0))  # the least float > 0


@dataclass(frozen=True)
class TruncationSpec:
    """Density floor b_n and the small set used to count regenerations."""

    b_n: float
    small_set: SmallSet

    def __post_init__(self) -> None:
        store_scalars(self, float, b_n=0)


def kernel_eval(spec: KernelSpec, u: np.ndarray | float) -> np.ndarray | float:
    """Evaluate the kernel at standardised distance(s) u."""
    arr = np.asarray(u, dtype=float)
    inside = np.abs(arr) <= 1.0
    if spec.family == "uniform":
        out = np.where(inside, 0.5, 0.0)
    else:
        out = np.where(inside, 0.75 * (1.0 - arr * arr), 0.0)
    return float(out) if np.isscalar(u) else out


def default_bandwidth(n: int) -> float:
    """Rule of thumb bandwidth n**(-1/4)."""
    return float(scalar(n, "n", int, 1)) ** -0.25


DENSITY_FLOOR_SCALE = 0.05


def default_density_floor(n: int) -> float:
    """Slowly vanishing truncation level DENSITY_FLOOR_SCALE / log n
    (needs n >= 2)."""
    return DENSITY_FLOOR_SCALE / log(scalar(n, "n", int, 2))


DEFAULT_SMALL_SET = SmallSet(-1.0, 1.0)


def truncation_spec(n: int, bn: float | None, small_set: SmallSet) -> TruncationSpec:
    """Truncation at ``bn`` on ``small_set``, ``default_density_floor(n)`` if None."""
    return TruncationSpec(default_density_floor(n) if bn is None else bn, small_set)


def default_truncation(n: int) -> TruncationSpec:
    return truncation_spec(n, None, DEFAULT_SMALL_SET)


def _of_windows(h, windows: np.ndarray, width: int):
    """h at each flattened window of a block, ``width`` windows to a row."""
    return h if np.ndim(h) == 0 else h.ravel()[windows // width]


@np.errstate(over="ignore")  # (v - p)/h overflows to +-inf, which past() decides
def _settle_edge(
    padded: np.ndarray,
    points: np.ndarray,
    h,
    guess: np.ndarray,
    past: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """First index of each sorted sample whose standardised distance
    (v - p_i)/h satisfies ``past``, for every point p_i of that sample.

    ``padded`` has one row per sample: its sorted values with -inf in
    front and +inf behind (``SortedView.padded``, built once per
    sample).  ``points`` and ``guess`` have one row of points per
    sample row, and the result is an index into that row's sorted
    values.  Window membership is decided on (v - p)/h, exactly as
    ``kernel_eval`` decides it; ``past`` is monotone in v, so each
    window is one contiguous run of the sorted sample.  ``guess`` may be
    any index from 0 to n; in practice it is the insertion index of
    p -+ h in the point's own row, which misses only for values within
    rounding distance of the edge.  Checking the two neighbours of each
    guess costs O(p); only guesses that fail are bisected, within their
    own row, so a guess sets the speed, never the result.
    """
    width = padded.shape[1]
    n = width - 2
    flat = padded.ravel()
    at = guess + (np.arange(padded.shape[0]) * width)[:, None]
    late = past((flat[at] - points) / h)
    early = ~past((flat[at + 1] - points) / h)
    bad = np.flatnonzero(late | early)
    if bad.size == 0:
        return guess
    pts, hb = points.ravel()[bad], _of_windows(h, bad, guess.shape[1])
    start = (bad // guess.shape[1]) * width
    was = guess.ravel()[bad]
    up = early.ravel()[bad]
    lo = np.where(up, was + 1, 0)
    hi = np.where(up, n, was - 1)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        hit = past((flat[start + mid + 1] - pts) / hb)
        active = lo < hi
        hi = np.where(active & hit, mid, hi)
        lo = np.where(active & ~hit, mid + 1, lo)
    settled = guess.copy()
    settled.ravel()[bad] = lo
    return settled


class SortedView:
    """The covariate sorted once.

    ``v`` is one covariate path of shape (n,), or a block of paths as
    the rows of an (rows, n) array; a single path is the block of one
    row, and every row is handled as if it were alone.  A NaN or
    infinite value is rejected here, by its position, so every view is
    finite.  ``padded`` has one row per path: its values sorted, with
    -inf in front and +inf behind (what ``_settle_edge`` reads), and
    ``values`` is their finite middle.
    ``order`` is the stable sorting permutation of each row as
    positions in the flattened block, so for one path it is the path's
    own sorting permutation.  These and ``rank`` are all a view holds.
    """

    def __init__(self, v: np.ndarray):
        v = finite_array(v, "covariate", (1, 2), min_size=0)
        rows = v if v.ndim == 2 else v[None]
        order = np.argsort(rows, axis=1)
        ranked = np.take_along_axis(rows, order, axis=1)
        # the default sort is not stable, but a row whose sorted values
        # strictly increase has one sorting permutation; others are
        # sorted again, stably
        tied = ~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
        if tied.any():
            order[tied] = np.argsort(rows[tied], axis=1, kind="stable")
            ranked[tied] = np.take_along_axis(rows[tied], order[tied], axis=1)
        self._hold(order, ranked)

    def _hold(self, order: np.ndarray, ranked: np.ndarray) -> None:
        count, n = ranked.shape
        self.order = (order + (np.arange(count) * n)[:, None]).ravel()
        self.padded = np.empty((count, n + 2))
        self.padded[:, 0] = -np.inf
        self.padded[:, -1] = np.inf
        self.padded[:, 1:-1] = ranked
        self.values = self.padded[:, 1:-1]
        for arr in (self.order, self.padded):
            arr.flags.writeable = False

    def repeated(self, rows: int) -> SortedView:
        """A view of ``rows`` copies of this one path, not sorted again."""
        block = object.__new__(SortedView)
        block._hold(np.tile(self.order, (rows, 1)), np.tile(self.values, (rows, 1)))
        return block

    @cached_property
    def rank(self) -> np.ndarray:
        """The inverse of ``order``: where each cell of the flattened
        block sits once sorted."""
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(self.order.size)
        rank.flags.writeable = False
        return rank

    def unsort(self, sorted_cells: np.ndarray, dtype=None) -> np.ndarray:
        """An array of one cell per cell of the block, given in sorted
        order, put in sample order (as ``dtype``, if given)."""
        out = np.empty(sorted_cells.shape, dtype or sorted_cells.dtype)
        out.ravel()[self.order] = sorted_cells.ravel()
        return out

    def _walk(self, needles: np.ndarray) -> np.ndarray:
        """Guesses of how many values of its own row of ``values`` lie at
        or below each needle, by ``np.interp`` of the row's indices: it
        starts each search at the previous needle's interval, so sorted
        needles walk the row once, and lands on the end of a run of ties.
        A guess is one high where the interpolated index rounds up."""
        n = self.values.shape[1]
        count = np.arange(1, n + 1, dtype=float)
        out = np.empty(needles.shape, dtype=np.intp)
        for row, at, guess in zip(self.values, needles, out):
            below = np.interp(at, row, count, left=0.0)  # inf across a subnormal gap
            np.minimum(below, n, out=guess, casting="unsafe")
        return out

    def _upper_ends(self, points: np.ndarray, h) -> np.ndarray:
        return _settle_edge(
            self.padded, points, h, self._walk(points + h), lambda u: u > 1.0
        )

    def windows(self, points: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
        """Bounds ``[lo, hi)`` in each row's sorted sample of the windows
        of that row's points (``points`` has one row per path); the lower
        ends by binary search, exact on ties."""
        guess = [np.searchsorted(row, at) for row, at in zip(self.values, points - h)]
        lo = _settle_edge(self.padded, points, h, np.stack(guess), lambda u: u >= -1.0)
        return lo, self._upper_ends(points, h)

    def own_windows(self, h) -> tuple[np.ndarray, np.ndarray]:
        """Windows of the sorted sample points themselves, in sorted order.

        Only the upper ends are searched, in one walk along each row.
        Since (v_i - v_j)/h is -(v_j - v_i)/h exactly, v_j lies below
        the lower end of v_i's window exactly when v_i lies at or above
        the upper end of v_j's, so the lower end of window i counts the
        windows j whose upper end is at most i.
        """
        count, n = self.values.shape
        hi = self._upper_ends(self.values, h)
        ends = np.bincount(
            (hi + (np.arange(count) * (n + 1))[:, None]).ravel(),
            minlength=count * (n + 1),
        )
        return np.cumsum(ends.reshape(count, n + 1), axis=1)[:, :n], hi


def _as_view(v_series: np.ndarray | SortedView) -> SortedView:
    """The covariate's ``SortedView``, sorted here from a plain array;
    either must hold one nonempty path."""
    if isinstance(v_series, SortedView):
        if v_series.values.shape[0] == 1 and v_series.values.size:
            return v_series
        v_series = v_series.values  # of a block or an empty path: refused below
    return SortedView(finite_array(v_series, "covariate", kind="path"))


# a tiny h makes +-inf cells, and a sum past the float range is +-inf or NaN,
# which a fit refuses (sls._solve_normal)
@np.errstate(over="ignore", invalid="ignore")
def _prefix_table(view: SortedView, spec: KernelSpec, targets, h=None) -> tuple:
    """The table ``_block_sums`` reads window sums off: prefix sums of
    ``targets`` ((R, n, k) in sample order, k >= 1) in blocks of the
    sorted rows of ``view``, ``(pref, base, starts, inner, outer, flat,
    cell)``.

    K is a polynomial of degree D in u on its window (``_POLYNOMIAL``).
    A constant K takes each row as one block, a table that holds for
    every h (``cell`` None); others cut the rows at cells of width
    ``cell`` = h (spec's if None).  Block b begins at ``starts[b]`` of the
    flattened rows and spans ``inner[b]`` to ``outer[b]`` of its row, and
    ``pref[base[b] + i]`` sums it before its i-th point: each target w
    and, for q = 1..D, w a**q with w = 1 and each target, a = (v - c)/h,
    c the block's first value.  ``flat`` is the targets as (R n, k).
    """
    count, n = view.values.shape
    h = spec.bandwidth if h is None else h
    deg = len(_POLYNOMIAL[spec.family]) - 1
    k = targets.shape[-1]
    flat = targets.reshape(count * n, k)
    starts = np.arange(count) * n
    if deg:
        sv = view.values.ravel()
        cell = np.floor((view.values - view.values[:, :1]) / h)
        starts = np.flatnonzero(np.diff(cell, axis=1, prepend=np.nan))
    ends = np.append(starts[1:], count * n)
    inner, outer = starts % n, ends - starts + starts % n
    # a size class of blocks, sizes in (2**(c-1), 2**c], is summed as one array
    cls = np.ceil(np.log2(ends - starts))
    classes = [np.flatnonzero(cls == c) for c in np.unique(cls)]
    widths = [int((ends - starts)[sel].max()) + 1 for sel in classes]
    base = np.empty(starts.size, dtype=np.intp)
    pref = np.zeros((np.dot(widths, list(map(len, classes))), k + deg * (1 + k)))
    top = 0
    for sel, width in zip(classes, widths):
        base[sel] = top + width * np.arange(sel.size) - inner[sel]
        seg = pref[top:top + width * sel.size].reshape(sel.size, width, -1)[:, 1:]
        top += width * sel.size
        # positions of each block, running on into sums never read
        at = starts[sel, None] + np.arange(width - 1)
        w = np.take(flat, np.take(view.order, at, mode="clip"), axis=0)
        np.cumsum(w, axis=1, out=seg[..., :k])
        if deg:
            a = np.take(sv, at, mode="clip") - sv[starts[sel], None]
            a = (a / _of_windows(h, starts[sel, None], n))[..., None]
            w = np.concatenate([np.ones_like(a), w], axis=2)
        for q, col in enumerate(range(k, pref.shape[1], 1 + k), 1):
            np.cumsum(w * a**q, axis=1, out=seg[..., col:col + 1 + k])
    return pref, base, starts, inner, outer, flat, h if deg else None


@np.errstate(over="ignore", invalid="ignore")  # as in _prefix_table
def _block_sums(view, points, spec: KernelSpec, table, leave_out=False, h=None):
    """Kernel mass and kernel weighted target sums at each point of
    every path in ``view``.

    With R paths of length n, ``points`` is an (R, p) array, row r
    holding the evaluation points of path r, or None for each path's
    own sample points (p = n, in sample order); ``table`` is the
    ``_prefix_table`` for ``spec`` and h (spec's if None) of ``targets``,
    an (R, n, k) array in sample order.  Returns ``(mass, sums)`` of
    shapes (R, p) and (R, p, k): ``mass[r, i] = sum_t K((v_rt - p_ri)/h)``,
    ``sums[r, i, j] = sum_t K((v_rt - p_ri)/h) * targets[r, t, j]``; the
    mass reads no target, so its bits do not depend on them.  Kernel
    values are unscaled by 1/h.  ``leave_out`` drops each own point's
    own term (t = i) from both.  Own points' windows are the view's, in
    sorted order.  One path's sums are worked in that order and put back
    in sample order once, which measured faster on a long path's cross
    validation sweep; a block's windows are put in sample order first,
    so no block-sized copy of its sums is made.

    A window is the pieces of at most four blocks of the table, each
    read off two prefix sums and re-centred to the point by binomial
    expansion.  A window whose mass is below ``_CANCELLED`` of the
    magnitudes it is formed from (its samples at or near its edges, or,
    left out, none but the point) is summed over its pairs instead.
    """
    count, n = view.values.shape
    h = spec.bandwidth if h is None else h
    own = points is None
    poly = _POLYNOMIAL[spec.family]
    deg = len(poly) - 1
    if own:
        points, (lo, hi) = view.values, view.own_windows(h)
    else:
        lo, hi = view.windows(points, h)
    unsorted = own and count > 1  # a block's windows go to sample order
    if unsorted:  # as 32 bit bounds, where n allows
        bounds = np.int32 if n < 2**31 else np.intp
        lo, hi = view.unsort(lo, bounds), view.unsort(hi, bounds)
        points = view.unsort(points) if deg else None  # read by deg only
    pref, base, starts, inner, outer, flat, _ = table
    k = flat.shape[1]
    ones = range(k, pref.shape[1], 1 + k)  # the columns of 1 a**q
    first = np.arange(count)[:, None]  # each window's first block
    if deg:
        sv = view.values.ravel()
        first = np.searchsorted(starts, np.minimum(lo, n - 1) + first * n, "right") - 1

    # piece j of a window is its part of the j-th block from its first;
    # ``on`` indexes the flattened windows that have a piece j
    on = Ellipsis
    for j in range(starts.size if deg else 1):
        if j:
            on = np.flatnonzero(t < end) if j == 1 else on[t < end]
            if not on.size:
                break
        b = first if j == 0 else first.ravel()[on] + j
        s = lo if j == 0 else inner[b]
        end, at = (hi, points) if j == 0 else (hi.ravel()[on], points.ravel()[on])
        t = np.minimum(end, outer[b]) if deg else end
        size = (t - s).ravel()
        piece = np.take(pref, (t + base[b]).ravel(), axis=0).T  # a moment per row
        tops = piece[ones]
        if j == 0:  # later pieces start at their block's start
            piece -= np.take(pref, (s + base[b]).ravel(), axis=0).T
        piece = np.ascontiguousarray(piece) if deg else piece
        hj = h if j == 0 else _of_windows(h, on, lo.shape[1])
        e = [1.0, ((sv[starts[b]] - at) / hj).ravel() if deg else 0.0]
        e += [e[1] * e[-1] for _ in range(deg - 1)]  # its powers
        for r in range(deg + 1):
            # the coefficient of a**r in K(a + e), and a bound on its terms
            terms = [c * comb(q, r) * e[q - r] for q, c in enumerate(poly[r:], r) if c]
            coef = sum(terms[1:], terms[0])
            bound = sum(map(abs, terms[1:]), abs(terms[0]))
            m, top = (piece[ones[r - 1]], tops[r - 1]) if r else (size, size)
            w = piece[ones[r - 1] + 1:ones[r - 1] + 1 + k] if r else piece[:k]
            w *= coef
            part = (coef * m, deg and bound * top, w) if r == 0 else (
                part[0] + coef * m, part[1] + bound * top, part[2] + w)
        if j == 0:
            mass, scale, sums = part
        else:  # row by row, which is faster than at once
            for row, add in zip([mass, scale, *sums], [part[0], part[1], *part[2]]):
                row[on] += add
    del piece, w, part  # free the sorted pieces before the sample order copies
    if leave_out:
        mass -= poly[0]

    # windows lost to cancellation; constant kernels count exactly
    redo = np.flatnonzero(~(mass > _CANCELLED * scale) if deg else [])
    if own and not unsorted:  # one path's sums back to sample order
        mass = np.take(mass, view.rank)
        sums = np.take(sums.T, view.rank, axis=0).T
    if leave_out:
        sums -= poly[0] * flat.T
    if redo.size:  # summed over their in-window pairs instead
        width = hi.flat[redo] - lo.flat[redo]
        owner = np.repeat(np.arange(redo.size), width)
        at = lo.flat[redo] + redo // lo.shape[1] * n - np.cumsum(width) + width
        at = np.arange(width.sum()) + np.repeat(at, width)
        hr = h if np.ndim(h) == 0 else _of_windows(h, redo, lo.shape[1])[owner]
        kern = kernel_eval(spec, (view.values.flat[at] - points.flat[redo][owner]) / hr)
        at = view.order[at]  # as positions in sample order
        put = view.order[redo] if own and not unsorted else redo
        kern[leave_out & (at == put[owner])] = 0.0  # the point's own term
        mass[put] = np.bincount(owner, kern, redo.size)
        for c in range(k):
            sums[c, put] = np.bincount(owner, kern * flat[at, c], redo.size)
    return mass.reshape(lo.shape), np.ascontiguousarray(sums.T).reshape(*lo.shape, k)


def _window_sums(
    sample: np.ndarray | SortedView,
    points: np.ndarray | None,
    spec: KernelSpec,
    targets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``_block_sums`` of one path: ``(mass, sums)`` of shapes (p,) and
    (p, k) for ``points`` of shape (p,) and ``targets`` of shape (n, k).

    ``sample`` is the covariate or its ``SortedView``; a plain array is
    sorted here.  ``points=None`` evaluates at the sample points
    themselves, in sample order.
    """
    points = None if points is None else np.asarray(points, dtype=float)[None]
    view = _as_view(sample)
    table = _prefix_table(view, spec, targets[None])
    mass, sums = _block_sums(view, points, spec, table)
    return mass[0], sums[0]


@np.errstate(over="ignore")  # a value past the float range is flagged
def _regression(mass: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel regression values ``sums / mass``, targets on the last axis
    of ``sums``, and where they are defined: NaN and False at no mass and
    where a value is not finite (a sum past the float range)."""
    out = np.full(sums.shape, np.nan)
    np.divide(sums, mass[..., None], out=out, where=(mass > 0.0)[..., None])
    valid = np.isfinite(out).all(axis=-1)
    out[~valid] = np.nan
    return out, valid


def _density_masks(mass, visits, h, trunc: TruncationSpec) -> np.ndarray:
    """``truncation_mask`` of each path from its own points' kernel mass
    at h and its visit count; the mask of a path without visits means nothing."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dens = mass / (visits[:, None] * h)
    return dens > trunc.b_n


def truncation_mask(
    v_series: np.ndarray | SortedView,
    spec: KernelSpec,
    trunc: TruncationSpec,
) -> np.ndarray:
    """Boolean mask keeping observations where the occupation density
    estimate at their own covariate value exceeds the floor.

    ``v_series`` is the covariate or its ``SortedView``.  The density
    normaliser is the small set visit count of the path; a path with no
    visits has no usable normaliser and raises.
    """
    view = _as_view(v_series)
    visits = _count_visits(view.values, trunc.small_set)
    if visits[0] == 0:
        raise NoVisitsError(NO_VISITS)
    # the mass reads no target column, so one column of zeros serves
    mass, _ = _window_sums(view, None, spec, np.zeros((view.order.size, 1)))
    return _density_masks(mass, visits, spec.bandwidth, trunc)[0]


def smooth(
    v_series: np.ndarray | SortedView,
    targets: np.ndarray,
    spec: KernelSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel regression of each target column on the covariate,
    evaluated at the sample points themselves.

    ``v_series`` is the covariate or its ``SortedView``.  Returns
    ``(smoothed, valid)``.  ``smoothed`` has the shape of ``targets``;
    rows without kernel mass, or with a value past the float range, are
    NaN and flagged False in ``valid``.  Both families are positive at
    0, so every point lies in its own window and has mass.
    """
    view = _as_view(v_series)
    targets = finite_array(targets, "targets", (1, 2), rows=view.order.size)
    columns = targets.reshape(len(targets), -1)
    out, valid = _regression(*_window_sums(view, None, spec, columns))
    return out.reshape(targets.shape), valid
