"""Kernel weights, local mass, density truncation and smoothing.

Everything here reduces to window sums: for evaluation points p_i and
sample points v_t, accumulate K((v_t - p_i)/h) and the same sums against
target columns.  One engine, ``_block_sums``, computes them for every
kernel family and for a block of samples at once, the rows of an array
(a Monte Carlo block of replications); one dataset is the block of one
row, which ``_window_sums`` serves.  The engine reads the samples
through a ``SortedView``, built once per dataset
(``TimeSeriesDataset.sorted_v``) or block, and finds each point's
window, the sample points with |(v_t - p_i)/h| <= 1 in floating point,
as one contiguous run of its row's sorted sample; the points of every
row are searched in one call.  When the points are the sample itself,
the windows depend on h alone: the view finds them once per bandwidth
and keeps those of the latest bandwidth, so the truncation mask, the
detrending smoother and the leave-one-out score at one h share one
search.  Both families vanish outside the window, so only in-window
pairs are visited:

* the uniform kernel is constant on its window, so its sums are read
  off prefix sums, O((n + p) log n);
* any other family is evaluated on the in-window (point, sample) pairs
  alone, in chunks of bounded size, which costs the total window size
  rather than n p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log
from typing import Callable

import numpy as np

from .errors import NoVisitsError, ParameterError
from .markov import SmallSet

FAMILIES = ("uniform", "epanechnikov")

# kernel value at 0, used by leave-one-out corrections
KERNEL_AT_ZERO = {"uniform": 0.5, "epanechnikov": 0.75}
# integral of the squared kernel, the scale in the pointwise limit law
KERNEL_L2 = {"uniform": 0.5, "epanechnikov": 0.6}

_CHUNK_BUDGET = 2**22  # cap on in-window pairs evaluated per chunk


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
        h = self.bandwidth
        if not np.isfinite(h) or h <= 0:
            raise ParameterError(f"bandwidth must be finite and > 0, got {h}")


@dataclass(frozen=True)
class TruncationSpec:
    """Density floor b_n and the small set used to count regenerations."""

    b_n: float
    small_set: SmallSet

    def __post_init__(self) -> None:
        if not np.isfinite(self.b_n) or self.b_n < 0:
            raise ParameterError(f"b_n must be finite and >= 0, got {self.b_n}")


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
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return float(n) ** -0.25


DENSITY_FLOOR_SCALE = 0.05


def default_density_floor(n: int) -> float:
    """Slowly vanishing truncation level DENSITY_FLOOR_SCALE / log n
    (needs n >= 2)."""
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    return DENSITY_FLOOR_SCALE / log(n)


DEFAULT_SMALL_SET = SmallSet(-1.0, 1.0)


def default_truncation(n: int) -> TruncationSpec:
    return TruncationSpec(default_density_floor(n), DEFAULT_SMALL_SET)


def _settle_edge(
    padded: np.ndarray,
    points: np.ndarray,
    h: float,
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
    window is one contiguous run of the sorted sample.  ``guess`` comes
    from searching for p -+ h, which disagrees with that predicate only
    for sample values within rounding distance of the edge.  Checking
    the two neighbours of each guess costs O(p); only guesses that fail
    are bisected, within their own row.
    """
    width = padded.shape[1]
    n = width - 2
    flat = padded.ravel()
    at = guess + (np.arange(padded.shape[0]) * width)[:, None]
    late = past((flat[at] - points) / h)
    # a NaN point fails every comparison; its guess n must stay put
    early = ~past((flat[at + 1] - points) / h) & (guess < n)
    bad = np.flatnonzero(late | early)
    if bad.size == 0:
        return guess
    pts = points.ravel()[bad]
    start = (bad // guess.shape[1]) * width
    was = guess.ravel()[bad]
    up = early.ravel()[bad]
    lo = np.where(up, was + 1, 0)
    hi = np.where(up, n, was - 1)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        hit = past((flat[start + mid + 1] - pts) / h)
        active = lo < hi
        hi = np.where(active & hit, mid, hi)
        lo = np.where(active & ~hit, mid + 1, lo)
    settled = guess.copy()
    settled.ravel()[bad] = lo
    return settled


class SortedView:
    """The covariate sorted once, with the in-sample windows of the
    latest bandwidth.

    ``v`` is one covariate path of shape (n,), or a block of paths as
    the rows of an (rows, n) array; a single path is the block of one
    row, and every row is handled as if it were alone.  ``padded`` has
    one row per path: its values sorted, with -inf in front and +inf
    behind (what ``_settle_edge`` reads), and ``values`` is their
    finite middle.  ``order`` is the stable sorting permutation of each
    row as positions in the flattened block, so for one path it is the
    path's own sorting permutation.  ``own_windows`` keeps the windows
    of one bandwidth only, so the view stays O(rows n) however many
    bandwidths are tried.
    """

    def __init__(self, v: np.ndarray):
        self.v = np.asarray(v, dtype=float)
        rows = self.v if self.v.ndim == 2 else self.v[None]
        count, n = rows.shape
        order = np.argsort(rows, axis=1)
        ranked = np.take_along_axis(rows, order, axis=1)
        # the default sort is not stable, but a row whose sorted values
        # strictly increase has one sorting permutation; others are
        # sorted again, stably
        tied = ~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
        if tied.any():
            order[tied] = np.argsort(rows[tied], axis=1, kind="stable")
            ranked[tied] = np.take_along_axis(rows[tied], order[tied], axis=1)
        self.order = (order + (np.arange(count) * n)[:, None]).ravel()
        self.padded = np.empty((count, n + 2))
        self.padded[:, 0] = -np.inf
        self.padded[:, -1] = np.inf
        self.padded[:, 1:-1] = ranked
        self.values = self.padded[:, 1:-1]
        for arr in (self.order, self.padded):
            arr.flags.writeable = False
        self._keys: tuple[np.ndarray, np.ndarray] | None = None
        self._own: tuple[float, np.ndarray, np.ndarray] | None = None

    @cached_property
    def rank(self) -> np.ndarray:
        """The inverse of ``order``: where each cell of the flattened
        block sits once sorted."""
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(self.order.size)
        rank.flags.writeable = False
        return rank

    def _search(self, needles: np.ndarray, side: str) -> np.ndarray:
        """Each needle's insertion index in its own row of ``values``, up
        to rounding: the guesses ``_settle_edge`` starts from.

        Every row is searched in one call.  Row r is shifted by r times
        twice the block's span, which sorts the block as one array;
        the shift rounds values, but ``_settle_edge`` corrects any
        guess, so it costs only speed, and a single path is not
        shifted at all.
        """
        count, n = self.values.shape
        if self._keys is None:
            with np.errstate(over="ignore", invalid="ignore"):
                step = 2.0 * (self.values[:, -1].max() - self.values[:, 0].min())
            if not np.isfinite(step):
                step = 0.0
            shift = (np.arange(count) * step)[:, None]
            keys = self.values if count == 1 else self.values + shift
            self._keys = (keys.ravel(), shift)
        keys, shift = self._keys
        found = np.searchsorted(keys, (needles + shift).ravel(), side=side)
        found = found.reshape(needles.shape) - (np.arange(count) * n)[:, None]
        return np.clip(found, 0, n, out=found)

    def _lower_ends(self, points: np.ndarray, h: float) -> np.ndarray:
        return _settle_edge(
            self.padded, points, h, self._search(points - h, "left"),
            lambda u: u >= -1.0,
        )

    def windows(self, points: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Bounds ``[lo, hi)`` in each row's sorted sample of the windows
        of that row's points (``points`` has one row per path)."""
        hi = _settle_edge(
            self.padded, points, h, self._search(points + h, "right"),
            lambda u: u > 1.0,
        )
        return self._lower_ends(points, h), hi

    def own_windows(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Windows of the sorted sample points themselves, in sorted order.

        They depend on h alone, so they are searched once per bandwidth
        (sorted needles search fast) and kept until another h is asked.
        Only the lower ends are searched.  Since (v_i - v_j)/h is
        -(v_j - v_i)/h exactly, v_j lies at or below the upper end of
        v_i's window exactly when v_i lies at or above the lower end of
        v_j's, so the upper end of window i counts the windows j whose
        lower end is at most i.
        """
        if self._own is None or self._own[0] != h:
            count, n = self.values.shape
            lo = self._lower_ends(self.values, h)
            ends = np.bincount(
                (lo + (np.arange(count) * (n + 1))[:, None]).ravel(),
                minlength=count * (n + 1),
            )
            hi = np.cumsum(ends.reshape(count, n + 1), axis=1)[:, :n]
            self._own = (h, lo, hi)
        return self._own[1], self._own[2]


def _as_view(v_series: np.ndarray | SortedView) -> SortedView:
    return v_series if isinstance(v_series, SortedView) else SortedView(v_series)


def _block_sums(
    view: SortedView,
    points: np.ndarray | None,
    spec: KernelSpec,
    targets: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Kernel mass and kernel weighted target sums at each point of
    every path in ``view``.

    With R paths of length n, ``points`` is an (R, p) array, row r
    holding the evaluation points of path r, or None for each path's
    own sample points (p = n, in sample order); ``targets`` is None or
    an (R, n, k) array in sample order.  Returns ``(mass, sums)``, of
    shapes (R, p) and (R, p, k), where ``mass[r, i] = sum_t
    K((v_rt - p_ri)/h)`` and ``sums[r, i, j] = sum_t K((v_rt - p_ri)/h)
    * targets[r, t, j]`` (None when no targets are passed).  Kernel
    values are unscaled by 1/h.  Own points are worked in sorted order
    on the view's windows of this bandwidth, and the results are put
    back in sample order once.
    """
    count, n = view.values.shape
    h = spec.bandwidth
    own = points is None
    if own:
        points = view.values
        lo, hi = view.own_windows(h)
    else:
        lo, hi = view.windows(points, h)
    tg = None
    if targets is not None:
        k = targets.shape[-1]
        tg = np.take(targets.reshape(count * n, k), view.order, axis=0)

    if spec.family == "uniform":
        mass = 0.5 * (hi - lo)
        sums = None
        if tg is not None:
            pref = np.zeros((count, n + 1, k))
            np.cumsum(tg.reshape(count, n, k), axis=1, out=pref[:, 1:])
            pref = pref.reshape(count * (n + 1), k)
            base = (np.arange(count) * (n + 1))[:, None]
            sums = 0.5 * (
                np.take(pref, hi + base, axis=0) - np.take(pref, lo + base, axis=0)
            )
    else:
        # windows as positions in the flattened block
        base = (np.arange(count) * n)[:, None]
        mass, sums = _pair_sums(
            view.values.ravel(), points.ravel(), (lo + base).ravel(),
            (hi + base).ravel(), spec, tg,
        )
        mass = mass.reshape(points.shape)
        if sums is not None:
            sums = sums.reshape(*points.shape, k)

    if own:
        # back to sample order
        mass = np.take(mass.ravel(), view.rank).reshape(count, n)
        if sums is not None:
            sums = np.take(sums.reshape(count * n, k), view.rank, axis=0)
            sums = sums.reshape(count, n, k)
    return mass, sums


def _pair_sums(
    sv: np.ndarray,
    points: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    spec: KernelSpec,
    tg: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Mass and target sums of a family that is not constant on its
    window, from the in-window (point, sample) pairs alone.

    ``sv`` is the sorted sample, ``[lo, hi)`` each point's window in it
    and ``tg`` the targets in the order of ``sv``.  Pairs are evaluated
    in chunks of at most ``_CHUNK_BUDGET``, each holding whole windows.
    """
    h = spec.bandwidth
    mass = np.empty(points.size)
    sums = None if tg is None else np.empty((points.size, tg.shape[1]))
    sizes = hi - lo
    ends = np.cumsum(sizes)
    # pairs are laid out point after point; pair q of the run belongs
    # to the point i with ends[i - 1] <= q < ends[i] and is q + shift[i]
    shift = lo - (ends - sizes)
    start = 0
    while start < points.size:
        # as many points as the budget holds, and at least one
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + _CHUNK_BUDGET, side="right"))
        stop = max(stop, start + 1)
        owner = np.repeat(np.arange(stop - start), sizes[start:stop])
        idx = np.arange(base, ends[stop - 1]) + shift[start:stop][owner]
        k = kernel_eval(spec, (sv[idx] - points[start:stop][owner]) / h)
        mass[start:stop] = np.bincount(owner, weights=k, minlength=stop - start)
        if tg is not None:
            for j in range(tg.shape[1]):
                sums[start:stop, j] = np.bincount(
                    owner, weights=k * tg[idx, j], minlength=stop - start
                )
        start = stop
    return mass, sums


def _window_sums(
    sample: np.ndarray | SortedView,
    points: np.ndarray | None,
    spec: KernelSpec,
    targets: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``_block_sums`` of one path: ``(mass, sums)`` of shapes (p,) and
    (p, k) for ``points`` of shape (p,) and ``targets`` of shape (n, k).

    ``sample`` is the covariate or its ``SortedView``; a plain array is
    sorted here.  ``points=None`` evaluates at the sample points
    themselves, in sample order.
    """
    view = _as_view(sample)
    if points is not None:
        points = np.asarray(points, dtype=float)[None]
    if targets is not None:
        targets = targets[None]
    mass, sums = _block_sums(view, points, spec, targets)
    return mass[0], None if sums is None else sums[0]


def weights(
    v_series: np.ndarray, v: float, spec: KernelSpec
) -> np.ndarray | None:
    """Normalised kernel weights of every sample point at location v.

    Returns None when no sample point falls in the window (the weights
    are undefined there, and None is deliberately distinct from any
    weight vector).  Otherwise the weights are nonnegative and sum to 1.
    """
    v_series = np.asarray(v_series, dtype=float)
    k = kernel_eval(spec, (v_series - v) / spec.bandwidth)
    total = k.sum()
    if total <= 0.0:
        return None
    return k / total


def _truncation_masks(
    view: SortedView, spec: KernelSpec, trunc: TruncationSpec
) -> tuple[np.ndarray, np.ndarray]:
    """``truncation_mask`` of every path in ``view``, as (rows, n)
    masks, with the small set visit count of each path; the mask of a
    path without visits means nothing."""
    rows = view.v.reshape(view.values.shape)
    visits = np.count_nonzero(trunc.small_set.contains(rows), axis=1)
    mass, _ = _block_sums(view, None, spec, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = mass / (visits * spec.bandwidth)[:, None]
    return dens > trunc.b_n, visits


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
    masks, visits = _truncation_masks(_as_view(v_series), spec, trunc)
    if visits[0] == 0:
        raise NoVisitsError("the path never enters the small set")
    return masks[0]


def smooth(
    v_series: np.ndarray | SortedView,
    targets: np.ndarray,
    spec: KernelSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel regression of each target column on the covariate,
    evaluated at the sample points themselves.

    ``v_series`` is the covariate or its ``SortedView``.  Returns
    ``(smoothed, valid)``.  ``smoothed`` has the shape of ``targets``;
    rows where the kernel mass vanishes are NaN and flagged False in
    ``valid``.  With a kernel that is positive at 0 every point lies in
    its own window, so ``valid`` is all True for those families.
    """
    view = _as_view(v_series)
    targets = np.asarray(targets, dtype=float)
    squeeze = targets.ndim == 1
    tg = targets[:, None] if squeeze else targets
    if tg.shape[0] != view.v.size:
        raise ParameterError(
            f"targets rows {tg.shape[0]} do not match n = {view.v.size}"
        )
    mass, sums = _window_sums(view, None, spec, tg)
    valid = mass > 0.0
    out = np.full(tg.shape, np.nan)
    out[valid] = sums[valid] / mass[valid, None]
    return (out[:, 0] if squeeze else out), valid
