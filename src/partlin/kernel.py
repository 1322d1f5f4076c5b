"""Kernel weights, local mass, density truncation and smoothing.

Everything here reduces to window sums: for evaluation points p_i and
sample points v_t, accumulate K((v_t - p_i)/h) and the same sums against
target columns.  One engine, ``_window_sums``, computes them for every
kernel family.  It reads the sample through a ``SortedView``, built once
per dataset (``TimeSeriesDataset.sorted_v``), and finds each point's
window, the sample points with |(v_t - p_i)/h| <= 1 in floating point,
as one contiguous run of the sorted sample.  When the points are the
sample itself, the windows depend on h alone: the view searches them
once per bandwidth, with the sorted values as needles, and keeps those
of the latest bandwidth, so the truncation mask, the detrending smoother
and the leave-one-out score at one h share one search.  Both families
vanish outside the window, so only in-window pairs are visited:

* the uniform kernel is constant on its window, so its sums are read
  off prefix sums, O((n + p) log n);
* any other family is evaluated on the in-window (point, sample) pairs
  alone, in chunks of bounded size, which costs the total window size
  rather than n p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Callable

import numpy as np

from .errors import NoVisitsError, ParameterError
from .markov import SmallSet, count_small_set_visits

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
    """First index of the sorted sample whose standardised distance
    (v - p_i)/h satisfies ``past``, for every point p_i.

    ``padded`` is the dataset's sorted sample with -inf in front and
    +inf behind (``SortedView.padded``, built once per dataset).  Window
    membership is decided on (v - p)/h, exactly as ``kernel_eval``
    decides it; ``past`` is monotone in v, so each window is one
    contiguous run of the sorted sample.  ``guess`` comes from searching
    for p -+ h, which disagrees with that predicate only for sample
    values within rounding distance of the edge.  Checking the two
    neighbours of each guess costs O(p); only guesses that fail are
    bisected.
    """
    n = padded.size - 2
    late = past((padded[guess] - points) / h)
    # a NaN point fails every comparison; its guess n must stay put
    early = ~past((padded[guess + 1] - points) / h) & (guess < n)
    bad = np.flatnonzero(late | early)
    if bad.size == 0:
        return guess
    lo = np.where(early[bad], guess[bad] + 1, 0)
    hi = np.where(early[bad], n, guess[bad] - 1)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        hit = past((padded[mid + 1] - points[bad]) / h)
        active = lo < hi
        hi = np.where(active & hit, mid, hi)
        lo = np.where(active & ~hit, mid + 1, lo)
    settled = guess.copy()
    settled[bad] = lo
    return settled


class SortedView:
    """The covariate sorted once, with the in-sample windows of the
    latest bandwidth.

    ``v`` is the covariate in sample order, ``order`` its stable sorting
    permutation, ``padded`` the sorted values with -inf in front and
    +inf behind (what ``_settle_edge`` reads) and ``values`` their
    finite middle.  ``own_windows`` keeps the windows of one bandwidth
    only, so the view stays O(n) however many bandwidths are tried.
    """

    def __init__(self, v: np.ndarray):
        self.v = np.asarray(v, dtype=float)
        self.order = np.argsort(self.v, kind="stable")
        self.padded = np.concatenate(([-np.inf], self.v[self.order], [np.inf]))
        self.values = self.padded[1:-1]
        for arr in (self.order, self.padded):
            arr.flags.writeable = False
        self._own: tuple[float, np.ndarray, np.ndarray] | None = None

    def windows(self, points: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Bounds ``[lo, hi)`` in the sorted sample of every point's window."""
        lo = _settle_edge(
            self.padded, points, h,
            np.searchsorted(self.values, points - h, side="left"),
            lambda u: u >= -1.0,
        )
        hi = _settle_edge(
            self.padded, points, h,
            np.searchsorted(self.values, points + h, side="right"),
            lambda u: u > 1.0,
        )
        return lo, hi

    def own_windows(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Windows of the sorted sample points themselves, in sorted order.

        They depend on h alone, so they are searched once per bandwidth
        (sorted needles search fast) and kept until another h is asked.
        """
        if self._own is None or self._own[0] != h:
            self._own = (h, *self.windows(self.values, h))
        return self._own[1], self._own[2]


def _as_view(v_series: np.ndarray | SortedView) -> SortedView:
    return v_series if isinstance(v_series, SortedView) else SortedView(v_series)


def _unsort(order: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows given in sorted order, put back in sample order."""
    out = np.empty_like(rows)
    out[order] = rows
    return out


def _window_sums(
    sample: np.ndarray | SortedView,
    points: np.ndarray | None,
    spec: KernelSpec,
    targets: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Kernel mass and kernel weighted target sums at each point.

    Returns ``(mass, sums)`` where ``mass[i] = sum_t K((v_t - p_i)/h)``
    and ``sums[i, j] = sum_t K((v_t - p_i)/h) * targets[t, j]`` (None
    when no targets are passed).  Kernel values are unscaled by 1/h.

    ``sample`` is the covariate or its ``SortedView``; a plain array is
    sorted here.  ``points=None`` evaluates at the sample points
    themselves: the work runs in sorted order on the view's windows of
    this bandwidth and the rows are scattered back to sample order once.
    """
    view = _as_view(sample)
    h = spec.bandwidth
    own = points is None
    if own:
        points = view.values
        lo, hi = view.own_windows(h)
    else:
        points = np.asarray(points, dtype=float)
        lo, hi = view.windows(points, h)
    sv = view.values
    tg = None if targets is None else targets[view.order]

    if spec.family == "uniform":
        mass = 0.5 * (hi - lo)
        sums = None
        if tg is not None:
            pref = np.vstack([np.zeros(tg.shape[1]), np.cumsum(tg, axis=0)])
            sums = 0.5 * (pref[hi] - pref[lo])
    else:
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

    if own:
        mass = _unsort(view.order, mass)
        sums = None if sums is None else _unsort(view.order, sums)
    return mass, sums


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
    visits = count_small_set_visits(view.v, trunc.small_set)
    if visits == 0:
        raise NoVisitsError("the path never enters the small set")
    mass, _ = _window_sums(view, None, spec, None)
    dens = mass / (visits * spec.bandwidth)
    return dens > trunc.b_n


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
