"""Covariate path simulation and recurrence diagnostics.

The covariate is modelled as a Harris recurrent Markov chain that is
null recurrent: it keeps returning to any fixed window, but the times
between returns have infinite mean, so only a fraction of the sample
(roughly n to the power of the recurrence index) falls inside a given
window.  The diagnostics here are built from visits to one designated
window, the small set: the visit count plays the role of the regeneration
count, its log ratio against log n estimates the recurrence index, and
splitting an additive functional at the visit times gives the block
decomposition that underlies the asymptotic theory for averages along
the path.

The path simulators draw one path per stream, or a block of paths, one
per stream of a sequence, as the rows of an array: the walk is a
cumulative sum along each row and the AR(1) error, for rho a power of
two, a scaled one, else a loop with one vector per time step.  A
row is bit for bit the path its stream gives alone, so blocks change
no result, and a block costs memory in proportion to its own size.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoVisitsError, ParameterError, finite_array, scalar, store_scalars
from .rng import normal_block

NO_VISITS = "the path never enters the small set"


@dataclass(frozen=True)
class SmallSet:
    """A compact interval [lower, upper] used as the regeneration window."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        store_scalars(self, float, lower=None, upper=None)
        if not self.lower < self.upper:
            raise ParameterError(
                f"small set needs lower < upper, got [{self.lower}, {self.upper}]"
            )

    def contains(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return (v >= self.lower) & (v <= self.upper)


def _streams(stream) -> list:
    """``stream`` as a list of stream numbers, kept as given (numpy would
    turn numbers of 2**63 and above into floats)."""
    return [stream] if np.isscalar(stream) else list(stream)


def simulate_random_walk(
    n: int, increment_sd: float, v0: float, seed: int, stream=0
) -> np.ndarray:
    """Gaussian random walk of length n started at ``v0``.

    The walk is the canonical example of a null recurrent chain with
    recurrence index 1/2.  ``increment_sd`` may be zero, which gives the
    constant path at ``v0``.  ``stream`` is one stream number, giving
    one path of shape (n,), or a sequence of them, giving one path per
    stream as the rows of an array; each row is the path its stream
    gives alone.
    """
    n, v0 = scalar(n, "n", int, 1), scalar(v0, "v0")
    sd = scalar(increment_sd, "increment_sd", low=0)
    paths = v0 + np.cumsum(sd * normal_block(seed, _streams(stream), n), axis=1)
    return paths[0] if np.isscalar(stream) else paths


def simulate_ar1(
    n: int, rho: float, innovation_sd: float, seed: int, stream=0
) -> np.ndarray:
    """Stationary AR(1) path e_t = rho e_{t-1} + innovation.

    For |rho| < 1 the first value is drawn from the stationary law, so
    every marginal has variance innovation_sd**2 / (1 - rho**2).  For
    |rho| >= 1 no stationary law exists and the recursion starts at 0.
    ``stream`` is one stream number or a sequence of them, as in
    :func:`simulate_random_walk`.  Paths are lfilter's to the bit: a
    scaled running sum for rho = 2**-k, else a loop (:func:`_ar1_recursion`).
    """
    n = scalar(n, "n", int, 1)
    innovation_sd = scalar(innovation_sd, "innovation_sd", low=0)
    scalar(rho, "rho")  # not converted: an int 0 keeps its sign (_ar1_recursion)
    z = normal_block(seed, _streams(stream), n + 1)
    if abs(rho) < 1:
        e0 = innovation_sd / np.sqrt(1.0 - rho * rho) * z[:, 0]
    else:
        e0 = np.zeros(z.shape[0])
    z[:, 1:] *= innovation_sd  # the innovations, in the draws' own buffer
    paths = _ar1_recursion(z[:, 1:], rho, rho * e0)
    return paths[0] if np.isscalar(stream) else paths


def _ar1_recursion(innov: np.ndarray, rho: float, start: np.ndarray) -> np.ndarray:
    """e_t = innov_t + rho e_{t-1} along each row, e_{-1} rho = ``start``.

    The result is that of a direct form II transposed filter, whose
    carried term is innov_{t-1} * 0 - e_{t-1} * (-rho), signs of zero
    included, so a noiseless path (all innovations zero) is reproduced
    to the bit as well.  Adding a zero commutes with the other sum, so
    each step adds rho e_{t-1} to w_t = innov_t + innov_{t-1} * 0,
    which is formed for the whole block at once.

    For rho = 2**-k, 0 <= k <= 960, each segment of 960 // max(k, 1) steps
    after t0 (the last step of the one before) is a scaled running sum: with
    s = t - t0, g_t = 2**(k s) e_t is a cumsum of 2**(k s) w_t between a
    scale and an unscale pass, and |g| < 2**960 max|e|.  Scaling by 2**j is
    exact and commutes with rounding short of overflow (sums among the
    subnormals are exact), so g_t is the loop's step scaled if rho e_{t-1}
    is exact: if e_{t-1} = 0 (sign kept) or |e_{t-1}| >= 2**(k - 1022).  The
    guard keeps the sums only if each is finite and 0 or at least that
    bound; by induction on t they are then the loop's, as overflow leaves
    inf or nan to the segment's end and a kept g_t, exactly 2**(k s) e_t,
    unscales to e_t: a zero to the loop's signed zero, a nonzero e_t below
    the bound to itself, which the guard sees.

    Any other rho (non-dyadic, negative, +-0), and a rejected block, runs
    a loop over time in place: a contiguous vector per time step, or for
    one row Python floats into a flat ``array("d")``.
    """
    # the filter's coefficient is the float -rho; negating it back keeps
    # its sign of zero (-float(-0) is -0.0, not the 0 of rho = 0)
    rho = -float(-rho)
    mantissa, exponent = np.frexp(rho)
    dyadic = mantissa == 0.5 and 0 <= 1 - exponent <= 960
    rows, n = innov.shape
    w = np.empty((n, rows)).T  # the columns (time steps) are contiguous
    for scaled in (True, False) if dyadic else (False,):  # rejected: form again
        w[:, 0] = innov[:, 0] + start
        np.add(innov[:, 1:], innov[:, :-1] * 0.0, out=w[:, 1:])
        if scaled and _scaled_running_sum(w, 1 - exponent):
            return w
    # an explosive path may overflow; the dataset check reports it
    if rows == 1:
        steps = iter(memoryview(w[0]))
        e = next(steps)
        path = array("d", [e])
        for step in steps:
            e = step + rho * e
            path.append(e)
        return np.frombuffer(path).reshape(1, n)
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, col in zip(w.T, w.T[1:]):
            col += rho * prev
    return w


def _scaled_running_sum(w: np.ndarray, k: int) -> bool:
    """rho = 2**-k over ``w``, in place; False when the guard rejects."""
    span = 960 // max(k, 1)  # scales up to 2**960, a factor 2**63 below overflow
    up = np.ldexp(1.0, k * np.arange(min(span + 1, w.shape[1])))
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, w.shape[1] - 1, span):
            seg = w[:, t0:t0 + span + 1]
            seg *= up[: seg.shape[1]]
            np.cumsum(seg, axis=1, out=seg)
            seg /= up[: seg.shape[1]]
    small = np.count_nonzero(abs(w) < np.ldexp(1.0, k - 1022))
    return bool(np.isfinite(w).all()) and small == np.count_nonzero(w == 0)


def _count_visits(v: np.ndarray, small_set: SmallSet) -> np.ndarray:
    """``count_small_set_visits`` of a block whose values are known to be
    finite (a ``SortedView``'s), without checking them again."""
    return np.count_nonzero(small_set.contains(v), axis=-1)


def count_small_set_visits(v: np.ndarray, small_set: SmallSet) -> int | np.ndarray:
    """Number of sample points inside the small set along the last axis:
    an ``int`` for one path, an int array, one per row, for a block."""
    visits = _count_visits(finite_array(v, "v", (1, 2), min_size=0), small_set)
    return visits if np.ndim(visits) else int(visits)


def estimate_beta(v: np.ndarray, small_set: SmallSet) -> float:
    """Recurrence index estimate log(visit count) / log(n).

    Requires one path of n >= 2 points (log 1 = 0 leaves the ratio
    undefined) and a visit.  As n grows the estimate concentrates near
    1/2 for a Gaussian random walk and approaches 1 for a positive recurrent chain.
    """
    v = finite_array(v, "v", min_size=2, kind="path")
    return beta_from_visits(_count_visits(v, small_set), v.size)


def beta_from_visits(visits: int, n: int) -> float:
    """``estimate_beta`` of a path of n >= 2 points with ``visits``."""
    if visits == 0:
        raise NoVisitsError(NO_VISITS)
    return float(np.log(visits) / np.log(n))


@dataclass(frozen=True)
class BlockDecomposition:
    """Additive functional split at the visit times of the small set.

    ``head`` collects the terms up to and including the first visit,
    ``blocks[k]`` the terms strictly after visit k up to and including
    visit k+1, and ``tail`` the terms after the last visit.  By
    construction head + sum(blocks) + tail equals the full sum, and the
    block sums are the (approximately independent) pieces whose count,
    not n, sets the convergence rate of averages along the path.
    """

    head: float
    blocks: np.ndarray
    tail: float
    boundaries: np.ndarray  # 0-based indices of the visits, increasing


def _apply(f: Callable[[float], float], v: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(f(v), dtype=float)
    except (TypeError, ValueError):  # scalar-only callable
        out = None
    if out is None or out.shape != v.shape:
        out = np.fromiter((float(f(x)) for x in v), dtype=float, count=v.size)
    return out


def regeneration_blocks(
    v: np.ndarray,
    f: Callable[[float], float],
    small_set: SmallSet,
) -> BlockDecomposition:
    """Split sum(f(v_t)) into head, complete blocks and tail."""
    v = finite_array(v, "v", kind="path")
    visits = np.flatnonzero(small_set.contains(v))
    if visits.size == 0:
        raise NoVisitsError(NO_VISITS)
    fv = _apply(f, v)
    cuts = np.concatenate(([0], visits + 1, [v.size]))
    sums = np.add.reduceat(
        np.concatenate((fv, [0.0])), cuts[:-1]
    )  # trailing 0 guards reduceat when the last cut hits v.size
    empty = cuts[:-1] == cuts[1:]
    sums = np.where(empty, 0.0, sums[: cuts.size - 1])
    return BlockDecomposition(
        head=float(sums[0]),
        blocks=np.asarray(sums[1:-1], dtype=float),
        tail=float(sums[-1]),
        boundaries=visits,
    )
