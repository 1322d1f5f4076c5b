"""Kernel evaluation, window sums, truncation and smoothing."""

import inspect
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import oracles
import partlin
from partlin import kernel
from partlin.bandwidth import cv_select
from partlin.errors import NoVisitsError, ParameterError
from partlin.kernel import (
    DEFAULT_SMALL_SET,
    KERNEL_AT_ZERO,
    KERNEL_L2,
    KernelSpec,
    SortedView,
    TruncationSpec,
    _block_sums,
    _prefix_table,
    _window_sums,
    default_bandwidth,
    default_density_floor,
    default_truncation,
    kernel_eval,
    smooth,
    truncation_mask,
)
from partlin.markov import SmallSet, count_small_set_visits, simulate_random_walk
from partlin.rng import standard_normal
from partlin.sls import estimate_g, estimate_h


def test_spec_validation():
    with pytest.raises(ParameterError, match="family"):
        KernelSpec("gaussian", 0.5)
    for h in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="bandwidth"):
            KernelSpec("uniform", h)
    with pytest.raises(ParameterError, match="b_n"):
        TruncationSpec(-0.1, SmallSet(-1, 1))


def test_kernel_values_by_hand():
    uni = KernelSpec("uniform", 1.0)
    epa = KernelSpec("epanechnikov", 1.0)
    assert kernel_eval(uni, 0.0) == 0.5
    assert kernel_eval(uni, 1.0) == 0.5
    assert kernel_eval(uni, -1.0) == 0.5
    assert kernel_eval(uni, 1.0000001) == 0.0
    assert kernel_eval(epa, 0.0) == 0.75
    assert kernel_eval(epa, 0.5) == 0.75 * 0.75
    assert kernel_eval(epa, 1.0) == 0.0
    assert kernel_eval(epa, -2.0) == 0.0
    assert isinstance(kernel_eval(uni, 0.3), float)


def test_kernel_matches_oracle_on_grid():
    grid = np.linspace(-1.5, 1.5, 61)
    for family in ("uniform", "epanechnikov"):
        spec = KernelSpec(family, 1.0)
        got = kernel_eval(spec, grid)
        want = [oracles.oracle_kernel(family, float(u)) for u in grid]
        np.testing.assert_array_equal(got, want)


def test_kernel_constants_match_integrals():
    for family in ("uniform", "epanechnikov"):
        spec = KernelSpec(family, 1.0)
        mass, _ = quad(lambda u: kernel_eval(spec, u), -1, 1)
        assert mass == pytest.approx(1.0, abs=1e-10)
        l2, _ = quad(lambda u: kernel_eval(spec, u) ** 2, -1, 1)
        assert l2 == pytest.approx(KERNEL_L2[family], abs=1e-10)
        assert kernel_eval(spec, 0.0) == KERNEL_AT_ZERO[family]


def test_default_bandwidth():
    assert default_bandwidth(16) == 0.5
    with pytest.raises(ParameterError):
        default_bandwidth(0)


def test_default_density_floor():
    assert default_density_floor(100) == pytest.approx(0.05 / np.log(100))
    with pytest.raises(ParameterError):
        default_density_floor(1)
    trunc = default_truncation(100)
    assert trunc.small_set == DEFAULT_SMALL_SET
    assert trunc.b_n == default_density_floor(100)


def test_weights_normalised_and_match_oracle():
    """The engine's kernel weights, its window sums of the unit columns
    over the mass, are nonnegative, sum to one and are the oracle's."""
    rng = random.Random(7)
    v_series = np.array([rng.uniform(-2, 2) for _ in range(12)])
    points = np.array([-1.0, 0.0, 0.7])
    for family in ("uniform", "epanechnikov"):
        mass, sums = _window_sums(v_series, points, KernelSpec(family, 1.1), np.eye(12))
        for point, w in zip(points, sums / mass[:, None]):
            assert w.min() >= 0.0
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            want = oracles.oracle_weights(v_series.tolist(), point, family, 1.1)
            np.testing.assert_allclose(w, want, atol=1e-14)


def test_truncation_mask_matches_oracle():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(5, 25)
        v = np.array([rng.uniform(-2, 2) for _ in range(n)])
        v[rng.randrange(n)] = 0.0
        family = rng.choice(["uniform", "epanechnikov"])
        h = rng.uniform(0.3, 1.5)
        bn = rng.uniform(0.0, 0.5)
        spec = KernelSpec(family, h)
        trunc = TruncationSpec(bn, SmallSet(-1.0, 1.0))
        got = truncation_mask(v, spec, trunc)
        want = oracles.oracle_mask(v.tolist(), family, h, bn, -1.0, 1.0)
        assert got.tolist() == want


def test_truncation_mask_zero_floor_keeps_everything():
    v = simulate_random_walk(100, 0.3, 0.0, 1)
    mask = truncation_mask(v, KernelSpec("uniform", 0.2), TruncationSpec(0.0, SmallSet(-1, 1)))
    assert mask.all()


def test_truncation_mask_requires_visits():
    v = np.array([5.0, 6.0, 7.0])
    with pytest.raises(NoVisitsError):
        truncation_mask(v, KernelSpec("uniform", 0.5), default_truncation(3))


def test_truncation_normaliser_is_visit_count():
    """Doubling the floor right at the cut shows the normaliser used."""
    v = np.array([-0.5, 0.0, 0.5, 3.0])
    spec = KernelSpec("uniform", 0.6)
    visits = count_small_set_visits(v, SmallSet(-1, 1))
    assert visits == 3
    dens_at_far = oracles.oracle_pn(v.tolist(), 3.0, "uniform", 0.6, visits)
    mask_below = truncation_mask(
        v, spec, TruncationSpec(dens_at_far * 0.999, SmallSet(-1, 1))
    )
    mask_above = truncation_mask(
        v, spec, TruncationSpec(dens_at_far * 1.001, SmallSet(-1, 1))
    )
    assert mask_below[3]
    assert not mask_above[3]


def test_smooth_agrees_across_methods():
    """Smoothing at the sample points equals the oracle's weighted
    averages for both families."""
    v = simulate_random_walk(400, 0.1, 0.0, 17)
    targets = standard_normal(17, 1, 800).reshape(400, 2)
    for family in ("uniform", "epanechnikov"):
        got, valid = smooth(v, targets, KernelSpec(family, 0.25))
        w = [oracles.oracle_weights(v.tolist(), vt, family, 0.25) for vt in v]
        np.testing.assert_array_equal(valid, [wt is not None for wt in w])
        want = np.array([np.array(wt) @ targets for wt in w])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    h=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    # positions in data to repeat, so the sample holds tied values
    ties=st.lists(st.integers(min_value=0, max_value=39), max_size=10),
)
# (v - p)/h rounds to exactly 1 at p = -1 although v > p + h
@example(data=[6.514036392641717e-239], h=1.0, ties=[])
# tied values, some exactly h apart, so whole runs of ties sit on edges
@example(data=[0.5, -0.5, 1.5, 0.0], h=1.0, ties=[0, 0, 2, 1, 3])
def test_window_sum_paths_agree(data, h, ties):
    v = np.array(data + [data[i % len(data)] for i in ties])
    points = np.linspace(v.min() - 1, v.max() + 1, 17)
    targets = np.column_stack([np.sin(v), np.ones_like(v)])
    view = SortedView(v)
    for family in ("uniform", "epanechnikov"):
        spec = KernelSpec(family, h)
        # grid points from a plain array and from the view; the sample
        # points themselves through the view's windows of this h, which
        # the second family reads back from the first family's search
        routes = [
            (points, _window_sums(v, points, spec, targets)),
            (points, _window_sums(view, points, spec, targets)),
            (v, _window_sums(view, None, spec, targets)),
        ]
        for at, (mass, sums) in routes:
            want_mass, want_sums = oracles.oracle_window_sums(
                v.tolist(), at.tolist(), family, h, targets.tolist()
            )
            np.testing.assert_allclose(mass, want_mass, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(sums, want_sums, rtol=1e-9, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.lists(
            st.one_of(
                st.floats(min_value=-5, max_value=5, allow_nan=False),
                # values h apart put whole runs of ties on window edges
                st.sampled_from([0.5, -0.5, 1.5, 0.0, -0.0]),
            ),
            min_size=12,
            max_size=12,
        ),
        min_size=1,
        max_size=4,
    ),
    h=st.sampled_from([1.0, 0.25, 2.0 / 3.0]),
)
@example(rows=[[6.514036392641717e-239] * 12, [0.5, -0.5, 1.5, 0.0] * 3], h=1.0)
# a row far from the other, whose values sit on each other's window edges
@example(rows=[[1e12 + 0.25 * (i % 5) for i in range(12)], [-3.0] * 12], h=0.25)
def test_block_rows_are_single_paths(rows, h):
    """A block of paths gives each row what that path gives alone: the
    same windows, own windows derived from the lower ends included, and
    the same sums bit for bit for both families.  The mass is the same
    bits whatever the targets: one or two target columns, or one column
    of zeros, which is all ``truncation_mask`` passes."""
    v = np.array(rows)
    view = SortedView(v)
    points = np.linspace(-6, 6, 9) + v[:, :1]
    targets = np.stack([np.sin(v), np.ones_like(v)], axis=2)
    lo, hi = view.own_windows(h)
    searched = view.windows(view.values, h)
    assert lo.tolist() == searched[0].tolist()
    assert hi.tolist() == searched[1].tolist()
    for family in ("uniform", "epanechnikov"):
        spec = KernelSpec(family, h)
        table = _prefix_table(view, spec, targets)
        block = [_block_sums(view, at, spec, table) for at in (None, points)]
        for given in (targets[..., :1], np.zeros_like(targets[..., :1])):
            other = _prefix_table(view, spec, given)
            for at, (mass, _) in zip((None, points), block):
                assert _bits([_block_sums(view, at, spec, other)[0]]) == _bits([mass])
        for r, row in enumerate(v):
            alone = [_window_sums(row, at, spec, targets[r]) for at in (None, points[r])]
            for (mass, sums), (want_mass, want_sums) in zip(block, alone):
                assert mass[r].view(np.uint64).tolist() == want_mass.view(np.uint64).tolist()
                assert sums[r].view(np.uint64).tolist() == want_sums.view(np.uint64).tolist()


@pytest.mark.parametrize(
    "v, p, h",
    [
        # several values above p + h = 0 whose (v - p)/h rounds to 1
        ([0.5, 1e-20, 1e-100, 1e-200, 1e-300, 0.0, -0.5], -1.0, 1.0),
        # repeated values at or below p + h whose (v - p)/h rounds above 1
        ([3.7714409342615407] * 3 + [3.6, 3.9], 3.574042765875694,
         0.19739816838584662),
        # a value at p - h whose (v - p)/h rounds below -1
        ([-7.293207338395499, -6.0, -7.5], -4.834723644714709,
         2.45848369368079),
    ],
)
def test_window_edges_follow_standardised_distance(v, p, h):
    v = np.array(v)
    targets = np.column_stack([np.arange(v.size, dtype=float), np.ones_like(v)])
    (want,), (want_sums,) = oracles.oracle_window_sums(
        v.tolist(), [p], "uniform", h, targets.tolist()
    )
    mass, sums = _window_sums(v, np.array([p]), KernelSpec("uniform", h), targets)
    assert mass[0] == want
    np.testing.assert_array_equal(sums[0], want_sums)


def _edge_sample(rng: np.random.Generator, h: float):
    """Clusters of samples narrower than h, far apart, and the grid
    points p = v +- h of each cluster's outer samples whose window, in
    floating point, holds only samples exactly on its edge
    (|(v - p)/h| == 1).  Samples are multiples of 2**-20, so v +- h is
    exact for the h used; the cluster's other samples share the edge
    sample's block, so its moments do not cancel to 0 by themselves."""
    v = np.concatenate([
        10.0 * i + rng.uniform(0.0, 1.0) + np.sort(rng.uniform(0.0, 0.9 * h, size))
        for i, size in enumerate(rng.integers(2, 9, 40))
    ])
    v = np.round(v * 2.0**20) / 2.0**20
    near = np.concatenate([v - h, v + h])
    u = (v[None, :] - near[:, None]) / h
    inside = np.abs(u) <= 1.0
    edge = inside.any(axis=1) & np.all(~inside | (np.abs(u) == 1.0), axis=1)
    return v, near, near[edge]


@pytest.mark.parametrize("seed", range(5))
def test_windows_with_samples_only_on_their_edge(seed):
    """Epanechnikov vanishes on the window edge, so a window holding only
    edge samples has mass exactly 0: never a rounding residue, never
    negative, and every estimate flags the point as the oracle does."""
    rng = np.random.default_rng(seed)
    h = int(rng.integers(100, 500)) / 2.0**10
    v, near, edge = _edge_sample(rng, h)
    assert edge.size >= 40
    spec = KernelSpec("epanechnikov", h)
    x = rng.standard_normal((v.size, 1))
    ds = partlin.TimeSeriesDataset(y=x[:, 0] + rng.standard_normal(v.size), x=x, v=v)
    mass, sums = _window_sums(ds.sorted_v, edge, spec, x)
    assert mass.tolist() == [0.0] * edge.size
    assert sums.tolist() == [[0.0]] * edge.size
    # every p = v +- h, most of whose windows hold samples inside too
    all_mass, _ = _window_sums(ds.sorted_v, near, spec, x)
    want, _ = oracles.oracle_window_sums(
        v.tolist(), near.tolist(), "epanechnikov", h, x.tolist()
    )
    assert all_mass.min() >= 0.0
    np.testing.assert_allclose(all_mass, want, rtol=1e-10, atol=0.0)
    theta = np.array([1.0])
    for curve in [estimate_g(ds, theta, edge, spec), *estimate_h(ds, edge, spec)]:
        assert not curve.valid.any()
        assert np.isnan(curve.values).all()
        assert curve.local_mass.tolist() == [0.0] * edge.size
    for p in edge:
        assert oracles.oracle_g_at(ds.y, ds.x, v, theta, p, "epanechnikov", h) is None
    _, valid = smooth(ds.sorted_v, ds.y, spec)
    assert valid.all()


def _bits(arrays) -> list:
    return [a.view(np.uint64).tolist() for a in arrays]


@pytest.mark.parametrize("seed", range(3))
def test_a_bandwidth_per_row_is_a_pass_per_bandwidth(monkeypatch, seed):
    """``_block_sums`` on R copies of one sample with an (R, 1) array of
    bandwidths gives each row what a pass at that row's float h gives,
    bit for bit: at its own points, left out or not, and at given
    points, for both families.  Some Epanechnikov windows cancel, so the
    block sums them over their pairs, as the passes do: at the edge
    points of ``_edge_sample``, and left out, at pairs whose partner
    sits just inside the window edge at h0 (rows 1 and 3, whose pairs
    an h from another row would miss)."""
    rng = np.random.default_rng(seed)
    h0 = int(rng.integers(100, 500)) / 2.0**10
    v, near, _ = _edge_sample(rng, h0)
    base = v.max() + 10.0 * np.arange(1, 7)
    v = np.concatenate([v, base, base + h0 * (1.0 - 2.0**-30)])
    h = h0 * np.array([[0.05], [1.0], [1.7], [1.0]])
    one = SortedView(v)
    view = one.repeated(len(h))
    targets = np.column_stack([np.sin(v), rng.standard_normal(v.size)])
    tiled = np.broadcast_to(targets, (len(h), *targets.shape))
    paired, pair_sums = [], kernel.kernel_eval

    def spy(*args):  # the pair sums of guarded windows
        paired.append(args)
        return pair_sums(*args)

    monkeypatch.setattr(kernel, "kernel_eval", spy)
    for family in ("uniform", "epanechnikov"):
        spec = KernelSpec(family, h0)
        table = _prefix_table(view, spec, tiled, h)
        for points, leave_out in [(None, False), (None, True), (near, False)]:
            at = None if points is None else np.tile(points, (len(h), 1))
            paired.clear()
            block = _block_sums(view, at, spec, table, leave_out, h)
            # Epanechnikov windows that cancel, left out or at the edge points
            guarded = family == "epanechnikov" and (leave_out or at is not None)
            assert bool(paired) == guarded
            for r, hr in enumerate(h[:, 0]):
                alone = KernelSpec(family, float(hr))
                want = _block_sums(
                    one, None if points is None else points[None], alone,
                    _prefix_table(one, alone, targets[None]), leave_out,
                )
                assert _bits(a[r] for a in block) == _bits(a[0] for a in want)


def test_partners_exactly_on_the_edge_are_dropped_as_the_oracle_drops_them():
    """Left out, a point whose only partner sits exactly on its window
    edge has no mass; cross validation drops it, as the oracle does."""
    rng = random.Random(11)
    h = 0.375  # v + h is exact for these v, so the partner sits on the edge
    v = [rng.uniform(-0.5, 0.5) for _ in range(12)]
    v += [x for i in range(6) for x in (3.0 + 2.5 * i, 3.0 + 2.5 * i + h)]
    x = [[rng.uniform(-2.0, 2.0)] for _ in v]
    y = [rng.uniform(-2.0, 2.0) for _ in v]
    trunc = TruncationSpec(0.0, SmallSet(-1.0, 1.0))
    ds = partlin.TimeSeriesDataset(y=np.array(y), x=np.array(x), v=np.array(v))
    sel = cv_select(ds, np.array([h]), "epanechnikov", trunc)
    want, dropped = oracles.oracle_cv_criterion(
        y, x, v, "epanechnikov", h, 0.0, -1.0, 1.0
    )
    assert dropped == 12
    assert sel.dropped[0] == dropped
    assert sel.criterion[0] == pytest.approx(want, rel=1e-10)


def _lattice(seed: int, rows: int, n: int) -> np.ndarray:
    """Integer-valued walks of steps -1, 0 and 1: each value recurs many
    times, so a window's edge needle ties a whole run of samples."""
    steps = np.random.default_rng(seed).integers(-1, 2, (rows, n))
    return np.cumsum(steps, axis=1).astype(float)


_LOWER, _UPPER = (lambda u: u >= -1.0), (lambda u: u > 1.0)


def _first_past(view, points, h, past):
    """Each point's index of the first sorted value of its row that is
    ``past`` its edge, counted off the predicate directly."""
    u = (view.values[:, None, :] - points[:, :, None]) / np.reshape(h, (-1, 1, 1))
    return np.count_nonzero(~past(u), axis=2)


def _probe_points(view, rng):
    """Per row: its own values, each shifted by +-1/2, and uniform draws
    over the row's range and a little beyond."""
    v = view.values
    spread = rng.uniform(v.min(axis=1, keepdims=True) - 3, v.max(axis=1, keepdims=True) + 3,
                         (v.shape[0], 40))
    return np.concatenate([v, v + 0.5, v - 0.5, spread], axis=1)


@pytest.mark.parametrize("seed", range(3))
def test_settled_edges_do_not_depend_on_the_guess(seed):
    """From guesses all 0, all n, one off either way or random, every
    window end settles on the predicate's own count, at one h or at one
    h per row."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(0.1 * rng.standard_normal((1, 200)), axis=1)
    view = SortedView(np.concatenate([_lattice(seed, 2, 200), walk]))
    points = _probe_points(view, rng)
    n = view.values.shape[1]
    for h in (1.0, 2.0, 0.3, np.array([[0.3], [2.0], [1.0]])):
        for past in (_LOWER, _UPPER):
            want = _first_past(view, points, h, past)
            guesses = [np.zeros_like(want), np.full_like(want, n),
                       np.clip(want - 1, 0, n), np.clip(want + 1, 0, n),
                       rng.integers(0, n + 1, want.shape)]
            for guess in guesses:
                got = kernel._settle_edge(view.padded, points, h, guess, past)
                assert got.tolist() == want.tolist()


@pytest.mark.parametrize("seed", range(3))
def test_walked_guesses_are_insertion_indices(monkeypatch, seed):
    """The guesses ``windows`` settles are ``np.searchsorted``'s for
    p + h on the right and p - h on the left, on tie-heavy rows and a
    block of them.  An exact tie is a hit on either side; only where the
    interpolated index rounds may a guess be one off, at a needle within
    rounding distance of a sample, never on it."""
    guesses = {}
    settle = kernel._settle_edge

    def spy(padded, points, h, guess, past):
        # the lower edge's predicate holds at u = -1, the upper's does not
        guesses["left" if past(-1.0) else "right"] = guess.copy()
        return settle(padded, points, h, guess, past)

    monkeypatch.setattr(kernel, "_settle_edge", spy)
    rng = np.random.default_rng(seed)
    for rows in (1, 3):
        view = SortedView(_lattice(seed, rows, 300))
        points = _probe_points(view, rng)
        # needles one ulp either side of a sample
        near = view.values[:, ::13]
        points = np.concatenate(
            [points, np.nextafter(near, -np.inf) - 1.0, np.nextafter(near, np.inf) + 1.0],
            axis=1,
        )
        for h in (1.0, 0.5, 3.0):
            lo, hi = view.windows(points, h)
            assert lo.tolist() == _first_past(view, points, h, _LOWER).tolist()
            assert hi.tolist() == _first_past(view, points, h, _UPPER).tolist()
            for row, p, up, down in zip(view.values, points, guesses["right"],
                                        guesses["left"]):
                for needle, got, side in ((p + h, up, "right"), (p - h, down, "left")):
                    want = np.searchsorted(row, needle, side)
                    miss = np.flatnonzero(got != want)
                    gap = np.abs(row[:, None] - needle[miss]).min(axis=0)
                    assert np.all(np.abs(got[miss] - want[miss]) == 1)
                    assert np.all((gap > 0.0) & (gap <= 1e-12))


@pytest.mark.parametrize("h", [1.0, 2.0])
def test_lattice_windows_match_the_oracle(h):
    """On an integer-valued block every needle p -+ h ties a run of
    samples; own windows and searched windows hold exactly the values
    the oracle kernel weighs."""
    view = SortedView(_lattice(7, 2, 250))
    shifted = np.concatenate([view.values[:, ::5] + d for d in (-1.0, 0.0, 1.0)], axis=1)
    for points, (lo, hi) in [
        (view.values, view.own_windows(h)),
        (view.values, view.windows(view.values, h)),
        (shifted, view.windows(shifted, h)),
    ]:
        for row, at, row_lo, row_hi in zip(view.values, points, lo, hi):
            for p, a, b in zip(at, row_lo, row_hi):
                inside = [oracles.oracle_kernel("uniform", (v - p) / h) > 0 for v in row]
                assert inside == [a <= i < b for i in range(row.size)]


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(["uniform", "epanechnikov"]),
    h=st.sampled_from([0.1, 1.0]),
)
def test_window_sums_match_oracle_on_a_long_walk(seed, family, h):
    """n = 10 000 on a walk far from 0, where windows hold hundreds to
    thousands of samples and the moments are large: the engine agrees
    with the oracle to 1e-10 at sample points and grid points alike."""
    rng = np.random.default_rng(seed)
    v = 1e3 + np.cumsum(0.1 * rng.standard_normal(10_000))
    targets = np.column_stack([v, np.sin(v), np.ones_like(v)])
    spec = KernelSpec(family, h)
    own = rng.choice(v.size, 25, replace=False)
    grid = np.linspace(v.min() - h, v.max() + h, 50)
    mass, sums = _window_sums(v, None, spec, targets)
    grid_mass, grid_sums = _window_sums(v, grid, spec, targets)
    routes = [(v[own], mass[own], sums[own]), (grid, grid_mass, grid_sums)]
    for at, got_mass, got_sums in routes:
        want_mass, want_sums = oracles.oracle_window_sums(
            v.tolist(), at.tolist(), family, h, targets.tolist()
        )
        np.testing.assert_allclose(got_mass, want_mass, rtol=1e-10, atol=0.0)
        # the sum of kernel weighted |target| bounds the rounding of a sum
        scale = np.array(want_mass)[:, None] * np.abs(targets).max(axis=0)
        assert np.all(np.abs(got_sums - want_sums) <= 1e-10 * scale)


def test_smooth_constant_targets():
    v = simulate_random_walk(200, 0.2, 0.0, 3)
    c = np.full(200, 2.75)
    for family in ("uniform", "epanechnikov"):
        got, valid = smooth(v, c, KernelSpec(family, 0.4))
        assert valid.all()
        np.testing.assert_allclose(got, c, rtol=1e-12)


def test_smooth_isolated_points_reproduce_targets():
    v = np.arange(10.0) * 5.0  # gaps far wider than the window
    t = np.sin(v)
    got, valid = smooth(v, t, KernelSpec("uniform", 1.0))
    assert valid.all()
    # prefix sum differences round at the last ulp, nothing more
    np.testing.assert_allclose(got, t, rtol=1e-15, atol=0)


def test_smooth_shape_checks():
    v = np.zeros(4)
    with pytest.raises(ParameterError, match="rows"):
        smooth(v, np.zeros((3, 1)), KernelSpec("uniform", 1.0))


def test_smooth_one_dimensional_targets_keep_shape():
    v = simulate_random_walk(50, 0.3, 0.0, 8)
    t = np.cos(v)
    got, valid = smooth(v, t, KernelSpec("uniform", 0.5))
    assert got.shape == (50,)
    assert valid.shape == (50,)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family", ["uniform", "epanechnikov"])
def test_non_finite_covariate_is_rejected_by_position(family, bad):
    """Both entry points, and building a view, name the first bad
    position, for either family, before any numpy warning."""
    v = np.array([0.0, 0.3, bad, 0.5, -0.2])
    spec = KernelSpec(family, 0.4)
    with pytest.raises(ParameterError, match="finite.* at position 2"):
        smooth(v, np.arange(5.0), spec)
    with pytest.raises(ParameterError, match="finite.* at position 2"):
        truncation_mask(v, spec, default_truncation(5))
    with pytest.raises(ParameterError, match="finite.* at position 2"):
        SortedView(v)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "v", [np.zeros((3, 50)), np.array(0.5), np.array([]), np.zeros((1, 50))]
)
def test_covariate_must_be_one_nonempty_path(v):
    """A block, a scalar or an empty covariate raises ``ParameterError``
    naming its shape, rather than returning one row's answer or failing
    inside numpy."""
    spec = KernelSpec("uniform", 0.4)
    with pytest.raises(ParameterError, match="one nonempty path"):
        smooth(v, np.zeros((max(v.size, 1), 1)), spec)
    with pytest.raises(ParameterError, match="one nonempty path"):
        truncation_mask(v, spec, default_truncation(50))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["uniform", "epanechnikov"])
@pytest.mark.parametrize("shape", [(3, 50), (1, 0)])
def test_view_must_hold_one_nonempty_path(family, shape):
    """A view of a block, or of an empty path, is refused by every entry
    point that takes a view, naming its shape, rather than answering
    with row 0."""
    view = SortedView(np.random.default_rng(4).standard_normal(shape).cumsum(axis=-1))
    spec = KernelSpec(family, 0.4)
    match = rf"one nonempty path, got shape \({shape[0]}, {shape[1]}\)"
    with pytest.raises(ParameterError, match=match):
        smooth(view, np.zeros((view.order.size, 1)), spec)
    with pytest.raises(ParameterError, match=match):
        truncation_mask(view, spec, default_truncation(50))
    with pytest.raises(ParameterError, match=match):
        _window_sums(view, None, spec, np.zeros((view.order.size, 1)))


def test_smooth_own_point_always_valid():
    """Both families are positive at zero, so every sample point has mass."""
    v = np.array([-40.0, 0.0, 55.0])
    for family in ("uniform", "epanechnikov"):
        _, valid = smooth(v, v, KernelSpec(family, 0.01))
        assert valid.all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["uniform", "epanechnikov"])
def test_smooth_flags_values_past_the_float_range(family):
    """Targets near the float range overflow the window sums; no value
    that is not finite is flagged valid, and each such value is NaN."""
    v, big = np.linspace(-1.0, 1.0, 300), np.full(300, 1e307)
    out, valid = smooth(v, big, KernelSpec(family, 0.3))
    assert not np.isinf(out).any()
    assert np.array_equal(valid, np.isfinite(out))


def test_no_kernel_path_option():
    """One kernel engine serves every family, so no entry point takes
    an option choosing how kernel sums are computed."""
    api = [f for name, f in vars(partlin).items() if not name.startswith("_")]
    for f in [*api, _window_sums]:
        if not callable(f) or isinstance(f, type) and issubclass(f, Exception):
            continue
        assert "method" not in inspect.signature(f).parameters, f
