"""Leave-one-out bandwidth selection."""

import os
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import as_dataset, build_dataset, tiny_fixture
from partlin.bandwidth import CvResult, cv_select, default_h_grid
from partlin.errors import (
    NoVisitsError,
    ParameterError,
    SelectionError,
)
from partlin import bandwidth, kernel, sls
from partlin.kernel import (
    KernelSpec,
    TruncationSpec,
    default_bandwidth,
    default_truncation,
    truncation_mask,
)
from partlin.markov import SmallSet
from partlin.sls import truncated_theta


def test_default_grid_shape_and_span():
    grid = default_h_grid(200)
    h0 = default_bandwidth(200)
    assert grid.size == 12
    assert grid[0] == pytest.approx(0.1 * h0)
    assert grid[-1] == pytest.approx(3.0 * h0)
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


def _oracle_failure(y, x, v, family, h, bn, lo, hi) -> str | None:
    """Why the oracle cannot score bandwidth h, or None: its mask keeps
    nothing, its normal equations are singular, or every kept point
    drops out of the leave-one-out score."""
    keep = oracles.oracle_mask(v, family, h, bn, lo, hi)
    if not any(keep):
        return "empty mask"
    _, xt = oracles._oracle_tilde(y, x, v, family, h)
    a = sum(np.outer(xt[t], xt[t]) for t in range(len(y)) if keep[t])
    if not np.linalg.cond(a) <= 1e12:
        return "singular"
    _, dropped = oracles.oracle_cv_criterion(y, x, v, family, h, bn, lo, hi)
    return "all dropped" if dropped == sum(keep) else None


def test_criterion_matches_oracle_per_bandwidth():
    """Finite criteria equal the oracle's; an infinite one is a
    bandwidth the oracle cannot score either, for its reason."""
    rng = random.Random(31)
    checked = 0
    failures = set()
    for _ in range(30):
        y, x, v, family, h, bn, lo, hi = tiny_fixture(rng)
        ds = as_dataset(y, x, v)
        grid = np.array([0.05, 0.3 * h, 0.8 * h, h, 1.3 * h, 4.0 * h])
        trunc = TruncationSpec(bn, SmallSet(lo, hi))
        try:
            sel = cv_select(ds, grid, family, trunc)
        except SelectionError:
            continue
        for i, hg in enumerate(grid):
            args = (y, x, v, family, float(hg), bn, lo, hi)
            if np.isfinite(sel.criterion[i]):
                want_crit, want_drop = oracles.oracle_cv_criterion(*args)
                assert sel.criterion[i] == pytest.approx(want_crit, rel=1e-10)
                assert sel.dropped[i] == want_drop
            else:
                failures.add(_oracle_failure(*args))
        finite = np.isfinite(sel.criterion)
        assert sel.h_star == grid[np.argmin(np.where(finite, sel.criterion, np.inf))]
        checked += 1
    assert checked >= 20
    # both refit failures occur; "all dropped" cannot outlive the refit,
    # since a point alone in its window detrends to exactly 0
    assert failures == {"empty mask", "singular"}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    h=st.floats(min_value=0.2, max_value=0.6),
    # each isolated point's partner sits at v + h, moved by this many ulp
    nudges=st.lists(st.sampled_from([-1, 0, 1]), min_size=6, max_size=6),
    family=st.sampled_from(["uniform", "epanechnikov"]),
)
def test_criterion_with_partners_on_the_window_edge(seed, h, nudges, family):
    """Isolated points whose one partner sits on the edge of their
    window, or one rounding step either side of it.  Left out, such a
    point's window holds the partner's kernel value alone: 0, or a few
    ulp of K(0) for Epanechnikov, which the difference of the full mass
    and K(0) rounds away.  Scored or dropped, each must be as the
    oracle has it."""
    rng = random.Random(seed)
    v = [rng.uniform(-0.5, 0.5) for _ in range(12)]
    for i, nudge in enumerate(nudges):
        base = 3.0 + 2.5 * i + rng.uniform(0.0, 1.0)
        partner = base + h
        if nudge:
            partner = float(np.nextafter(partner, nudge * np.inf))
        v += [base, partner]
    x = [[rng.uniform(-2.0, 2.0)] for _ in v]
    y = [rng.uniform(-2.0, 2.0) for _ in v]
    trunc = TruncationSpec(0.0, SmallSet(-1.0, 1.0))
    sel = cv_select(as_dataset(y, x, v), np.array([h]), family, trunc)
    want, dropped = oracles.oracle_cv_criterion(y, x, v, family, h, 0.0, -1.0, 1.0)
    assert sel.criterion[0] == pytest.approx(want, rel=1e-10)
    assert sel.dropped[0] == dropped


def test_single_candidate_grid():
    ds = build_dataset(seed=33, n=120)
    sel = cv_select(ds, np.array([0.4]), "uniform", default_truncation(120))
    assert sel.h_star == 0.4
    assert sel.grid.size == 1


def test_ties_resolve_to_smaller_bandwidth():
    """Integer spaced points: windows identical for h in (1, 2)."""
    v = np.arange(8.0) - 3.0
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 1))
    y = 0.5 * x[:, 0] + rng.standard_normal(8)
    ds = as_dataset(y, x, v)
    trunc = TruncationSpec(0.0, SmallSet(-1.0, 1.0))
    sel = cv_select(ds, np.array([1.2, 1.4]), "uniform", trunc)
    assert sel.criterion[0] == sel.criterion[1]
    assert sel.h_star == 1.2


def test_grid_validation():
    ds = build_dataset(seed=33, n=60)
    trunc = default_truncation(60)
    with pytest.raises(ParameterError, match="nonempty"):
        cv_select(ds, np.array([]), "uniform", trunc)
    with pytest.raises(ParameterError, match="finite"):
        cv_select(ds, np.array([0.1, np.inf]), "uniform", trunc)
    with pytest.raises(ParameterError, match="finite"):
        cv_select(ds, np.array([-0.1, 0.2]), "uniform", trunc)
    with pytest.raises(ParameterError, match="increasing"):
        cv_select(ds, np.array([0.3, 0.2]), "uniform", trunc)
    with pytest.raises(ParameterError, match="family"):
        cv_select(ds, np.array([0.3]), "gaussian", trunc)


def test_no_visits_raises_immediately():
    ds = build_dataset(seed=34, n=50)
    shifted = as_dataset(ds.y, ds.x, ds.v + 100.0)
    with pytest.raises(NoVisitsError):
        cv_select(shifted, np.array([0.2, 0.4]), "uniform", default_truncation(50))


def test_all_candidates_failing_raises_selection_error():
    ds = build_dataset(seed=35, n=60)
    trunc = TruncationSpec(1e9, SmallSet(-1.0, 1.0))
    with pytest.raises(SelectionError):
        cv_select(ds, np.array([0.2, 0.4]), "uniform", trunc)


def test_unscorable_bandwidth_gets_infinite_criterion():
    """A window so narrow every point is alone: the refit itself fails
    (the detrended design is identically zero) and the candidate scores
    infinity without reaching the scoring stage."""
    ds = build_dataset(seed=36, n=80)
    trunc = TruncationSpec(0.0, SmallSet(-1.0, 1.0))
    grid = np.array([1e-9, 0.5])
    sel = cv_select(ds, grid, "uniform", trunc)
    assert np.isinf(sel.criterion[0])
    assert np.isfinite(sel.criterion[1])
    assert sel.h_star == 0.5
    assert sel.dropped[0] == 0  # never scored
    assert sel.dropped[1] == 0


def test_isolated_points_are_dropped_from_the_score():
    """One close pair keeps the refit alive; the isolated points have
    empty leave-one-out windows and are counted out of the criterion."""
    v = np.array([0.0, 0.3, 10.0, 20.0, 30.0])
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 1))
    y = x[:, 0] + rng.standard_normal(5)
    ds = as_dataset(y, x, v)
    trunc = TruncationSpec(0.0, SmallSet(-1.0, 1.0))
    sel = cv_select(ds, np.array([0.5]), "uniform", trunc)
    assert np.isfinite(sel.criterion[0])
    assert sel.dropped[0] == 3


def test_location_invariance_of_criterion():
    ds = build_dataset(seed=37, n=150)
    grid = np.array([0.2, 0.35, 0.5])
    trunc = default_truncation(150)
    a = cv_select(ds, grid, "uniform", trunc)
    shifted = as_dataset(ds.y + 500.0, ds.x, ds.v)
    b = cv_select(shifted, grid, "uniform", trunc)
    np.testing.assert_allclose(a.criterion, b.criterion, rtol=1e-6)
    assert a.h_star == b.h_star


def test_scale_equivariance():
    """Scaling V and the grid by c > 0 rescales h_star by c."""
    ds = build_dataset(seed=38, n=150)
    grid = np.array([0.15, 0.3, 0.6])
    c = 2.5
    trunc = TruncationSpec(0.0, SmallSet(-1.0, 1.0))
    trunc_scaled = TruncationSpec(0.0, SmallSet(-c, c))
    a = cv_select(ds, grid, "uniform", trunc)
    scaled = as_dataset(ds.y, ds.x, ds.v * c)
    b = cv_select(scaled, grid * c, "uniform", trunc_scaled)
    np.testing.assert_allclose(b.criterion, a.criterion, rtol=1e-9)
    assert b.h_star == pytest.approx(c * a.h_star)


def test_deterministic():
    ds = build_dataset(seed=39, n=200)
    grid = default_h_grid(200)
    trunc = default_truncation(200)
    a = cv_select(ds, grid, "uniform", trunc)
    b = cv_select(ds, grid, "uniform", trunc)
    assert a.h_star == b.h_star
    np.testing.assert_array_equal(a.criterion, b.criterion)


def test_interior_selection_on_simulated_data():
    """On design data the selected h avoids both grid endpoints."""
    ds = build_dataset(seed=101, n=200)
    grid = default_h_grid(200)
    sel = cv_select(ds, grid, "uniform", default_truncation(200))
    assert np.all(np.isfinite(sel.criterion))
    assert grid[0] < sel.h_star < grid[-1]


def test_result_type_fields():
    sel = CvResult(
        h_star=0.3,
        grid=np.array([0.3]),
        criterion=np.array([1.0]),
        dropped=np.array([0]),
    )
    assert sel.h_star == 0.3


def _bandwidths(h):
    """A float bandwidth as it is, an (R, 1) array of them as a list."""
    return h if np.ndim(h) == 0 else np.ravel(h).tolist()


def _count_passes(monkeypatch) -> list:
    """Record the arguments of every ``_block_sums`` call, through each
    binding of the engine: the bandwidths, the shape of the targets of
    its prefix table, the table's cell widths and ``leave_out``."""
    calls = []
    engine = kernel._block_sums

    def spy(view, points, spec, table, leave_out=False, h=None, hi=None):
        hs = _bandwidths(spec.bandwidth if h is None else h)
        calls.append((hs, table[-2].shape, _bandwidths(table[-1]), leave_out))
        return engine(view, points, spec, table, leave_out, h, hi)

    for module in (kernel, sls, bandwidth):
        monkeypatch.setattr(module, "_block_sums", spy)
    return calls


def test_sweep_is_one_left_out_pass_per_block(monkeypatch):
    """Every block of bandwidths reaches its fits, failing or not,
    through one left-out engine call on a prefix table of R copies of
    the stacked (y, x) columns, one bandwidth to a row, and a block of
    one is a pass at a float h.  A uniform sweep builds that table once
    per block height, since its blocks are whole rows; an Epanechnikov
    one builds it per block, on cells of each row's h."""
    ds = build_dataset(seed=36, n=80, d=2)
    trunc = TruncationSpec(0.05, SmallSet(-1.0, 1.0))
    grid = np.array([1e-9, 0.2, 0.3, 0.5, 50.0])  # singular, fine x 3, empty mask
    blocks = [grid[:2].tolist(), grid[2:4].tolist(), grid[4]]
    monkeypatch.setattr(bandwidth, "SWEEP_CELLS", 2 * ds.n + 1)  # 2 rows a block
    built = []
    build = bandwidth._prefix_table

    def build_spy(view, spec, targets, h):
        built.append((_bandwidths(h), targets.shape))
        return build(view, spec, targets, h)

    monkeypatch.setattr(bandwidth, "_prefix_table", build_spy)
    calls = _count_passes(monkeypatch)
    shapes = [(160, 3), (160, 3), (80, 3)]
    for family, cells, tables in [
        ("uniform", [None] * 3, blocks[::2]), ("epanechnikov", blocks, blocks)
    ]:
        sel = cv_select(ds, grid, family, trunc)
        assert np.isinf(sel.criterion[[0, 4]]).all()
        assert np.isfinite(sel.criterion[1:4]).all()
        assert calls == [(h, s, c, True) for h, s, c in zip(blocks, shapes, cells)]
        assert built == [(h, (np.size(h), 80, 3)) for h in tables]
        calls.clear()
        built.clear()


def test_block_fit_is_one_pass_per_block(monkeypatch):
    """A block fit reads its masks and its detrending off one engine
    call, whatever becomes of each row's fit; so does a dataset fit."""
    rng = np.random.default_rng(3)
    v = np.cumsum(0.1 * rng.standard_normal((5, 120)), axis=1)
    v[4] += 50.0  # never visits the small set
    x = rng.standard_normal((5, 120, 2))
    y = x.sum(axis=2) + rng.standard_normal((5, 120))
    trunc = TruncationSpec(0.05, SmallSet(-1.0, 1.0))
    calls = _count_passes(monkeypatch)
    fits = sls._truncated_rows(
        np.concatenate([y[:, :, None], x], axis=2),
        kernel.SortedView(v), KernelSpec("uniform", 0.3), trunc,
    )[0]
    assert isinstance(fits[4], NoVisitsError)
    assert calls == [(0.3, (600, 3), None, False)]
    calls.clear()
    sls.truncated_sls(as_dataset(y[0], x[0], v[0]), KernelSpec("uniform", 0.3), trunc)
    assert calls == [(0.3, (120, 3), None, False)]


def _fit_spy(monkeypatch) -> list:
    """Record each (mask, fit) the sweep reads off its passes, a row of
    each block at a time."""
    seen = []
    fit_rows = bandwidth._fit_rows

    def spy(*args):
        fits, masks, tilde = fit_rows(*args)
        seen.extend(zip(masks, fits))
        return fits, masks, tilde

    monkeypatch.setattr(bandwidth, "_fit_rows", spy)
    return seen


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(["uniform", "epanechnikov"]),
    bn=st.sampled_from([0.0, 0.05, 0.3]),
)
def test_sweep_matches_fits_and_oracle_on_a_long_walk(seed, family, bn):
    """n = 10 000 on a walk far from 0, with x on the walk's scale, the
    grid swept as one block: at each bandwidth the sweep keeps the mask
    of ``truncation_mask``, refits the coefficients of
    ``truncated_theta`` to 1e-12 and scores the dense oracle's
    criterion to 1e-10, dropping the same points."""
    rng = np.random.default_rng(seed)
    n = 10_000
    v = 1e3 + np.cumsum(0.1 * rng.standard_normal(n))
    x = (v + rng.standard_normal(n))[:, None]
    y = x[:, 0] + np.sin(v) + rng.standard_normal(n)
    ds = as_dataset(y, x, v)
    trunc = TruncationSpec(bn, SmallSet(999.0, 1001.0))
    grid = np.array([0.02, 0.1, 1.0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bandwidth, "SWEEP_CELLS", grid.size * n)
        seen = _fit_spy(mp)
        sel = cv_select(ds, grid, family, trunc)
    assert len(seen) == grid.size
    for h, crit, dropped, (mask, fit) in zip(grid, sel.criterion, sel.dropped, seen):
        spec = KernelSpec(family, float(h))
        np.testing.assert_array_equal(mask, truncation_mask(ds.sorted_v, spec, trunc))
        want = oracles.oracle_cv_dense(y, x, v, family, h, bn, 999.0, 1001.0)
        if want[3] is None:
            assert np.isinf(crit) and not isinstance(fit, np.ndarray)
            continue
        theta, _ = truncated_theta(ds, spec, trunc)
        np.testing.assert_allclose(fit, theta, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(mask, want[2])
        assert crit == pytest.approx(want[0], rel=1e-10)
        assert dropped == want[1]


def test_dense_oracle_is_the_oracle():
    """``oracle_cv_dense`` agrees with the pure oracle on small cases."""
    rng = random.Random(5)
    for _ in range(20):
        y, x, v, family, h, bn, lo, hi = tiny_fixture(rng)
        args = (y, x, v, family, h, bn, lo, hi)
        crit, dropped, mask, theta = oracles.oracle_cv_dense(*args)
        assert list(mask) == oracles.oracle_mask(v, family, h, bn, lo, hi)
        if theta is None:
            continue
        want = oracles.oracle_cv_criterion(*args)
        assert crit == pytest.approx(want[0], rel=1e-10) and dropped == want[1]
        want_theta = oracles.oracle_truncated_theta(*args)
        np.testing.assert_allclose(theta, want_theta, rtol=1e-10)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(["uniform", "epanechnikov"]),
    d=st.sampled_from([1, 2]),
    bn=st.sampled_from([0.0, 0.05]),
)
def test_sweep_equals_a_pass_per_bandwidth_bit_for_bit(seed, family, d, bn):
    """n = 10 000 on a walk near 1000 with values on a 2**-20 lattice: a
    third of its steps are 0 (ties), and every bandwidth is the gap
    between two sample values, so some windows have samples exactly on
    their edge.  The sweep, sharing one prefix table over the grid for
    the uniform kernel and scoring every point before keeping the
    usable ones, gives the criterion and dropped counts of a separate
    pass per bandwidth scored on the gathered rows, bit for bit."""
    _check_edge_lattice(seed, family, d, bn)


def _check_edge_lattice(seed, family, d, bn) -> np.ndarray:
    """The edge lattice case of the test above; returns its grid."""
    rng = np.random.default_rng(seed)
    n = 10_000
    steps = np.round(0.1 * rng.standard_normal(n) * 2.0**20) * 2.0**-20
    steps[rng.random(n) < 1 / 3] = 0.0
    v = 1e3 + np.cumsum(steps)
    x = v[:, None] - 1e3 + rng.standard_normal((n, d))
    y = x.sum(axis=1) + np.sin(v) + rng.standard_normal(n)
    ds = as_dataset(y, x, v)
    ranked = np.unique(v)
    at = rng.integers(0, ranked.size - 600, 6)
    gaps = ranked[at + rng.integers(1, 600, 6)] - ranked[at]
    grid = np.unique(np.concatenate([gaps, [1.0]]))
    trunc = TruncationSpec(bn, SmallSet(999.0, 1001.0))
    want_crit, want_dropped = oracles.oracle_cv_by_pass(ds, grid, family, trunc)
    try:
        sel = cv_select(ds, grid, family, trunc)
    except SelectionError:
        assert np.isinf(want_crit).all()
        return grid
    np.testing.assert_array_equal(sel.criterion, want_crit)
    np.testing.assert_array_equal(sel.dropped, want_dropped)
    return grid


def _lattice_dataset(seed: int, n: int):
    """A walk on a 1/8 lattice (many ties), with y and one regressor."""
    rng = np.random.default_rng(seed)
    v = np.cumsum(rng.integers(-1, 2, n)) / 8.0
    x = rng.standard_normal((n, 1))
    return as_dataset(x[:, 0] + np.sin(v) + rng.standard_normal(n), x, v)


@pytest.mark.parametrize("family", ["uniform", "epanechnikov"])
def test_sweep_does_not_depend_on_the_block_height(monkeypatch, family):
    """1, 2 or 5 bandwidths to a block, or the whole grid in one, give
    the same ``CvResult`` bit for bit, on a walk and on an odd-length
    lattice sample with ties; the walk's grid holds a bandwidth whose
    refit is singular (1e-9) and one whose mask is empty (50.0)."""
    trunc = TruncationSpec(0.05, SmallSet(-1.0, 1.0))
    grid = np.array([1e-9, 0.1, 0.15, 0.2, 0.3, 0.5, 0.8, 50.0])
    for ds in (build_dataset(seed=36, n=80, d=2), _lattice_dataset(4, 301)):
        results = []
        for rows in (1, 2, 5, grid.size):
            monkeypatch.setattr(bandwidth, "SWEEP_CELLS", rows * ds.n)
            results.append(cv_select(ds, grid, family, trunc))
        want = results[0]
        for sel in results[1:]:
            assert sel.h_star == want.h_star
            assert sel.criterion.view(np.uint64).tolist() == (
                want.criterion.view(np.uint64).tolist()
            )
            assert sel.dropped.tolist() == want.dropped.tolist()
    walk = cv_select(build_dataset(seed=36, n=80, d=2), grid, family, trunc)
    assert np.isinf(walk.criterion[[0, -1]]).all()
    assert np.isfinite(walk.criterion[1:-1]).all()


def _patch_cores(monkeypatch, cores):
    """Make this process look as if it may run on ``cores`` cores."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False
    )


def _searches(monkeypatch) -> list:
    """Record the thread of every upper end search of own windows."""
    threads = []
    search = kernel.SortedView._upper_ends

    def spy(view, points, h, out=None):
        if points is view.values:
            threads.append(threading.current_thread())
        return search(view, points, h, out)

    monkeypatch.setattr(kernel.SortedView, "_upper_ends", spy)
    return threads


def _same(a: CvResult, b: CvResult) -> bool:
    return (
        a.h_star == b.h_star
        and a.criterion.view(np.uint64).tolist() == b.criterion.view(np.uint64).tolist()
        and a.dropped.tolist() == b.dropped.tolist()
    )


@pytest.mark.parametrize("family", ["uniform", "epanechnikov"])
def test_look_ahead_gives_the_same_result_bit_for_bit(monkeypatch, family):
    """With each bandwidth's windows searched ahead on a helper thread
    (two cores, the threshold at 0, a bandwidth a pass) the sweep returns
    the ``CvResult`` of the search in each pass (one core), bit for bit,
    on the walk with its singular (1e-9) and empty-mask (50.0) bandwidths
    and on the lattice sample with ties; a block of 2 or all 8 bandwidths
    a pass searches its own windows on any core count."""
    trunc = TruncationSpec(0.05, SmallSet(-1.0, 1.0))
    grid = np.array([1e-9, 0.1, 0.15, 0.2, 0.3, 0.5, 0.8, 50.0])
    threads = _searches(monkeypatch)
    monkeypatch.setattr(bandwidth, "AHEAD_CELLS", 0)
    main = threading.main_thread()
    for ds in (build_dataset(seed=36, n=80, d=2), _lattice_dataset(4, 301)):
        for rows in (1, 2, grid.size):
            monkeypatch.setattr(bandwidth, "SWEEP_CELLS", rows * ds.n)
            results = []
            for cores in (1, 2):
                _patch_cores(monkeypatch, cores)
                threads.clear()
                results.append(cv_select(ds, grid, family, trunc))
                if cores == 2 and rows == 1:  # a search per bandwidth
                    assert len(threads) == grid.size and main not in threads
                else:  # each pass searches its own
                    assert threads == [main] * -(-grid.size // rows)
            assert _same(*results)


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(["uniform", "epanechnikov"]),
)
def test_look_ahead_on_the_edge_lattice(seed, family):
    """The edge lattice case of
    ``test_sweep_equals_a_pass_per_bandwidth_bit_for_bit``, each
    bandwidth's windows searched ahead on a helper thread."""
    with pytest.MonkeyPatch.context() as mp:
        _patch_cores(mp, 2)
        mp.setattr(bandwidth, "AHEAD_CELLS", 10_000)
        threads = _searches(mp)
        grid = _check_edge_lattice(seed, family, 2, 0.05)
    # the oracle searches on this thread, the sweep on the helper alone
    assert sum(t is not threading.main_thread() for t in threads) == grid.size


def test_no_thread_outlives_the_sweep(monkeypatch):
    """The helper is joined before ``cv_select`` returns, and before it
    raises when scoring the third bandwidth fails, with the error the
    caller sees being the one raised; one core starts no thread."""
    ds = build_dataset(seed=36, n=80, d=2)
    trunc = TruncationSpec(0.05, SmallSet(-1.0, 1.0))
    grid = np.array([0.1, 0.15, 0.2, 0.3, 0.5])
    monkeypatch.setattr(bandwidth, "SWEEP_CELLS", ds.n)
    monkeypatch.setattr(bandwidth, "AHEAD_CELLS", ds.n)
    started = []
    start = threading.Thread.start

    def start_spy(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_spy)
    before = set(threading.enumerate())
    _patch_cores(monkeypatch, 1)
    cv_select(ds, grid, "uniform", trunc)
    assert started == []
    _patch_cores(monkeypatch, 2)
    cv_select(ds, grid, "uniform", trunc)
    assert len(started) == 1 and set(threading.enumerate()) == before

    error, score, calls = SelectionError("third"), bandwidth._score, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise error
        return score(*args)

    monkeypatch.setattr(bandwidth, "_score", failing)
    with pytest.raises(SelectionError) as caught:
        cv_select(ds, grid, "epanechnikov", trunc)
    assert caught.value is error and len(calls) == 3
    assert len(started) == 2 and not started[-1].is_alive()
    assert set(threading.enumerate()) == before
