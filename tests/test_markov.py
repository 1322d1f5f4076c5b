"""Covariate paths, recurrence diagnostics and block decompositions."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from partlin import markov
from partlin.errors import NoVisitsError, ParameterError
from partlin.markov import (
    BlockDecomposition,
    _ar1_recursion,
    SmallSet,
    count_small_set_visits,
    estimate_beta,
    regeneration_blocks,
    simulate_ar1,
    simulate_random_walk,
)
from partlin.rng import standard_normal

# derived from the frozen normal draws of stream (42, 0)
FROZEN_WALK = [0.091612048563452231, 0.0035440861318849909, 0.11508424472558261]


def test_small_set_contains_is_inclusive():
    s = SmallSet(-1.0, 1.0)
    got = s.contains(np.array([-1.0, 1.0, -1.0000001, 0.0, 2.0]))
    assert got.tolist() == [True, True, False, True, False]


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, -2.0), (np.nan, 1.0), (0.0, np.inf)])
def test_small_set_rejects_bad_bounds(lo, hi):
    with pytest.raises(ParameterError):
        SmallSet(lo, hi)


def test_frozen_walk():
    assert simulate_random_walk(3, 0.1, 0.0, 42).tolist() == FROZEN_WALK


def test_walk_is_cumsum_of_scaled_normals():
    steps = 0.25 * standard_normal(11, 3, 50)
    np.testing.assert_array_equal(
        simulate_random_walk(50, 0.25, 0.0, 11, stream=3), np.cumsum(steps)
    )


def test_walk_start_offset_exact():
    base = simulate_random_walk(20, 0.1, 0.0, 5)
    shifted = simulate_random_walk(20, 0.1, 2.5, 5)
    np.testing.assert_array_equal(shifted, 2.5 + base)


def test_walk_zero_increment_is_constant():
    np.testing.assert_array_equal(
        simulate_random_walk(4, 0.0, 1.5, 0), np.full(4, 1.5)
    )


@pytest.mark.parametrize("n,sd", [(0, 0.1), (-1, 0.1), (5, -0.1), (5, np.nan)])
def test_walk_parameter_errors(n, sd):
    with pytest.raises(ParameterError):
        simulate_random_walk(n, sd, 0.0, 0)


def test_ar1_rho_zero_is_scaled_innovations():
    z = standard_normal(8, 0, 31)
    np.testing.assert_allclose(
        simulate_ar1(30, 0.0, 2.0, 8), 2.0 * z[1:], rtol=0, atol=1e-15
    )


def test_ar1_matches_direct_recursion():
    rho, sd, n, seed = 0.6, 1.3, 64, 21
    z = standard_normal(seed, 0, n + 1)
    e = sd / math.sqrt(1.0 - rho * rho) * z[0]
    expect = np.empty(n)
    for t in range(n):
        e = rho * e + sd * z[t + 1]
        expect[t] = e
    np.testing.assert_allclose(simulate_ar1(n, rho, sd, seed), expect, atol=1e-12)


def _bits(a):
    """Bit patterns, which tell -0.0 from 0.0 where == does not."""
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


# integer 0 and 1 included: the filter's coefficient is the float -rho,
# whose zero has the other sign than that of -0.0; powers of two up to 1
# take the scaled running sum, every other rho (2.0 too) the loop
AR1_RHOS = [-0.9, 0.0, -0.0, 0, 0.5, 0.25, 2.0**-10, 1.0, 1, 1.2, 2.0]
# both signs of zero, which a noiseless path is made of
_INNOVATION = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3, allow_subnormal=False),
)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 3).flatmap(
        lambda r: st.lists(
            st.lists(_INNOVATION, min_size=1, max_size=12), min_size=r, max_size=r
        )
    ),
    rho=st.sampled_from(AR1_RHOS),
    starts=st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0]), min_size=3, max_size=3),
)
def test_ar1_recursion_is_the_filter_bit_for_bit(rows, rho, starts):
    """One row (Python floats) and several (one vector per time step)
    reproduce scipy's lfilter, signs of zero included."""
    width = min(len(r) for r in rows)
    innov = np.array([r[:width] for r in rows])
    start = np.array(starts[: len(rows)])
    got = _ar1_recursion(innov, rho, start)
    for r in range(len(rows)):
        assert _bits(got[r]) == _bits(oracles.oracle_ar1(innov[r], rho, start[r]))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    streams=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
    n=st.integers(1, 40),
    rho=st.sampled_from(AR1_RHOS),
    sd=st.sampled_from([0.0, 1.0, 0.3]),
)
def test_ar1_paths_are_the_filtered_draws(seed, streams, n, rho, sd):
    """Each stream's path is its draws run through lfilter, alone and as
    a row of a block of streams."""
    block = simulate_ar1(n, rho, sd, seed, streams)
    for row, stream in zip(block, streams):
        z = standard_normal(seed, stream, n + 1)
        e0 = sd / np.sqrt(1.0 - rho * rho) * z[0] if abs(rho) < 1 else 0.0
        want = _bits(oracles.oracle_ar1(sd * z[1:], rho, rho * e0))
        assert _bits(row) == want
        assert _bits(simulate_ar1(n, rho, sd, seed, stream)) == want


@pytest.fixture
def guard_verdicts(monkeypatch):
    """The verdict of the scaled running sum's guard, one per call."""
    verdicts = []
    scaled = markov._scaled_running_sum

    def spy(w, k):
        verdicts.append(scaled(w, k))
        return verdicts[-1]

    monkeypatch.setattr(markov, "_scaled_running_sum", spy)
    return verdicts


def _assert_filtered(innov, rho, start):
    """The block and each of its rows alone are the filter, bit for bit."""
    innov, start = np.atleast_2d(innov), np.atleast_1d(start)
    got = _ar1_recursion(innov, rho, start)
    for r in range(innov.shape[0]):
        want = _bits(oracles.oracle_ar1(innov[r], rho, start[r]))
        assert _bits(got[r]) == want
        assert _bits(_ar1_recursion(innov[r:r + 1], rho, start[r:r + 1])[0]) == want


def test_design_rho_takes_the_scaled_running_sum(guard_verdicts):
    """rho = 0.5 on N(0, 1) innovations never reaches the loop over time."""
    z = standard_normal(0, 0, 1201)
    _assert_filtered(np.array([z[1:], 2.0 * z[1:]]), 0.5, 0.5 * z[:2])
    assert guard_verdicts == [True] * 3


@pytest.mark.parametrize("rho,n", [(0.5, 2500), (2.0**-10, 300)])
def test_rows_longer_than_one_segment(guard_verdicts, rho, n):
    """2500 steps at k = 1 and 300 at k = 10 span three and four segments."""
    innov = np.array([standard_normal(5, s, n) for s in range(3)])
    _assert_filtered(innov, rho, np.array([0.3, -0.0, 4.0]))
    assert guard_verdicts == [True] * 4


@pytest.mark.parametrize(
    "innov,start",
    [
        (np.resize([1e300, -1e300, 0.9e300], 60), 0.0),  # scaled values overflow
        (np.resize([1536, 1], 40) * 5e-324, 0.0),  # subnormal innovations
        (np.zeros(40), 5e-324),  # subnormal starts
        (np.zeros(40), 2.0**-1060),
        # decays below 2**(k - 1022), where the loop rounds rho e_{t-1}
        (np.concatenate(([-0.1321048632913019], np.zeros(1200))), 0.0),
    ],
)
@pytest.mark.parametrize("rho", [0.5, 2.0**-10])
def test_guard_sends_inexact_blocks_to_the_loop(guard_verdicts, innov, start, rho):
    _assert_filtered(innov, rho, start)
    assert guard_verdicts and not any(guard_verdicts)


@pytest.mark.parametrize("rho", [0.5, 0.25, 1.0])
def test_zeros_of_both_signs_pass_the_guard_exactly(guard_verdicts, rho):
    """-0, -0, then an exact cancellation to +0 that zeros carry on."""
    innov = np.array([-0.0, -0.0, 3.0, -3.0 * rho, 0.0, -0.0, 1.0])
    _assert_filtered(np.array([innov, -innov]), rho, np.array([-0.0, 0.0]))
    got = _ar1_recursion(innov[None], rho, np.array([-0.0]))[0]
    assert _bits(got[:5]) == _bits([-0.0, -0.0, 3.0, 0.0, 0.0])
    assert guard_verdicts == [True] * 4


def test_walks_of_a_block_are_the_walks_of_their_streams():
    block = simulate_random_walk(50, 0.2, 1.5, 9, [4, 0, 7])
    assert block.shape == (3, 50)
    for row, stream in zip(block, [4, 0, 7]):
        assert _bits(row) == _bits(simulate_random_walk(50, 0.2, 1.5, 9, stream))


def test_ar1_unit_root_is_random_walk():
    z = standard_normal(4, 0, 11)
    np.testing.assert_allclose(
        simulate_ar1(10, 1.0, 1.0, 4), np.cumsum(z[1:]), atol=1e-12
    )


def test_ar1_stationary_moments():
    rho, sd = 0.6, 1.0
    e = simulate_ar1(200_000, rho, sd, 99)
    target_var = sd * sd / (1.0 - rho * rho)
    assert abs(e.var() / target_var - 1.0) < 0.03
    lag1 = np.corrcoef(e[:-1], e[1:])[0, 1]
    assert abs(lag1 - rho) < 0.02


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, rho=0.5, innovation_sd=1.0),
        dict(n=5, rho=np.nan, innovation_sd=1.0),
        dict(n=5, rho=0.5, innovation_sd=-1.0),
    ],
)
def test_ar1_parameter_errors(kwargs):
    with pytest.raises(ParameterError):
        simulate_ar1(seed=0, **kwargs)


def test_visit_count():
    """One path gives an ``int``; a block's rows are counted apart, one
    count per path."""
    v = np.array([[0.0, 5.0, -1.0, 1.0, 3.0], [4.0, 4.0, 4.0, 4.0, 4.0]])
    one = count_small_set_visits(v[0], SmallSet(-1.0, 1.0))
    assert type(one) is int and one == 3
    block = count_small_set_visits(v, SmallSet(-1.0, 1.0))
    assert block.dtype.kind == "i" and block.tolist() == [3, 0]


def test_beta_hand_value():
    v = np.array([0.0, 5.0, 0.5, 9.0])
    # 2 visits in 4 points: log 2 / log 4 is exactly one half
    assert estimate_beta(v, SmallSet(-1.0, 1.0)) == 0.5


def test_beta_full_range_is_one():
    v = np.linspace(-0.9, 0.9, 50)
    assert estimate_beta(v, SmallSet(-1.0, 1.0)) == 1.0


def test_beta_errors():
    with pytest.raises(ParameterError):
        estimate_beta(np.array([0.0]), SmallSet(-1.0, 1.0))
    # a block has one visit count per path, so no one index
    with pytest.raises(ParameterError, match=r"one path .* shape \(2, 3\)"):
        estimate_beta(np.zeros((2, 3)), SmallSet(-1.0, 1.0))
    with pytest.raises(NoVisitsError):
        estimate_beta(np.array([5.0, 6.0]), SmallSet(-1.0, 1.0))


def test_beta_concentrates_for_walks():
    vals = [
        estimate_beta(
            simulate_random_walk(200_000, 1.0, 0.0, seed), SmallSet(-1.0, 1.0)
        )
        for seed in range(5)
    ]
    assert 0.35 < float(np.median(vals)) < 0.65


def test_blocks_hand_case():
    v = np.array([0.0, 2.0, 3.0, 0.5, 4.0])
    dec = regeneration_blocks(v, lambda x: x, SmallSet(-1.0, 1.0))
    assert dec.boundaries.tolist() == [0, 3]
    assert dec.head == 0.0  # just v[0]
    np.testing.assert_allclose(dec.blocks, [2.0 + 3.0 + 0.5])
    assert dec.tail == 4.0
    assert dec.blocks.size == 1


def test_blocks_tail_empty_when_path_ends_inside():
    v = np.array([2.0, 0.0, 3.0, 0.5])
    dec = regeneration_blocks(v, lambda x: 1.0, SmallSet(-1.0, 1.0))
    assert dec.tail == 0.0
    assert dec.head == 2.0  # two points up to and including the first visit
    np.testing.assert_allclose(dec.blocks, [2.0])


def test_blocks_match_oracle_on_random_paths():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 40)
        v = np.array([rng.uniform(-3, 3) for _ in range(n)])
        v[rng.randrange(n)] = rng.uniform(-0.9, 0.9)
        fv = np.sin(v)
        head, blocks, tail = oracles.oracle_blocks(v.tolist(), fv.tolist(), -1.0, 1.0)
        dec = regeneration_blocks(v, np.sin, SmallSet(-1.0, 1.0))
        np.testing.assert_allclose(dec.head, head, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(dec.blocks, blocks, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(dec.tail, tail, rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=60
    )
)
def test_block_sums_reconstruct_total(data):
    v = np.array(data)
    small = SmallSet(-1.0, 1.0)
    fv = np.cos(v)
    total = float(fv.sum())
    try:
        dec = regeneration_blocks(v, np.cos, small)
    except NoVisitsError:
        assert count_small_set_visits(v, small) == 0
        return
    recon = dec.head + float(dec.blocks.sum()) + dec.tail
    np.testing.assert_allclose(recon, total, rtol=1e-10, atol=1e-12)


def test_scalar_only_callable_falls_back():
    v = simulate_random_walk(30, 1.0, 0.0, 2)
    vec = regeneration_blocks(v, np.exp, SmallSet(-1.0, 1.0))
    scal = regeneration_blocks(v, math.exp, SmallSet(-1.0, 1.0))
    np.testing.assert_allclose(scal.blocks, vec.blocks, rtol=1e-14)
    assert scal.head == pytest.approx(vec.head, rel=1e-14)


def test_blocks_require_data_and_visits():
    small = SmallSet(-1.0, 1.0)
    with pytest.raises(ParameterError):
        regeneration_blocks(np.array([]), lambda x: x, small)
    with pytest.raises(NoVisitsError):
        regeneration_blocks(np.array([3.0, 4.0]), lambda x: x, small)


def test_block_decomposition_block_count():
    dec = BlockDecomposition(
        head=0.0, blocks=np.array([1.0, 2.0]), tail=0.0, boundaries=np.array([0, 1, 2])
    )
    assert dec.blocks.size == 2
