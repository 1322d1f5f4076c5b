"""Covariate paths, recurrence diagnostics and block decompositions."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from partlin.errors import NoVisitsError, ParameterError
from partlin.markov import (
    BlockDecomposition,
    _ar1_recursion,
    SmallSet,
    count_small_set_visits,
    ergodic_ratio,
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
# whose zero has the other sign than that of -0.0
AR1_RHOS = [-0.9, 0.0, -0.0, 0, 0.5, 1.0, 1, 1.2]
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
    v = np.array([0.0, 5.0, -1.0, 1.0, 3.0])
    assert count_small_set_visits(v, SmallSet(-1.0, 1.0)) == 3


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
    assert dec.n_complete == 1


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


def test_ergodic_ratio_hand_case():
    v = np.array([0.0, 2.0, 0.0])
    assert ergodic_ratio(v, lambda x: 1.0, SmallSet(-1.0, 1.0)) == 3.0


def test_ergodic_ratio_counts_all_terms():
    v = simulate_random_walk(500, 1.0, 0.0, 13)
    small = SmallSet(-1.0, 1.0)
    visits = count_small_set_visits(v, small)
    got = ergodic_ratio(v, lambda x: 1.0, small)
    assert got == pytest.approx(500.0 / (visits - 1))


def test_ergodic_ratio_needs_complete_block():
    with pytest.raises(NoVisitsError, match="complete"):
        ergodic_ratio(np.array([0.0, 5.0]), lambda x: x, SmallSet(-1.0, 1.0))


def test_block_decomposition_n_complete():
    dec = BlockDecomposition(
        head=0.0, blocks=np.array([1.0, 2.0]), tail=0.0, boundaries=np.array([0, 1, 2])
    )
    assert dec.n_complete == 2
