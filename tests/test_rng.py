"""Pins the generator pipeline down to the bit level.

The frozen values below were produced by an independent pure Python
implementation of the counter based generator and the bit to float map
(see oracles.py), so a regression here means the documented pipeline
changed, not just that two copies of the same code drifted together.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from partlin.errors import ParameterError
from scipy.special import ndtri

from partlin.rng import _to_uniform, _words, normal_block, standard_normal


def stream_words(seed, stream, size):
    """The words of one stream, as ``normal_block`` draws them."""
    return _words(seed, [stream], size)[0]


def stream_uniforms(seed, stream, size):
    """The uniforms of one stream, as ``normal_block`` maps them."""
    return _to_uniform(_words(seed, [stream], size))[0]


# independently derived with oracles.oracle_raw64 / oracle_uniforms /
# oracle_normals for key (42, 0)
FROZEN_RAW = [
    15129985323320379406,
    3490965594592278910,
    16005516994917231875,
]
FROZEN_UNIFORM = [
    0.82019814786088763,
    0.18924562408645496,
    0.86766081488214619,
]
FROZEN_NORMAL = [
    0.9161204856345222,
    -0.88067962431567237,
    1.1154015859369761,
]

KEYS = [(0, 0), (1, 0), (0, 1), (42, 7), (2**63 + 11, 5), (2**64 - 1, 2**64 - 1)]


def test_frozen_raw_words():
    assert stream_words(42, 0, 3).tolist() == FROZEN_RAW


def test_frozen_uniforms():
    assert stream_uniforms(42, 0, 3).tolist() == FROZEN_UNIFORM


def test_frozen_normals():
    got = standard_normal(42, 0, 3)
    # the inverse distribution functions of scipy and the oracle agree
    # to a few ulp, the frozen values are the package's own output
    assert got.tolist() == FROZEN_NORMAL
    np.testing.assert_allclose(
        got, oracles.oracle_normals(42, 0, 3), rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("seed,stream", KEYS)
def test_raw_words_match_oracle(seed, stream):
    got = stream_words(seed, stream, 11)
    assert got.tolist() == oracles.oracle_raw64(seed, stream, 11)


@pytest.mark.parametrize("seed,stream", KEYS)
def test_uniforms_match_oracle(seed, stream):
    got = stream_uniforms(seed, stream, 9)
    assert got.tolist() == oracles.oracle_uniforms(seed, stream, 9)


def test_key_reduction_modulo_64_bits():
    reduced = stream_words(3, 1, 4)
    assert stream_words(2**64 + 3, 2**65 + 1, 4).tolist() == reduced.tolist()


def test_prefix_consistency():
    """Longer draws extend shorter ones from the same stream."""
    long = stream_words(9, 2, 13)
    short = stream_words(9, 2, 5)
    assert long[:5].tolist() == short.tolist()


def test_streams_and_seeds_separate():
    base = stream_words(5, 0, 8)
    assert stream_words(5, 1, 8).tolist() != base.tolist()
    assert stream_words(6, 0, 8).tolist() != base.tolist()


def test_determinism():
    a = standard_normal(123, 4, 64)
    b = standard_normal(123, 4, 64)
    np.testing.assert_array_equal(a, b)


def test_zero_size():
    assert stream_words(0, 0, 0).size == 0
    assert stream_words(0, 0, 0).dtype == np.uint64
    assert stream_uniforms(0, 0, 0).size == 0
    assert standard_normal(0, 0, 0).size == 0


def test_negative_size_rejected():
    with pytest.raises(ParameterError, match="size"):
        stream_words(0, 0, -1)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_uniforms_stay_inside_open_interval(seed, stream):
    u = stream_uniforms(seed, stream, 64)
    assert u.min() >= 2.0**-53
    assert u.max() <= 1.0 - 2.0**-53


def test_uniform_map_is_the_documented_formula_bit_for_bit():
    """The in-place map equals ((w >> 12) + 0.5) * 2**-52: in Python
    floats at the extreme words, and evaluated by numpy on 10**6 seeded
    random words."""
    edges = [0, 4095, 4096, 2**63, 2**64 - 4096, 2**64 - 1]
    got = _to_uniform(np.array(edges, dtype=np.uint64))
    assert got.tolist() == [((w >> 12) + 0.5) * 2.0**-52 for w in edges]
    words = np.random.Philox(2024).random_raw(10**6)
    want = ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
    got = _to_uniform(words.copy())
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_normals_always_finite(seed, stream):
    z = standard_normal(seed, stream, 64)
    assert np.all(np.isfinite(z))


def test_normal_moments_sane():
    z = standard_normal(2024, 0, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_normal_block_rows_follow_the_oracle():
    """Row i is stream i's words (through the oracle's uniforms, mapped
    by the package's inverse distribution function) bit for bit, and
    the oracle's own normals to a few ulp."""
    streams = [stream for _, stream in KEYS]
    block = normal_block(42, streams, 9)
    assert block.shape == (len(KEYS), 9)
    for row, stream in zip(block, streams):
        uniforms = np.array(oracles.oracle_uniforms(42, stream, 9))
        assert row.tolist() == ndtri(uniforms).tolist()
        np.testing.assert_allclose(
            row, oracles.oracle_normals(42, stream, 9), rtol=0, atol=1e-13
        )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    streams=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=5),
    size=st.integers(min_value=0, max_value=70),
)
def test_normal_block_stacks_standard_normal_rows(seed, streams, size):
    block = normal_block(seed, streams, size)
    assert block.shape == (len(streams), size)
    for row, stream in zip(block, streams):
        assert row.view(np.uint64).tolist() == (
            standard_normal(seed, stream, size).view(np.uint64).tolist()
        )


def test_normal_block_rejects_negative_size():
    with pytest.raises(ParameterError, match="size"):
        normal_block(0, [0], -1)
