"""Keyed RNG derivation: ``normal_rows`` is the per-index ``rng_for`` stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspkit.seeding import normal_rows, rng_for


def per_index_rows(*prefix, count, dim):
    if count == 0:
        return np.empty((0, dim))
    return np.stack([rng_for(*prefix, i).standard_normal(dim) for i in range(count)])


# ints from 0 past 2**64 (one, two and three 32-bit words before masking) and
# negatives, which rng_for masks to 64 bits; strings fold in via sha256
key_parts = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 3, -1, -2**40]),
    st.integers(-2**70, 2**70),
    st.text(max_size=8),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(key_parts, max_size=6), st.sampled_from([0, 1, 2, 5, 37]),
       st.sampled_from([0, 1, 3, 16, 48]))
def test_normal_rows_equals_per_index_rng_for(prefix, count, dim):
    got = normal_rows(*prefix, count=count, dim=dim)
    want = per_index_rows(*prefix, count=count, dim=dim)
    assert got.shape == want.shape == (count, dim)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_normal_rows_frame_noise_key():
    # the key corpus frame noise uses, at a video's length
    got = normal_rows(1_234_567, "frame-noise", count=600, dim=16)
    assert np.array_equal(got, per_index_rows(1_234_567, "frame-noise", count=600, dim=16))


def test_normal_rows_rejects_bad_count_and_key():
    with pytest.raises(ValueError):
        normal_rows(1, count=-1, dim=4)
    with pytest.raises(TypeError):
        normal_rows(1.5, count=2, dim=4)
