"""Keyed RNG derivation: ``normal_rows`` is the per-index ``rng_for`` stack."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tspkit import seeding
from tspkit.seeding import normal_rows, rng_for


def per_index_rows(*prefix, rows, dim):
    if len(rows) == 0:
        return np.empty((0, dim))
    return np.stack([rng_for(*prefix, int(i)).standard_normal(dim) for i in rows])


# ints from 0 past 2**64 (one, two and three 32-bit words before masking) and
# negatives, which rng_for masks to 64 bits; strings fold in via sha256
key_parts = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 3, -1, -2**40]),
    st.integers(-2**70, 2**70),
    st.text(max_size=8),
)


# row arrays: a whole video's 0..count-1, and unsorted ones with repeats that
# reach both ends of the 32-bit index range
row_arrays = st.one_of(
    st.sampled_from([0, 1, 2, 5, 37]).map(np.arange),
    st.lists(st.one_of(st.sampled_from([0, 1, 2**32 - 2, 2**32 - 1]),
                       st.integers(0, 2**32 - 1)), max_size=12).map(np.array),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(key_parts, max_size=6), row_arrays, st.sampled_from([0, 1, 3, 16, 48]))
@example([5, "frame-noise"], np.array([2**32 - 1, 7, 0, 7, 2**32 - 1, 3, 0]), 4)
def test_normal_rows_equals_per_index_rng_for(prefix, rows, dim):
    got = normal_rows(*prefix, rows=rows, dim=dim)
    want = per_index_rows(*prefix, rows=rows, dim=dim)
    assert got.shape == want.shape == (len(rows), dim)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_normal_rows_frame_noise_key():
    # the key corpus frame noise uses, at a video's length
    rows = np.arange(600)
    got = normal_rows(1_234_567, "frame-noise", rows=rows, dim=16)
    assert np.array_equal(got, per_index_rows(1_234_567, "frame-noise", rows=rows, dim=16))


def test_normal_rows_rejects_bad_count_and_key():
    # rows outside one 32-bit seed word, or not a 1-D integer array
    for rows in ([-1], [0, 2**32], [2**64 - 1], [0.5], [[0, 1]]):
        with pytest.raises(ValueError):
            normal_rows(1, rows=rows, dim=4)
    with pytest.raises(TypeError):
        normal_rows(1.5, rows=np.arange(2), dim=4)


def test_normal_rows_refuses_a_pcg64_state_it_cannot_read_back(monkeypatch):
    # a PCG64 whose state reads back other words than normal_rows wrote, as a
    # numpy with another pcg64_random_t layout would
    class OtherLayoutPCG64(np.random.PCG64):
        @property
        def state(self):
            state = super().state
            pcg = state["state"]
            return {**state, "state": {"state": pcg["inc"], "inc": pcg["state"]}}

    monkeypatch.setattr(seeding.np.random, "PCG64", OtherLayoutPCG64)
    with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)}"):
        normal_rows(5, "frame-noise", rows=np.arange(3), dim=4)
