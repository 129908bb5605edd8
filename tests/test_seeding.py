"""Keyed RNG derivation: a frame-noise stream's prefix is a shorter draw."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tspkit.seeding import rng_for


# frame seeds and lengths a manifest can hold; a video's frame noise is row i
# of one standard_normal((n, frame_dim)) draw, so frames_at's draw up to the
# largest row it reads must equal those rows of the whole video's draw
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(0, 2**31 - 2), st.integers(-2**70, 2**70)),
       st.integers(0, 700).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))),
       st.sampled_from([1, 3, 16, 48]))
def test_a_k_row_draw_is_the_first_k_rows_of_a_longer_one(seed, k_n, dim):
    k, n = k_n
    short = rng_for(seed, "frame-noise").standard_normal((k, dim))
    full = rng_for(seed, "frame-noise").standard_normal((n, dim))
    assert short.tobytes() == full[:k].tobytes()
