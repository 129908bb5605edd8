"""The two fused tape ops against the primitive-op reference, byte for byte.

``encoder.forward_batch`` and ``pretrain.batch_loss_tensor`` are one tape op
each, over one leaf per parameter record; ``reference_tape`` composes the same
step from primitive ops over one leaf per array. The loss value, every encoder
and head array's gradient and the inference features must be the same bytes,
including signed zeros, for any shape the step can take.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tape as ref
from tspkit import autodiff as ad
from tspkit import encoder as enc
from tspkit import pretrain as pt


def step(enc_params, heads, batch, cfg):
    """(loss bytes, [gradient bytes of each encoder then head array]) of one
    fused step: each array's gradient is its view of its record's flat one."""
    tape = ad.Tape()
    enc_leaf, head_leaf = (tape.tensor(p.flat, True) for p in (enc_params, heads))
    loss = pt.batch_loss_tensor(tape, enc_params, enc_leaf, heads, head_leaf, *batch, cfg)
    grads = tape.backward(loss)
    arrays = (enc_params.view(grads[enc_leaf.node_id]).arrays()
              + heads.view(grads[head_leaf.node_id]).arrays())
    return np.float64(loss.data).tobytes(), [a.tobytes() for a in arrays]


def reference_step(enc_params, heads, batch, cfg):
    """``step`` through the primitive-op reference, one leaf per array."""
    tape = ad.Tape()
    enc_leaves, head_leaves = (ref.array_leaves(tape, p) for p in (enc_params, heads))
    loss = ref.batch_loss_tensor(tape, enc_leaves, head_leaves, *batch, cfg)
    grads = tape.backward(loss)
    return (np.float64(loss.data).tobytes(),
            [grads[t.node_id].tobytes() for t in enc_leaves + head_leaves])


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(pt.MODES), embed_dim=st.integers(4, 64), blocks=st.integers(0, 2),
       batch=st.integers(1, 40), length=st.integers(1, 20),
       weights=st.sampled_from([(1.0, 1.0), (0.0, 1.3), (0.7, 0.0), (0.7, 1.3)]),
       kind=st.sampled_from(["foreground", "background", "mixed"]),
       seed=st.integers(0, 2**32 - 1))
def test_fused_step_is_bytewise_the_reference_composition(mode, embed_dim, blocks, batch,
                                                          length, weights, kind, seed):
    rng = np.random.default_rng(seed)
    num_classes = int(rng.integers(2, 9))
    enc_cfg = enc.EncoderConfig(channels_in=int(rng.integers(1, 17)), embed_dim=embed_dim,
                                blocks=blocks)
    enc_params = enc.init_params(enc_cfg, seed=int(rng.integers(1000)))
    for blk in enc_params.blocks:  # nonzero biases, so ReLUs cut on both sides
        blk.conv1_bias[:] = rng.standard_normal(embed_dim) * 0.3
        blk.conv2_bias[:] = rng.standard_normal(embed_dim) * 0.3
    enc_params.stem_bias[:] = rng.standard_normal(embed_dim) * 0.3
    heads = pt.init_heads(embed_dim, num_classes, mode, seed=int(rng.integers(1000)))
    frames = rng.standard_normal((batch, length, enc_cfg.frame_dim))
    if mode == "tac" or kind == "foreground":  # tac trains on foreground clips only
        region = np.ones(batch, dtype=int)
    elif kind == "background":
        region = np.zeros(batch, dtype=int)
    else:
        region = rng.integers(0, 2, batch)
    action = np.where(region == 1, rng.integers(0, num_classes, batch), -1)
    gfeats = rng.standard_normal((batch, embed_dim)) if mode == "tsp" else None
    cfg = pt.TrainConfig(mode=mode, action_loss_weight=weights[0],
                         region_loss_weight=weights[1])
    inputs = (enc_params, heads, (frames, region, action, gfeats), cfg)

    assert step(*inputs) == reference_step(*inputs)
    assert (enc.forward_np_batch(enc_params, frames).tobytes()
            == ref.forward_np_batch(enc_params, frames).tobytes())


@pytest.mark.parametrize("embed_dim", [4, 16, 64])
@pytest.mark.parametrize("clips", [1, 127, 128, 129, 300])
def test_chunked_validation_features_equal_one_batch(clips, embed_dim):
    # chunks of at most VALIDATION_CHUNK clips, each taken from the store on its
    # own; 16 is the bench encoder's width
    cfg = enc.EncoderConfig(channels_in=16, embed_dim=embed_dim, blocks=1)
    params = enc.init_params(cfg, seed=0)
    rng = np.random.default_rng(clips)
    store = np.abs(rng.standard_normal((500, 16)))
    rows = rng.integers(0, len(store), (clips, 16))
    assert np.array_equal(pt.clip_features(params, store, rows),
                          enc.forward_np_batch(params, store[rows]))


def dot(tape, x, weights):
    """The scalar x . weights as one op; its backward holds ``weights``."""
    def backward(g, accumulate):
        accumulate(x, g * weights)

    return tape.apply(np.float64(x.data @ weights), (x,), backward)


def test_second_backward_on_a_tape_is_rejected():
    tape = ad.Tape()
    x = tape.tensor([1.0, -2.0], requires_grad=True)
    loss = dot(tape, x, np.ones(2))
    tape.backward(loss)
    with pytest.raises(ValueError, match="already swept"):
        tape.backward(loss)
    with pytest.raises(ValueError, match="swept"):
        tape.tensor([1.0])


def test_backward_frees_the_step_without_the_cycle_collector():
    # each op's backward holds its inputs, which hold the tape: a cycle the
    # sweep must break, so a step's activations go when its last name does
    gc.disable()
    try:
        tape = ad.Tape()
        x = tape.tensor(np.ones(3), requires_grad=True)
        weights = np.arange(3.0)
        probe = weakref.ref(weights)
        loss = dot(tape, x, weights)
        del weights
        grads = tape.backward(loss)
        assert np.array_equal(grads[x.node_id], [0.0, 1.0, 2.0])
        assert probe() is None
    finally:
        gc.enable()
