"""The two fused ops against the primitive-op reference, byte for byte.

``encoder.forward_batch`` and ``pretrain.batch_loss_tensor`` record one
backward each, which returns one flat gradient per parameter record;
``reference_tape`` composes the same step from primitive ops over one leaf
per array. The loss value, every encoder and head array's gradient and the
inference features must be the same bytes, including signed zeros, for any
shape the step can take.
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
    loss = pt.batch_loss_tensor(tape, enc_params, heads, *batch, cfg)
    enc_grad, head_grad = tape.backward()
    arrays = enc_params.view(enc_grad).arrays() + heads.view(head_grad).arrays()
    return np.float64(loss).tobytes(), [a.tobytes() for a in arrays]


def reference_step(enc_params, heads, batch, cfg):
    """``step`` through the primitive-op reference, one leaf per array."""
    tape = ref.Tape()
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


def small_step_inputs(seed=0):
    """A tsp training step's inputs at a small shape: (cfg, store, gvf, batch,
    groups, velocity, rates) for ``pretrain.train_step``."""
    rng = np.random.default_rng(seed)
    cfg = pt.TrainConfig(mode="tsp")
    enc_params = enc.init_params(enc.EncoderConfig(channels_in=4, embed_dim=6, blocks=1), 0)
    heads = pt.init_heads(6, 3, "tsp", 0)
    batch = pt.LabeledBatch(rows=rng.integers(0, 20, (3, 5)), region_labels=np.array([1, 0, 1]),
                            action_labels=np.array([2, -1, 0]), videos=np.array([0, 1, 0]))
    groups = (enc_params, heads)
    return (cfg, rng.standard_normal((20, 4)), rng.standard_normal((2, 6)), batch, groups,
            tuple(np.zeros_like(p.flat) for p in groups), [0.1, 0.1])


def test_second_backward_on_a_tape_is_rejected():
    cfg, store, gvf, batch, (enc_params, heads), _, _ = small_step_inputs()
    tape = ad.Tape()
    pt.batch_loss_tensor(tape, enc_params, heads, store.take(batch.rows, axis=0),
                         batch.region_labels, batch.action_labels, batch.global_rows(gvf), cfg)
    tape.backward()
    with pytest.raises(ValueError, match="already swept"):
        tape.backward()
    with pytest.raises(ValueError, match="swept"):
        enc.forward_batch(enc_params, store.take(batch.rows, axis=0), tape)


def test_backward_frees_the_step_without_the_cycle_collector(monkeypatch):
    # a training step's tape and its activations (which hold the step's frames)
    # go when train_step returns, by reference counting alone
    probes, batch_loss_tensor = [], pt.batch_loss_tensor

    def probed(tape, enc_params, heads, frames, *rest):
        probes.extend([weakref.ref(tape), weakref.ref(frames)])
        return batch_loss_tensor(tape, enc_params, heads, frames, *rest)

    monkeypatch.setattr(pt, "batch_loss_tensor", probed)
    inputs = small_step_inputs()
    before = inputs[4][0].flat.copy()
    gc.disable()
    try:
        loss = pt.train_step(*inputs)
        assert len(probes) == 2
        assert [probe() for probe in probes] == [None, None]
    finally:
        gc.enable()
    assert np.isfinite(loss) and not np.array_equal(inputs[4][0].flat, before)
