"""The two fused ops against the primitive-op reference, byte for byte.

``encoder.forward_batch`` and ``pretrain.batch_loss_tensor`` record one
backward each, which returns one flat gradient per parameter record;
``reference_tape`` composes the same step from primitive ops over one leaf
per array. The loss value, every encoder and head array's gradient and the
inference features must be the same bytes, including signed zeros, for any
shape the step can take. A clip's feature must also be the same bytes in any
batch, so extraction, validation chunks and a clip run alone agree.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tape as ref
from tspkit import autodiff as ad
from tspkit import corpus as cp
from tspkit import encoder as enc
from tspkit import extract as ex
from tspkit import pretrain as pt
from tspkit.sampler import ClipSet, clip_frame_indices


def step(enc_params, heads, batch, cfg):
    """(loss bytes, [gradient bytes of each encoder then head leaf array]) of
    one fused step: each array's gradient is its view of its record's flat one."""
    tape = ad.Tape()
    loss = pt.batch_loss_tensor(tape, enc_params, heads, *batch, cfg)
    enc_grad, head_grad = tape.backward()
    arrays = ref.leaf_arrays(enc_params.view(enc_grad)) + heads.view(head_grad).arrays()
    return np.float64(loss).tobytes(), [a.tobytes() for a in arrays]


def reference_step(enc_params, heads, batch, cfg):
    """``step`` through the primitive-op reference, one leaf per ``leaf_arrays`` entry."""
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
    # nonzero biases, so ReLUs cut on both sides; a bias array's row i is block i's
    for conv1_bias, conv2_bias in zip(enc_params.conv1_bias, enc_params.conv2_bias):
        conv1_bias[:] = rng.standard_normal(embed_dim) * 0.3
        conv2_bias[:] = rng.standard_normal(embed_dim) * 0.3
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


@settings(max_examples=60, deadline=None)
@given(embed_dim=st.integers(4, 64), blocks=st.integers(0, 2), length=st.integers(1, 16),
       batch=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_a_clips_feature_is_the_same_bytes_in_any_batch(embed_dim, blocks, length, batch,
                                                       seed):
    rng = np.random.default_rng(seed)
    cfg = enc.EncoderConfig(channels_in=int(rng.integers(1, 17)), embed_dim=embed_dim,
                            blocks=blocks)
    params = enc.init_params(cfg, seed=int(rng.integers(1000)))
    frames = rng.standard_normal((batch, length, cfg.frame_dim))
    feats = enc.forward_np_batch(params, frames)
    for i in range(batch):
        assert feats[i].tobytes() == enc.forward_np_batch(params, frames[i:i + 1])[0].tobytes()


def test_extracted_features_equal_clip_features_of_the_same_clips():
    # extraction runs the video's 155 clips (hop 2) as one batch; clip_features
    # takes them from the split's store in two chunks, or one at a time
    videos = {
        "tr_0": cp.VideoRecord("tr_0", "train", 100.0, 4.0,
                               [cp.AnnotationInstance("a", 10.0, 40.0)], 5),
        "va_0": cp.VideoRecord("va_0", "valid", 77.5, 4.0,
                               [cp.AnnotationInstance("a", 20.0, 50.0)], 6),
    }
    corpus = cp.Corpus(["a", "b"], videos, cp.SynthInfo(1, 0.3, "pure", 16, 1, 1))
    cfg = pt.TrainConfig(mode="tac", epochs=0, warmup_epochs=0, head_lr_grid=(0.004,),
                         embed_dim=16, blocks=1, seed=0, init="random")
    ckpt, _ = pt.train(corpus, cfg)
    video = corpus.videos["va_0"]
    track = ex.extract_track(corpus, video, ckpt, hop=2)
    centers = np.arange(0, video.num_frames, 2)
    rows = corpus.frame_offset(video) + clip_frame_indices(
        centers[:, None], cfg.clip_len, cfg.frame_stride, video.num_frames)
    store = corpus.split_frames("valid")
    assert len(rows) > pt.VALIDATION_CHUNK
    assert pt.clip_features(ckpt.encoder, store, rows).tobytes() == track.features.tobytes()
    alone = [pt.clip_features(ckpt.encoder, store, rows[i:i + 1]) for i in range(len(rows))]
    assert np.concatenate(alone).tobytes() == track.features.tobytes()


def small_step_inputs(seed=0):
    """A tsp training step's inputs at a small shape: (cfg, store, gvf, batch,
    groups, velocity, rates) for ``pretrain.train_step``."""
    rng = np.random.default_rng(seed)
    cfg = pt.TrainConfig(mode="tsp")
    enc_params = enc.init_params(enc.EncoderConfig(channels_in=4, embed_dim=6, blocks=1), 0)
    heads = pt.init_heads(6, 3, "tsp", 0)
    batch = ClipSet(rows=rng.integers(0, 20, (3, 5)), region_labels=np.array([1, 0, 1]),
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
