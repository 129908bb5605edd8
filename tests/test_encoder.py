"""Clip encoder: shapes, init statistics, forward identities, gradients."""

import hashlib

import numpy as np
import pytest

import reference_tape as ref
from flat_params import flatten_params, gradient_check, two_head_loss_builder
from tspkit import autodiff as ad
from tspkit import encoder as enc
from tspkit import pretrain


def encode(params, clip):
    """Feature of one (frame_dim, L) clip: a time-major batch of one."""
    return enc.forward_np_batch(params, clip.T[None])[0]


def test_init_is_deterministic_per_seed():
    cfg = enc.EncoderConfig(channels_in=4, embed_dim=8, blocks=1)
    a = enc.init_params(cfg, seed=0)
    b = enc.init_params(cfg, seed=0)
    c = enc.init_params(cfg, seed=1)
    assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))
    assert not np.array_equal(a.stem_weight, c.stem_weight)


def test_stem_init_std_matches_he_scaling():
    cfg = enc.EncoderConfig(channels_in=64, height=1, width=1, embed_dim=256, blocks=0)
    params = enc.init_params(cfg, seed=0)
    expected = np.sqrt(2.0 / cfg.frame_dim)
    assert abs(params.stem_weight.std() - expected) / expected < 0.10


def test_param_count_shape_arithmetic():
    cfg = enc.EncoderConfig(channels_in=4, height=1, width=1, embed_dim=8, blocks=1)
    assert enc.param_count(cfg) == 440  # 40 stem + 400 block
    stem_only = enc.EncoderConfig(channels_in=4, height=1, width=1, embed_dim=8, blocks=0)
    assert enc.param_count(stem_only) == 40
    doubled = enc.EncoderConfig(channels_in=4, height=1, width=1, embed_dim=16, blocks=1)
    block = enc.param_count(doubled) - (16 * 4 + 16)
    assert block == 2 * (16 * 16 * 3 + 16)  # ~4x the d=8 block


def test_param_count_matches_actual_arrays():
    cfg = enc.EncoderConfig(channels_in=5, height=1, width=1, embed_dim=12, blocks=3)
    params = enc.init_params(cfg, seed=0)
    assert sum(a.size for a in params.arrays()) == enc.param_count(cfg)


def test_zero_input_no_blocks_gives_relu_of_bias():
    cfg = enc.EncoderConfig(channels_in=3, embed_dim=5, blocks=0)
    params = enc.init_params(cfg, seed=0)
    params.stem_bias[:] = np.array([-1.0, 0.5, 2.0, -0.25, 0.0])
    out = encode(params, np.zeros((3, 7)))
    assert np.array_equal(out, np.maximum(params.stem_bias, 0.0))


def test_time_constant_clip_equals_single_frame_output_stem_only():
    # mean-pool identity: without temporal convs, a constant-in-time clip has
    # identical per-frame activations and pooling returns exactly that column
    cfg = enc.EncoderConfig(channels_in=6, embed_dim=10, blocks=0)
    params = enc.init_params(cfg, seed=3)
    frame = np.random.default_rng(0).standard_normal(6)
    clip = np.repeat(frame[:, None], 16, axis=1)
    h = np.maximum(params.stem_weight @ clip + params.stem_bias[:, None], 0.0)
    out = encode(params, clip)
    assert all(np.array_equal(h[:, j], h[:, 0]) for j in range(16))
    assert np.array_equal(out, h[:, 0])
    # the stand-alone L=1 pass may differ by BLAS kernel rounding only
    single = encode(params, frame[:, None])
    np.testing.assert_allclose(out, single, rtol=0, atol=1e-15)


def test_time_constant_clip_has_constant_interior_activations():
    # with zero-padded temporal convs only the two edge frames deviate
    cfg = enc.EncoderConfig(channels_in=6, embed_dim=10, blocks=1)
    params = enc.init_params(cfg, seed=3)
    frame = np.random.default_rng(1).standard_normal(6)
    clip = np.repeat(frame[:, None], 16, axis=1)
    h = np.maximum(params.stem_weight @ clip + params.stem_bias[:, None], 0.0)
    tape = ref.Tape()
    block = params.blocks[0]
    conv = ref.conv1d_same(tape.tensor(h.T[None]), tape.tensor(block.conv1_kernel),
                           tape.tensor(block.conv1_bias)).data[0].T
    interior = conv[:, 2:-2]
    assert np.all(interior == interior[:, :1])
    assert not np.array_equal(conv[:, 0], conv[:, 1])


def test_output_dim_is_feature_dim_for_any_length():
    cfg = enc.EncoderConfig(channels_in=4, embed_dim=7, blocks=1)
    params = enc.init_params(cfg, seed=1)
    for length in (1, 4, 16, 33):
        out = encode(params, np.ones((4, length)))
        assert out.shape == (7,)


def test_tape_and_numpy_forward_agree_exactly():
    # the training forward (which records its backward) and the inference pass
    # give the same bits; a batch row matches that clip's batch of one up to the BLAS, whose
    # blocking of the conv products can depend on the batch size
    cfg = enc.EncoderConfig(channels_in=8, embed_dim=12, blocks=2)
    params = enc.init_params(cfg, seed=5)
    frames = np.random.default_rng(7).standard_normal((5, 8, 16)).transpose(0, 2, 1)
    out_tape = enc.forward_batch(params, frames, ad.Tape())
    out_np = enc.forward_np_batch(params, frames)
    assert np.array_equal(out_tape, out_np)
    for i in range(5):
        single = encode(params, frames[i].T)
        assert np.array_equal(enc.forward_np(params, frames[i].T), single)
        np.testing.assert_allclose(out_np[i], single, rtol=0, atol=1e-13)


def test_geometry_mismatch_raises():
    cfg = enc.EncoderConfig(channels_in=4, embed_dim=8, blocks=0)
    params = enc.init_params(cfg, seed=0)
    with pytest.raises(enc.ShapeError):
        enc.forward_np_batch(params, np.zeros((1, 5, 16)))


def test_full_model_gradient_check_default_config():
    # default encoder width/depth (d=64, B=2) through the two-head loss
    cfg = enc.EncoderConfig(channels_in=16, embed_dim=64, blocks=2)
    rng = np.random.default_rng(11)
    frames = rng.standard_normal((2, 16, 16)) * 0.5
    gfeats = np.repeat(rng.standard_normal((1, 64)) * 0.5, 2, axis=0)
    build = two_head_loss_builder(cfg, 8, "tsp", frames, np.array([1, 0]),
                                  np.array([2, -1]), gfeats)
    enc_params = enc.init_params(cfg, seed=0)
    heads = pretrain.init_heads(64, 8, "tsp", seed=0)
    vec = flatten_params(enc_params, heads)
    res = gradient_check(build, vec, coords=100, h=1e-6, seed=0)
    assert res.max_rel_err <= 1e-5


# sha256 of the float64 bytes, computed with the channel-major (B, frame_dim, L)
# encoder before it became time-major, on numpy 2.4 with OpenBLAS: the two
# layouts round identically. A different BLAS may round the products differently.
GOLDEN_FORWARD_DIGESTS = {
    (16, 1): "64158aa0475c6da264616fef68791fd46c3316299bf4dcb15e46fb98cb0c878d",
    (64, 2): "133518c104e0b5318225172863dc969b445aaa32534a39c4d6142e80e9f84542",
}
GOLDEN_TRAIN_STEP_GRADS_DIGEST = (
    "bee7031560e7689a105ccb5337c3bfb1cf24e325787e66ae481f6353406ff820")


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("embed_dim,blocks", sorted(GOLDEN_FORWARD_DIGESTS))
def test_batch_forward_matches_golden_digest(embed_dim, blocks):
    frames = np.random.default_rng(7).standard_normal((32, 16, 16))  # (B, L, frame_dim)
    cfg = enc.EncoderConfig(channels_in=16, embed_dim=embed_dim, blocks=blocks)
    feats = enc.forward_np_batch(enc.init_params(cfg, seed=0), frames)
    assert digest([feats]) == GOLDEN_FORWARD_DIGESTS[(embed_dim, blocks)]


def test_bench_shape_training_step_gradients_match_golden_digest():
    # the study's encoder (embed 16, one block) on a 32-clip tsp batch
    rng = np.random.default_rng(11)
    frames = np.abs(rng.standard_normal((32, 16, 16)))
    region = np.arange(32) % 2
    action = np.where(region == 1, rng.integers(0, 8, 32), -1)
    gfeats = rng.standard_normal((32, 16))
    params = enc.init_params(enc.EncoderConfig(channels_in=16, embed_dim=16, blocks=1), 0)
    heads = pretrain.init_heads(16, 8, "tsp", 0)
    tape = ad.Tape()
    pretrain.batch_loss_tensor(tape, params, heads, frames, region, action, gfeats,
                               pretrain.TrainConfig(mode="tsp"))
    enc_grad, _ = tape.backward()
    # the encoder's gradient arrays, each the view of its place in the flat gradient
    assert digest(params.view(enc_grad).arrays()) == GOLDEN_TRAIN_STEP_GRADS_DIGEST
