"""Microbenchmark of the clip encoder at the shapes of one bench seed.

The encoder is the study's width (``bench.default_bench_train_config``:
embed 16, one block) on the default corpus's 16-channel frames and 16-frame
clips. One training step is a tsp-mode forward and backward of a 32-clip
batch through the two-head loss: ``batch_loss_tensor`` records the encoder's
and the loss's backward, and ``Tape.backward`` sweeps them. The encoder
backward alone is the sweep of a tape holding only ``encoder.forward_batch``
of the same batch, from a seeded features' gradient; each round records its
taped forward untimed. One validation pass is ``pretrain.clip_features`` over
1,180 clips, about the size of the default corpus's valid clip set (1,205
clips at corpus seed 0): the inference forward that ``_accuracy`` runs, in
chunks of at most ``VALIDATION_CHUNK`` clips, each taken from a frame store
the size of the valid split (about 37k frames). Inputs are seeded normals, in
the encoder's time-major (B, L, frame_dim) layout or as rows of such a store.
tspkit is imported before numpy, so BLAS runs on one thread as it does in the
study's workers. The test suite does not collect this file (it does not match
``test_*.py``); run it from the repository root with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_encoder.py -o python_files='bench_*.py'
"""

import tspkit  # noqa: F401  (before numpy: it sets the BLAS thread count)

import numpy as np
import pytest

from tspkit import autodiff as ad
from tspkit import bench
from tspkit import encoder as enc
from tspkit import pretrain as pt

CLIP_LEN = 16
FRAME_DIM = 16
NUM_CLASSES = 8
VALID_CLIPS = 1180
VALID_FRAMES = 37_000


@pytest.fixture(scope="module")
def params():
    cfg = bench.default_bench_train_config()
    enc_cfg = enc.EncoderConfig(channels_in=FRAME_DIM, embed_dim=cfg.embed_dim,
                                blocks=cfg.blocks)
    return enc.init_params(enc_cfg, seed=0), pt.init_heads(cfg.embed_dim, NUM_CLASSES,
                                                           "tsp", seed=0)


def train_step(enc_params, heads, frames, region, action, gfeats):
    tape = ad.Tape()
    pt.batch_loss_tensor(tape, enc_params, heads, frames, region, action, gfeats,
                         pt.TrainConfig(mode="tsp"))
    return tape.backward()


def batch_frames(rng):
    batch = bench.default_bench_train_config().batch_size
    return np.abs(rng.standard_normal((batch, CLIP_LEN, FRAME_DIM)))


def test_training_step_batch_32(benchmark, params):
    rng = np.random.default_rng(0)
    frames = batch_frames(rng)
    batch = len(frames)
    region = np.arange(batch) % 2
    action = np.where(region == 1, rng.integers(0, NUM_CLASSES, batch), -1)
    gfeats = rng.standard_normal((batch, params[0].stem_bias.size))
    grads = benchmark(train_step, *params, frames, region, action, gfeats)
    assert [g.size for g in grads] == [params[0].flat.size, params[1].flat.size]


def test_encoder_backward_batch_32(benchmark, params):
    rng = np.random.default_rng(2)
    frames = batch_frames(rng)
    g = rng.standard_normal((len(frames), params[0].stem_bias.size))

    def taped_forward():
        tape = ad.Tape()
        enc.forward_batch(params[0], frames, tape)
        return (tape, g), {}

    grads = benchmark.pedantic(ad.Tape.backward, setup=taped_forward, rounds=2000)
    assert [grad.size for grad in grads] == [params[0].flat.size]


def test_validation_forward_1180_clips(benchmark, params):
    rng = np.random.default_rng(1)
    store = np.abs(rng.standard_normal((VALID_FRAMES, FRAME_DIM)))
    rows = rng.integers(0, VALID_FRAMES, (VALID_CLIPS, CLIP_LEN))
    feats = benchmark(pt.clip_features, params[0], store, rows)
    assert feats.shape == (VALID_CLIPS, params[0].stem_bias.size)
