"""Microbenchmarks of training: one step, and one grid-searched ``train`` call.

``test_training_step`` times one ``pretrain.train_step`` at the shapes of a
bench seed's tsp cells: a 32-clip batch of 16-frame clips taken from a frame
store the size of the default corpus's train split (about 75k frames of 16
values), its GVF rows taken from a 120-video matrix, the encoder and loss ops,
the backward sweep and the momentum update of both parameter records. The
inputs are seeded normals; at the bench learning rates the step count of a
timing run does not make them diverge.

``test_train_five_cells`` times a ``train`` call, its cells in 1 or 2 workers.
The run is the study's encoder width (``bench.default_bench_train_config``:
embed 16, one block) with its five-cell head-lr grid, cut to two epochs, on a
small seeded corpus (12 train and 6 valid videos of 60-120 s, 4 classes). It
starts from a given random encoder, so the timing covers the shared inputs
(epochs, validation clips, GVF table) and the grid cells, not a warm start.
``TSPKIT_THREADS`` caps the cell workers; 2 workers take three rounds for five
cells. tspkit is imported before numpy, so BLAS runs on one thread per
process. The test suite does not collect this file (it does not match
``test_*.py``); run it from the repository root with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_train.py -o python_files='bench_*.py'
"""

import tspkit  # noqa: F401  (before numpy: it sets the BLAS thread count)

from dataclasses import replace

import numpy as np
import pytest

from tspkit import bench
from tspkit import corpus as cp
from tspkit import encoder as enc
from tspkit import pretrain as pt
from tspkit.sampler import ClipSet


CLIP_LEN = 16
FRAME_DIM = 16
NUM_CLASSES = 8
TRAIN_FRAMES = 75_000
VIDEOS = 120


def test_training_step(benchmark):
    cfg = bench.default_bench_train_config()
    rng = np.random.default_rng(0)
    store = np.abs(rng.standard_normal((TRAIN_FRAMES, FRAME_DIM)))
    gvf = rng.standard_normal((VIDEOS, cfg.embed_dim))
    region = np.arange(cfg.batch_size) % 2
    batch = ClipSet(
        rows=rng.integers(0, TRAIN_FRAMES, (cfg.batch_size, CLIP_LEN)), region_labels=region,
        action_labels=np.where(region == 1, rng.integers(0, NUM_CLASSES, cfg.batch_size), -1),
        videos=rng.integers(0, VIDEOS, cfg.batch_size))
    groups = (enc.init_params(enc.EncoderConfig(channels_in=FRAME_DIM, embed_dim=cfg.embed_dim,
                                                blocks=cfg.blocks), 0),
              pt.init_heads(cfg.embed_dim, NUM_CLASSES, "tsp", 0))
    velocity = tuple(np.zeros_like(params.flat) for params in groups)
    rates = [cfg.encoder_lr, cfg.head_lr_grid[0]]
    loss = benchmark(pt.train_step, cfg, store, gvf, batch, groups, velocity, rates)
    assert np.isfinite(loss) and velocity[0].any()


@pytest.fixture(scope="module")
def corpus():
    return cp.generate_synthetic(cp.SynthConfig(videos_per_subset=(12, 6, 0),
                                                duration_range=(60.0, 120.0),
                                                num_classes=4), seed=0)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_train_five_cells(benchmark, corpus, workers, monkeypatch):
    monkeypatch.setenv("TSPKIT_THREADS", workers)
    cfg = replace(bench.default_bench_train_config(), epochs=2, warmup_epochs=1,
                  decay_epochs=())
    init = enc.init_params(pt.encoder_config_for(corpus.synth.frame_shape, cfg), cfg.seed)
    ckpt, rows = benchmark.pedantic(pt.train, args=(corpus, cfg, init), rounds=3,
                                    iterations=1)
    assert len(rows) == len(cfg.head_lr_grid) * cfg.epochs
    assert ckpt.selection.head_lr in cfg.head_lr_grid
