"""Microbenchmarks of frame synthesis and gathering on the default corpus.

Each synthesis round builds a fresh ``Corpus`` from the manifest of
``generate_synthetic(SynthConfig(), seed=0)``, so every round starts from an
unfilled frame store. Two cases time the two ways frames are synthesized over
the valid split:

* ``split_frames``: the valid split's whole frame store (40 videos, about
  37k frames), as training, validation and global features fill it;
* ``frames_at``: only the frames the default dense clips read (clip_len 16,
  frame_stride 2, hop 31, about half of them), as ``extract_track`` reads them.

Two cases time ``seeding.normal_rows``, the frame-noise draw inside both, on
its own, with the frame-noise key of each video:

* one valid video's dense-clip rows (the distinct rows ``frames_at`` draws
  for it, about 470);
* every row of the valid split, one call per video, as ``split_frames``
  draws them.

Two cases time training's clip sampling and batch gather:

* ``build_epoch``: epoch 0 of the default corpus's train split (jittered
  centers, the balancing subsample and the epoch order), as ``train`` builds
  each epoch before its grid cells run;
* the gather of one bench-shape training step: the first 32 clips (L 16) of
  epoch 0, a slice of its ``ClipSet``, taken from the filled train store with
  one ``take`` of their rows.

The test suite does not collect this file (it does not match ``test_*.py``);
run it from the repository root with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_corpus.py -o python_files='bench_*.py'
"""

import numpy as np
import pytest

from tspkit import corpus as cp
from tspkit.sampler import build_epoch, clip_frame_indices, clip_span
from tspkit.seeding import normal_rows

CLIP_LEN, FRAME_STRIDE, BATCH = 16, 2, 32


@pytest.fixture(scope="module")
def manifest():
    return cp.corpus_to_dict(cp.generate_synthetic(cp.SynthConfig(), seed=0))


def synthesize_valid(manifest) -> int:
    return len(cp.corpus_from_dict(manifest).split_frames("valid"))


def test_split_frames_valid_split(benchmark, manifest):
    frames = benchmark.pedantic(synthesize_valid, args=(manifest,), rounds=5, iterations=1)
    assert frames > 30_000


def dense_clip_indices(video) -> np.ndarray:
    centers = np.arange(0, video.num_frames, clip_span(CLIP_LEN, FRAME_STRIDE))[:, None]
    return clip_frame_indices(centers, CLIP_LEN, FRAME_STRIDE, video.num_frames)


def gather_valid_dense_clips(manifest) -> int:
    corpus = cp.corpus_from_dict(manifest)
    frames = 0
    for video in corpus.subset_videos("valid"):
        frames += corpus.frames_at(video, dense_clip_indices(video)).shape[0] * CLIP_LEN
    return frames


def test_frames_at_valid_dense_clips(benchmark, manifest):
    frames = benchmark.pedantic(gather_valid_dense_clips, args=(manifest,), rounds=5,
                                iterations=1)
    assert frames > 15_000


def test_normal_rows_one_video_dense_clip_rows(benchmark, manifest):
    corpus = cp.corpus_from_dict(manifest)
    video = corpus.subset_videos("valid")[0]
    rows = np.unique(dense_clip_indices(video))
    noise = benchmark(normal_rows, video.frame_seed, "frame-noise", rows=rows,
                      dim=corpus.synth.frame_dim)
    assert noise.shape == (len(rows), corpus.synth.frame_dim) and len(rows) > 300


def draw_valid_split_noise(corpus) -> int:
    return sum(len(normal_rows(video.frame_seed, "frame-noise", rows=np.arange(video.num_frames),
                               dim=corpus.synth.frame_dim))
               for video in corpus.subset_videos("valid"))


def test_normal_rows_valid_split_rows(benchmark, manifest):
    corpus = cp.corpus_from_dict(manifest)
    rows = benchmark.pedantic(draw_valid_split_noise, args=(corpus,), rounds=5, iterations=1)
    assert rows == sum(video.num_frames for video in corpus.subset_videos("valid"))


def test_build_epoch_train_split(benchmark, manifest):
    corpus = cp.corpus_from_dict(manifest)
    epoch = benchmark(build_epoch, corpus, "train", 0, seed=0, clip_len=CLIP_LEN,
                      frame_stride=FRAME_STRIDE)
    assert len(epoch) > 1_000 and 2 * epoch.region_labels.sum() == len(epoch)


def test_take_training_batch_from_train_store(benchmark, manifest):
    corpus = cp.corpus_from_dict(manifest)
    store = corpus.split_frames("train")
    batch = build_epoch(corpus, "train", 0, seed=0, clip_len=CLIP_LEN,
                        frame_stride=FRAME_STRIDE)[:BATCH]
    frames = benchmark(store.take, batch.rows, axis=0)
    assert frames.shape == (BATCH, CLIP_LEN, corpus.synth.frame_dim)
