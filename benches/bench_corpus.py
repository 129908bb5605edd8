"""Microbenchmarks of frame synthesis over the default corpus's valid split.

Each round builds a fresh ``Corpus`` from the manifest of
``generate_synthetic(SynthConfig(), seed=0)``, so every round starts from a
cold cache. Two cases time the two ways frames are synthesized:

* ``video_frames``: every valid video's whole frame array (40 videos, about
  37k frames), as training, validation and global features read them;
* ``frames_at``: only the frames the default dense clips read (clip_len 16,
  frame_stride 2, hop 31, about half of them), as ``extract_track`` reads them.

The test suite does not collect this file (it does not match ``test_*.py``);
run it from the repository root with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_corpus.py -o python_files='bench_*.py'
"""

import numpy as np
import pytest

from tspkit import corpus as cp
from tspkit.sampler import clip_frame_indices, clip_span

CLIP_LEN, FRAME_STRIDE = 16, 2


@pytest.fixture(scope="module")
def manifest():
    return cp.corpus_to_dict(cp.generate_synthetic(cp.SynthConfig(), seed=0))


def synthesize_valid(manifest) -> int:
    corpus = cp.corpus_from_dict(manifest)
    return sum(len(corpus.video_frames(v)) for v in corpus.subset_videos("valid"))


def test_video_frames_valid_split(benchmark, manifest):
    frames = benchmark.pedantic(synthesize_valid, args=(manifest,), rounds=5, iterations=1)
    assert frames > 30_000


def gather_valid_dense_clips(manifest) -> int:
    corpus = cp.corpus_from_dict(manifest)
    hop = clip_span(CLIP_LEN, FRAME_STRIDE)
    frames = 0
    for video in corpus.subset_videos("valid"):
        centers = np.arange(0, video.num_frames, hop)[:, None]
        indices = clip_frame_indices(centers, CLIP_LEN, FRAME_STRIDE, video.num_frames)
        frames += corpus.frames_at(video, indices).shape[0] * CLIP_LEN
    return frames


def test_frames_at_valid_dense_clips(benchmark, manifest):
    frames = benchmark.pedantic(gather_valid_dense_clips, args=(manifest,), rounds=5,
                                iterations=1)
    assert frames > 15_000
