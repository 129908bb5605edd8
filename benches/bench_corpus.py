"""Microbenchmark of frame synthesis over the default corpus's valid split.

Each round builds a fresh ``Corpus`` from the manifest of
``generate_synthetic(SynthConfig(), seed=0)``, so every round synthesizes
every valid video's frames from a cold cache (40 videos, about 37k frames).
The test suite does not collect this file (it does not match ``test_*.py``);
run it from the repository root with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_corpus.py -o python_files='bench_*.py'
"""

import pytest

from tspkit import corpus as cp


@pytest.fixture(scope="module")
def manifest():
    return cp.corpus_to_dict(cp.generate_synthetic(cp.SynthConfig(), seed=0))


def synthesize_valid(manifest) -> int:
    corpus = cp.corpus_from_dict(manifest)
    return sum(len(corpus.video_frames(v)) for v in corpus.subset_videos("valid"))


def test_video_frames_valid_split(benchmark, manifest):
    frames = benchmark.pedantic(synthesize_valid, args=(manifest,), rounds=5, iterations=1)
    assert frames > 30_000
