"""Microbenchmark of one ``tspkit extract`` call, its videos in 1 or 2 workers.

The call writes the tracks of the valid split (12 videos of 120-360 s, the
default durations, 4 classes) of a small seeded corpus, under a checkpoint of the study's encoder
width (``bench.default_bench_train_config``: embed 16, one block) taken at
its random initialization (no epochs), so the timing covers what every
``extract`` call does: loading the manifest and the checkpoint, synthesizing
each video's frames from a cold corpus, the forward passes and the track
files. ``TSPKIT_THREADS`` caps the workers. tspkit is imported before numpy,
so BLAS runs on one thread per process. The test suite does not collect this
file (it does not match ``test_*.py``); run it from the repository root with
pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_extract.py -o python_files='bench_*.py'
"""

import tspkit  # noqa: F401  (before numpy: it sets the BLAS thread count)

import contextlib
import io
from dataclasses import replace

import pytest

from tspkit import bench, cli
from tspkit import corpus as cp
from tspkit import pretrain as pt


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("extract")
    corpus = cp.generate_synthetic(cp.SynthConfig(videos_per_subset=(4, 12, 0),
                                                  num_classes=4), seed=0)
    cp.save_manifest(corpus, root / "corpus.json")
    cfg = replace(bench.default_bench_train_config(), epochs=0, warmup_epochs=0,
                  decay_epochs=(), head_lr_grid=(0.004,), init="random")
    pt.save_checkpoint(pt.train(corpus, cfg)[0], root / "tsp.json")
    return root


@pytest.mark.parametrize("workers", ["1", "2"])
def test_extract_valid_split(benchmark, inputs, workers, monkeypatch):
    monkeypatch.setenv("TSPKIT_THREADS", workers)
    argv = ["extract", "--manifest", str(inputs / "corpus.json"),
            "--checkpoint", str(inputs / "tsp.json"), "--out-dir", str(inputs / "tracks")]

    def extract():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    assert benchmark.pedantic(extract, rounds=5, iterations=1) == 0
    assert len(list((inputs / "tracks").glob("*.csv"))) == 12
