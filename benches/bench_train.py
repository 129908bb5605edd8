"""Microbenchmark of one grid-searched ``train`` call, its cells in 1 or 2 workers.

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

import pytest

from tspkit import bench
from tspkit import corpus as cp
from tspkit import encoder as enc
from tspkit import pretrain as pt


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
    init = enc.init_params(pt.encoder_config_for(corpus, cfg), cfg.seed)
    ckpt, rows = benchmark.pedantic(pt.train, args=(corpus, cfg, init), rounds=3,
                                    iterations=1)
    assert len(rows) == len(cfg.head_lr_grid) * cfg.epochs
    assert ckpt.selection.head_lr in cfg.head_lr_grid
