"""Microbenchmarks of proposal AR/AUC, and of reading the files that
evaluation reads, at the scale of one evaluated checkpoint.

The AR instance is fixed and seeded: 40 videos, each with 1-4 ground-truth
instances and 1-100 proposals, half of them jittered copies of a GT so that
many pairs overlap above the tIoU grid. The decoding cases read a seeded
detections file of 40 videos x 100 rows with ``load_predictions``, and with
``load_checkpoint`` two checkpoints of 16 channels and 8 classes, 40 log
rows each: one of the study's shape (``bench.default_bench_train_config``:
embed 16, one block) and one of the default width (``TrainConfig()``, what
``tspkit pretrain`` trains by default: embed 64, two blocks), the larger
encoder whose shapes the loader checks. The test suite does not collect this
file (it does not match ``test_*.py``); run it from the repository root with
pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_evalkit.py -o python_files='bench_*.py'
"""

import numpy as np
import pytest

from tspkit import bench
from tspkit import encoder as enc
from tspkit import evalkit as ev
from tspkit import pretrain as pt


def make_instance(seed: int = 0, videos: int = 40):
    rng = np.random.default_rng(seed)
    props: list[ev.ProposalPrediction] = []
    gts: list[ev.GroundTruthInstance] = []
    for v in range(videos):
        video_id = f"v{v:02d}"
        duration = float(rng.uniform(120.0, 360.0))
        video_gts = []
        for _ in range(rng.integers(1, 5)):
            t0 = float(rng.uniform(0.0, duration - 10.0))
            t1 = t0 + float(rng.uniform(2.0, min(120.0, duration - t0)))
            video_gts.append(ev.GroundTruthInstance(video_id, 0, t0, t1))
        for _ in range(rng.integers(1, 101)):
            if rng.random() < 0.5:
                g = video_gts[rng.integers(len(video_gts))]
                jitter = rng.normal(0.0, 0.15 * g.length, size=2)
                t0 = max(0.0, g.t_start + float(jitter[0]))
                t1 = max(t0, g.t_end + float(jitter[1]))
            else:
                t0 = float(rng.uniform(0.0, duration - 1.0))
                t1 = t0 + float(rng.uniform(1.0, duration - t0))
            props.append(ev.ProposalPrediction(video_id, t0, t1, float(rng.random())))
        gts += video_gts
    return props, gts


@pytest.fixture(scope="module")
def instance():
    return make_instance()


def test_auc_100(benchmark, instance):
    auc = benchmark(ev.auc_100, *instance)
    assert 0.0 < auc <= 100.0


def test_ar_at_an_1_10_100(benchmark, instance):
    curve = benchmark(ev.ar_at_an, *instance, (1, 10, 100))
    assert [budget for budget, _ in curve] == [1, 10, 100]


@pytest.fixture(scope="module")
def detections_file(tmp_path_factory):
    rng = np.random.default_rng(0)
    preds = {}
    for v in range(40):
        video_id = f"v{v:02d}"
        starts = rng.uniform(0.0, 300.0, size=100)
        ends = starts + rng.uniform(1.0, 60.0, size=100)
        preds[video_id] = [ev.DetectionPrediction(video_id, int(label), float(t0), float(t1),
                                                  float(score))
                           for label, t0, t1, score in zip(rng.integers(0, 8, size=100),
                                                           starts, ends, rng.random(100))]
    path = tmp_path_factory.mktemp("decode") / "detections.json"
    ev.save_predictions(preds, path, invocation="localize")
    return path


def test_load_predictions_4000_detections(benchmark, detections_file):
    preds = benchmark(ev.load_predictions, detections_file, kind="detections")
    assert len(preds) == 4000


def checkpoint_file(tmp_path_factory, cfg: pt.TrainConfig):
    """A tsp checkpoint of ``cfg``'s shape, with as many log rows as it trains."""
    rng = np.random.default_rng(0)
    encoder = enc.init_params(enc.EncoderConfig(16, 1, 1, cfg.embed_dim, cfg.blocks), seed=0)
    rows = [pt.TrainLogRow(epoch, lr, float(rng.random()), float(rng.random()),
                           float(rng.random()), 1.0)
            for lr in cfg.head_lr_grid for epoch in range(cfg.epochs)]
    ckpt = pt.Checkpoint(
        config=cfg, frame_shape=(16, 1, 1), encoder=encoder,
        heads=pt.init_heads(cfg.embed_dim, 8, "tsp", seed=0), init_encoder=encoder.copy(),
        selection=pt.SelectionRecord(rows[0].head_lr, 0, rows[0].action_acc, rows))
    path = tmp_path_factory.mktemp("decode") / "checkpoint.json"
    pt.save_checkpoint(ckpt, path, invocation="pretrain")
    return path, ckpt.checkpoint_id


def test_load_checkpoint_bench_shape(benchmark, tmp_path_factory):
    path, checkpoint_id = checkpoint_file(tmp_path_factory, bench.default_bench_train_config())
    ckpt = benchmark(pt.load_checkpoint, path)
    assert ckpt.checkpoint_id == checkpoint_id


def test_load_checkpoint_default_width(benchmark, tmp_path_factory):
    path, checkpoint_id = checkpoint_file(tmp_path_factory, pt.TrainConfig())
    ckpt = benchmark(pt.load_checkpoint, path)
    assert ckpt.checkpoint_id == checkpoint_id
