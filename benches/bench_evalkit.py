"""Microbenchmarks of detection mAP, DETAD, proposal AR/AUC, the baseline
localizer and the predictions writer, and of reading the files that
evaluation reads, at the scale of one evaluated checkpoint.

The AR instance is fixed and seeded: 40 videos, each with 1-4 ground-truth
instances and 1-100 proposals, half of them jittered copies of a GT so that
many pairs overlap above the tIoU grid. The evaluation instance has the sizes
of one checkpoint in the ``evaluate`` workload: the 40 valid videos of the
default synthetic corpus (seed 0) and their ground truth, and one seeded
track per video on the default clip grid, whose region scores and logits are
noisy copies of the ground truth. ``baseline_localize`` (region actionness,
default settings) over the 40 tracks gives about 580 detections and 580
proposals, which ``map_curve``, ``detad_report`` and ``save_predictions`` (both
files, with an invocation) are timed on. The decoding cases read a seeded
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
from tspkit import corpus as corpus_mod
from tspkit import encoder as enc
from tspkit import evalkit as ev
from tspkit import pretrain as pt
from tspkit.extract import FeatureTrack
from tspkit.sampler import clip_span


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


def noisy_track(video, class_of, rng, clip_len=16, frame_stride=2):
    """A track on the default clip grid whose region scores are high inside a
    GT and whose logits favour the GT's class, both with noise."""
    span = clip_span(clip_len, frame_stride)
    centers = np.arange(span // 2, video.num_frames - span // 2, span)
    times = centers / video.fps
    inside = np.zeros(len(times), dtype=bool)
    logits = rng.normal(0.0, 1.0, size=(len(times), len(class_of)))
    for ann in video.annotations:
        hit = (times >= ann.t_start) & (times <= ann.t_end)
        inside |= hit
        logits[hit, class_of[ann.label]] += 2.0
    region = np.clip(np.where(inside, 0.8, 0.15) + rng.normal(0.0, 0.1, len(times)), 0.0, 1.0)
    return FeatureTrack(
        video_id=video.id, clip_len=clip_len, frame_stride=frame_stride, hop_frames=span,
        fps=video.fps, num_frames=video.num_frames, checkpoint_id="bench",
        global_feature=np.zeros(0), center_times=times, features=np.zeros((len(times), 1)),
        region_probs=region, action_logits=logits)


@pytest.fixture(scope="module")
def evaluation():
    """The ground truth, tracks and localizer output of one evaluated checkpoint."""
    corpus = corpus_mod.generate_synthetic(corpus_mod.SynthConfig(), 0)
    class_of = {label: corpus.class_index(label) for label in corpus.classes}
    rng = np.random.default_rng(0)
    tracks = [noisy_track(video, class_of, rng) for video in corpus.subset_videos("valid")]
    out = [ev.baseline_localize(track, ev.LocalizerParams()) for track in tracks]
    return {"gts": ev.ground_truth_from_corpus(corpus, "valid"), "tracks": tracks,
            "detections": {t.video_id: dets for t, (dets, _) in zip(tracks, out)},
            "proposals": {t.video_id: props for t, (_, props) in zip(tracks, out)}}


def test_baseline_localize_40_tracks(benchmark, evaluation):
    params = ev.LocalizerParams()
    out = benchmark(lambda: [ev.baseline_localize(t, params) for t in evaluation["tracks"]])
    assert 400 <= sum(len(dets) for dets, _ in out) <= 800


def test_map_curve(benchmark, evaluation):
    dets = [d for rows in evaluation["detections"].values() for d in rows]
    curve = benchmark(ev.map_curve, dets, evaluation["gts"])
    assert len(curve) == len(ev.TIOU_GRID)


def test_detad_report(benchmark, evaluation):
    dets = [d for rows in evaluation["detections"].values() for d in rows]
    report = benchmark(ev.detad_report, dets, evaluation["gts"])
    assert list(report) == list(ev.DETAD_BUCKETS)


def test_save_predictions_both_files(benchmark, evaluation, tmp_path):
    def save_both():
        ev.save_predictions(evaluation["detections"], tmp_path / "detections.json",
                            invocation="localize")
        ev.save_predictions(evaluation["proposals"], tmp_path / "proposals.json",
                            invocation="localize")

    benchmark(save_both)
    assert len(ev.load_predictions(tmp_path / "proposals.json", "proposals")) == sum(
        map(len, evaluation["proposals"].values()))


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
