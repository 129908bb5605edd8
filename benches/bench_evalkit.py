"""Microbenchmark of proposal AR/AUC at the scale of one evaluated checkpoint.

The instance is fixed and seeded: 40 videos, each with 1-4 ground-truth
instances and 1-100 proposals, half of them jittered copies of a GT so that
many pairs overlap above the tIoU grid. The test suite does not collect this
file (it does not match ``test_*.py``); run it from the repository root with
pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_evalkit.py -o python_files='bench_*.py'
"""

import numpy as np
import pytest

from tspkit import evalkit as ev


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
