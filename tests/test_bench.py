"""The threading model: seed and grid-cell worker processes, one BLAS thread each."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tspkit
from tspkit import bench
from tspkit import corpus as cp
from tspkit import extract as ex
from tspkit import pretrain as pt
from tspkit import workers

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads_after_import(**preset) -> str:
    """OPENBLAS_NUM_THREADS as a fresh interpreter sees it after ``import tspkit``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    env["PYTHONPATH"] = str(Path(tspkit.__file__).resolve().parent.parent)
    code = "import os, tspkit; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def test_import_caps_blas_at_one_thread_unless_set():
    assert blas_threads_after_import() == "1"
    assert blas_threads_after_import(OPENBLAS_NUM_THREADS="2") == "2"


# five 512 KB temporaries freed together, 50 times, as a validation chunk's
# activations are: with glibc's adaptive thresholds each round unmaps or trims
# them and faults them back in (about 24k faults in all)
CHURN = """
import resource
import tspkit
import numpy as np

def churn():
    blocks = [np.ones(2**16) for _ in range(5)]
    del blocks

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="the malloc thresholds are glibc's")
def test_import_keeps_freed_temporaries_in_the_heap_unless_malloc_is_tuned():
    env = {k: v for k, v in os.environ.items()
           if k not in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")}
    env["PYTHONPATH"] = str(Path(tspkit.__file__).resolve().parent.parent)

    def faults(**preset):
        return int(subprocess.run([sys.executable, "-c", CHURN], env={**env, **preset},
                                  capture_output=True, text=True, check=True).stdout)

    assert faults() < 1000
    assert faults(MALLOC_TRIM_THRESHOLD_="0") > 10_000  # the environment's choice stands


def write_tables(workers: str, out: Path, monkeypatch, seeds: tuple[int, ...],
                 head_lr_grid: tuple[float, ...]) -> dict[str, bytes]:
    monkeypatch.setenv("TSPKIT_THREADS", workers)
    corpus = cp.generate_synthetic(cp.SynthConfig(videos_per_subset=(6, 3, 0),
                                                  duration_range=(60.0, 120.0),
                                                  num_classes=3), seed=0)
    train = pt.TrainConfig(embed_dim=8, blocks=1, epochs=2, warmup_epochs=1,
                           decay_epochs=(), head_lr_grid=head_lr_grid)
    table, per_seed = bench.run_bench(corpus, bench.BenchConfig(seeds=seeds, train=train))
    out.mkdir()
    bench.write_bench_table(table, out / "bench_table.tsv", flags_comment="f")
    bench.write_cell_tables(per_seed, out, flags_comment="f")
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


# two seeds take the workers and train their cells serially; one seed runs in
# this process, so its grid cells take the workers
@pytest.mark.parametrize("seeds,head_lr_grid", [((0, 1), (0.004,)),
                                                ((0,), (0.002, 0.004, 0.006))],
                         ids=["two_seeds", "one_seed_three_cells"])
def test_bench_tables_do_not_depend_on_worker_count(seeds, head_lr_grid, tmp_path,
                                                    monkeypatch):
    serial = write_tables("1", tmp_path / "serial", monkeypatch, seeds, head_lr_grid)
    pooled = write_tables("2", tmp_path / "pooled", monkeypatch, seeds, head_lr_grid)
    assert sorted(serial) == ["bench_table.tsv", *(f"cell_seed{s}.tsv" for s in seeds)]
    assert serial == pooled


@pytest.mark.parametrize("hop", [0, -31])
def test_bench_config_rejects_a_hop_below_one(hop):
    with pytest.raises(ValueError, match="hop must be positive"):
        bench.BenchConfig(hop=hop)


@pytest.mark.parametrize("hop", [None, 8])
def test_evaluate_checkpoint_computes_each_valid_videos_gvf_once(hop, monkeypatch):
    corpus = cp.generate_synthetic(cp.SynthConfig(videos_per_subset=(2, 3, 0),
                                                  duration_range=(30.0, 60.0),
                                                  num_classes=3), seed=0)
    cfg = pt.TrainConfig(mode="tsp", epochs=0, warmup_epochs=0, head_lr_grid=(0.004,),
                         embed_dim=8, blocks=1, init="random")
    ckpt, _ = pt.train(corpus, cfg)
    calls, gvf = [], pt.video_global_feature

    def counted(corpus, video, *rest):
        calls.append(video.id)
        return gvf(corpus, video, *rest)

    monkeypatch.setattr(pt, "video_global_feature", counted)
    monkeypatch.setattr(ex, "video_global_feature", counted)
    metrics = bench.evaluate_checkpoint(corpus, ckpt, bench.BenchConfig(hop=hop, train=cfg))
    assert sorted(calls) == sorted(video.id for video in corpus.subset_videos("valid"))
    monkeypatch.undo()
    assert metrics["region_acc"] == pt.validate(ckpt, corpus, "valid")["region_acc"]


def test_worker_count_is_one_inside_a_forked_worker(monkeypatch):
    monkeypatch.setenv("TSPKIT_THREADS", "2")
    assert bench.worker_count is workers.worker_count
    assert workers.worker_count(5) == 2
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(workers.worker_count, (5,)).get(timeout=60) == 1


def test_worker_count_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("TSPKIT_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert workers.worker_count(5) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert (workers.worker_count(5), workers.worker_count(2)) == (3, 2)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert workers.worker_count(5) == 5
    monkeypatch.setenv("TSPKIT_THREADS", "1")
    assert workers.worker_count(5) == 1
