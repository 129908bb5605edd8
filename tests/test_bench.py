"""The study's threading model: worker processes, one BLAS thread each."""

import os
import subprocess
import sys
from pathlib import Path

import tspkit
from tspkit import bench
from tspkit import corpus as cp
from tspkit import pretrain as pt

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


def write_tables(workers: str, out: Path, monkeypatch) -> dict[str, bytes]:
    monkeypatch.setenv("TSPKIT_THREADS", workers)
    corpus = cp.generate_synthetic(cp.SynthConfig(videos_per_subset=(6, 3, 0),
                                                  duration_range=(60.0, 120.0),
                                                  num_classes=3), seed=0)
    train = pt.TrainConfig(embed_dim=8, blocks=1, epochs=2, warmup_epochs=1,
                           decay_epochs=(), head_lr_grid=(0.004,))
    table, per_seed = bench.run_bench(corpus, bench.BenchConfig(seeds=(0, 1), train=train))
    out.mkdir()
    bench.write_bench_table(table, out / "bench_table.tsv", flags_comment="f")
    bench.write_cell_tables(per_seed, out, flags_comment="f")
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_bench_tables_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    serial = write_tables("1", tmp_path / "serial", monkeypatch)
    pooled = write_tables("2", tmp_path / "pooled", monkeypatch)
    assert sorted(serial) == ["bench_table.tsv", "cell_seed0.tsv", "cell_seed1.tsv"]
    assert serial == pooled
