"""Train the evaluate workload's checkpoints the way ``bench.run_seed`` does.

One tac base from random init, then each mode from that base, all on SEED;
each checkpoint is written to OUT_DIR/<mode>.json. The evaluate workload runs
this as a child process, so its own peak memory is that of the timed runs:

    python3 perfbench/train_checkpoints.py MANIFEST SEED OUT_DIR
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import MODES  # noqa: E402
from tspkit import bench, corpus, pretrain  # noqa: E402


def main(manifest: Path, seed: int, out_dir: Path) -> None:
    data = corpus.load_manifest(manifest)
    train_cfg = bench.default_bench_train_config()
    base, _ = pretrain.train(data, replace(train_cfg, seed=seed, mode="tac", init="random"))
    for mode in MODES:
        ckpt, _ = pretrain.train(data, replace(train_cfg, seed=seed, mode=mode),
                                 init_encoder=base.encoder)
        pretrain.save_checkpoint(ckpt, out_dir / f"{mode}.json")


if __name__ == "__main__":
    main(Path(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3]))
