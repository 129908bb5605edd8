"""Multi-seed, multi-mode comparison of the pretraining strategies.

For each seed, one classification-only base run provides the shared encoder
initialization; each requested mode is then trained from it, its checkpoint is
run over the evaluation split, and the baseline localizer turns the tracks
into detections and proposals. Per-mode metrics are aggregated as mean and
sample std over seeds. Seeds are independent, so they may run in worker
processes; results are merged by sorted seed and are identical either way.

Threading: see ``workers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import AggregateStat, aggregate_runs, contrast_stats
from .corpus import Corpus
from .evalkit import (LocalizerParams, auc_100, average_map, baseline_localize,
                      ground_truth_from_corpus)
from .extract import extract_track
from .pretrain import TrainConfig, train, validate
from .workers import fork_map, worker_count  # noqa: F401  (bench.worker_count is public)

BENCH_METRICS = ("average_map", "auc", "region_acc", "contrast")


def default_bench_train_config() -> TrainConfig:
    """Desk-scale encoder for the study grid; everything else at defaults."""
    return TrainConfig(embed_dim=16, blocks=1)


@dataclass(frozen=True)
class BenchConfig:
    modes: tuple[str, ...] = ("tsp", "tsp_nogvf", "tac")
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    eval_split: str = "valid"
    hop: int | None = None
    localizer: LocalizerParams = field(default_factory=LocalizerParams)
    train: TrainConfig = field(default_factory=default_bench_train_config)

    def validate(self) -> None:
        if len(set(self.seeds)) != len(self.seeds) or not self.seeds:
            raise ValueError("seeds must be distinct and nonempty")
        if not self.modes:
            raise ValueError("at least one mode required")


def evaluate_checkpoint(corpus: Corpus, ckpt, bench_cfg: BenchConfig) -> dict[str, float]:
    """Localization + similarity metrics of one checkpoint on the eval split."""
    actionness = "max_prob" if ckpt.mode == "tac" else "region"
    detections = []
    proposals = []
    contrasts = []
    for video in corpus.subset_videos(bench_cfg.eval_split):
        track = extract_track(corpus, video, ckpt, hop=bench_cfg.hop)
        dets, props = baseline_localize(track, bench_cfg.localizer, actionness)
        detections.extend(dets)
        proposals.extend(props)
        contrast = contrast_stats(track, video).contrast
        if contrast is not None:
            contrasts.append(contrast)
    gts = ground_truth_from_corpus(corpus, bench_cfg.eval_split)
    metrics = {
        "average_map": average_map(detections, gts),
        "auc": auc_100(proposals, gts),
        "contrast": float(np.mean(contrasts)) if contrasts else 0.0,
    }
    accs = validate(ckpt, corpus, bench_cfg.eval_split)
    if accs["region_acc"] is not None:
        metrics["region_acc"] = accs["region_acc"]
    return metrics


def run_seed(corpus: Corpus, bench_cfg: BenchConfig, seed: int) -> dict[str, dict[str, float]]:
    """All requested modes for one seed, sharing one base initialization."""
    base_cfg = replace(bench_cfg.train, seed=seed, mode="tac", init="random")
    base_ckpt, _ = train(corpus, base_cfg)
    out = {}
    for mode in bench_cfg.modes:
        cfg = replace(bench_cfg.train, seed=seed, mode=mode)
        ckpt, _ = train(corpus, cfg, init_encoder=base_ckpt.encoder)
        out[mode] = evaluate_checkpoint(corpus, ckpt, bench_cfg)
    return out


def run_bench(corpus: Corpus, bench_cfg: BenchConfig
              ) -> tuple[dict[str, dict[str, AggregateStat]], dict[int, dict]]:
    """Aggregated per-mode stats plus the raw per-seed metric maps."""
    bench_cfg.validate()
    seeds = sorted(bench_cfg.seeds)
    per_seed = dict(zip(seeds, fork_map(partial(run_seed, corpus), bench_cfg, seeds)))

    table = {}
    for mode in bench_cfg.modes:
        table[mode] = aggregate_runs([per_seed[s][mode] for s in seeds])
    return table, per_seed


def write_bench_table(table: dict[str, dict[str, AggregateStat]], path,
                      flags_comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if flags_comment:
            fh.write(f"# flags={flags_comment}\n")
        header = ["mode"]
        for metric in BENCH_METRICS:
            header += [f"{metric}_mean", f"{metric}_std"]
        header.append("n_seeds")
        fh.write("\t".join(header) + "\n")
        for mode in table:
            stats = table[mode]
            n = next(iter(stats.values())).n if stats else 0
            fields = [mode]
            for metric in BENCH_METRICS:
                if metric in stats:
                    fields += [repr(stats[metric].mean), repr(stats[metric].std)]
                else:
                    fields += ["n/a", "n/a"]
            fields.append(str(n))
            fh.write("\t".join(fields) + "\n")


def write_cell_tables(per_seed: dict[int, dict[str, dict[str, float]]], out_dir,
                      flags_comment: str) -> None:
    """One ``cell_seed<seed>.tsv`` per seed: every (mode, metric) value, sorted.
    Each file starts with its ``# flags=`` line, even an empty one."""
    for seed in sorted(per_seed):
        with open(Path(out_dir) / f"cell_seed{seed}.tsv", "w", encoding="utf-8") as fh:
            fh.write(f"# flags={flags_comment}\n")
            fh.write("mode\tmetric\tvalue\n")
            for mode in sorted(per_seed[seed]):
                for metric in sorted(per_seed[seed][mode]):
                    fh.write(f"{mode}\t{metric}\t{per_seed[seed][mode][metric]!r}\n")
