"""Command-line frontend.

Subcommands: gen-corpus, pretrain, extract, localize, eval-det, eval-prop,
analyze-sim, bench. Every subcommand is a pure function of its inputs and
flags; outputs embed the invoked flag set (as "# flags=" header lines, or a
"__invocation__" key in JSON files). Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error.

``extract`` (one task per video) and ``localize`` (one per track file) run
their items in forked workers through ``workers.fork_map``; the files they
write are the same bytes at any worker count, and an item's error exits as
it would in a serial loop, the first in video or path order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, bench, corpus as corpus_mod, evalkit, extract as extract_mod, pretrain
from .workers import fork_map


class UsageError(Exception):
    """Configuration contradiction: maps to exit code 2."""


def _load_corpus(path) -> corpus_mod.Corpus:
    if not os.path.exists(path):
        raise FileNotFoundError(f"manifest not found: {path}")
    return corpus_mod.load_manifest(path)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="JSON",
                        help="JSON file of flag defaults; explicit flags override")


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if known.config:
        try:
            with open(known.config, "r", encoding="utf-8") as fh:
                defaults = json.load(fh)
        except OSError as exc:
            raise UsageError(f"--config {known.config}: {exc.strerror}") from exc
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise UsageError(f"--config {known.config}: not valid JSON ({exc})") from exc
        if not isinstance(defaults, dict):
            raise UsageError("--config must hold a JSON object of flag defaults")
        mapped = {k.replace("-", "_"): v for k, v in defaults.items()}
        # subparsers parse into a fresh namespace, so they need the defaults too
        for p in getattr(parser, "_tspkit_subparsers", []):
            p.set_defaults(**mapped)
        parser.set_defaults(**mapped)


# ---------------------------------------------------------------------------
# subcommand argument wiring


def _add_gen_corpus(sub) -> None:
    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus manifest")
    _add_config_flag(p)
    p.add_argument("--out", required=True, help="manifest path to write")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--train-videos", type=int, default=80)
    p.add_argument("--valid-videos", type=int, default=40)
    p.add_argument("--test-videos", type=int, default=0)
    p.add_argument("--duration-min", type=float, default=120.0)
    p.add_argument("--duration-max", type=float, default=360.0)
    p.add_argument("--instances-min", type=int, default=1)
    p.add_argument("--instances-max", type=int, default=4)
    p.add_argument("--length-log-mu", type=float, default=3.8)
    p.add_argument("--length-log-sigma", type=float, default=0.9)
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--height", type=int, default=1)
    p.add_argument("--width", type=int, default=1)
    p.add_argument("--noise-sigma", type=float, default=0.5)
    p.add_argument("--bg-mode", choices=("pure", "hard"), default="hard")
    p.add_argument("--fps", type=float, default=4.0)


def _synth_config(args) -> corpus_mod.SynthConfig:
    return corpus_mod.SynthConfig(
        num_classes=args.classes,
        videos_per_subset=(args.train_videos, args.valid_videos, args.test_videos),
        duration_range=(args.duration_min, args.duration_max),
        instances_per_video=(args.instances_min, args.instances_max),
        length_log_mu=args.length_log_mu,
        length_log_sigma=args.length_log_sigma,
        channels=args.channels, height=args.height, width=args.width,
        noise_sigma=args.noise_sigma, background_mode=args.bg_mode, fps=args.fps)


def _cmd_gen_corpus(args) -> int:
    cfg = _synth_config(args)
    corpus = corpus_mod.generate_synthetic(cfg, args.seed)
    corpus_mod.save_manifest(corpus, args.out, invocation=args.flags)
    print(f"wrote {args.out}: {len(corpus.videos)} videos, {len(corpus.classes)} classes")
    return 0


def _add_train_flags(p, embed_dim_default=64, blocks_default=2) -> None:
    p.add_argument("--mode", choices=pretrain.MODES, default="tsp")
    p.add_argument("--gvf-pool", choices=("max", "avg"), default="max")
    p.add_argument("--encoder-lr", type=float, default=1e-4)
    p.add_argument("--head-lr-grid", type=_parse_floats, default=(0.002, 0.004, 0.006, 0.008, 0.01))
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--warmup-epochs", type=int, default=2)
    p.add_argument("--decay-epochs", type=_parse_ints, default=(4, 6))
    p.add_argument("--decay-gamma", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--init", choices=("tac", "random"), default="tac")
    p.add_argument("--clips-per-segment", type=int, default=5)
    p.add_argument("--clip-len", type=int, default=16)
    p.add_argument("--frame-stride", type=int, default=2)
    p.add_argument("--embed-dim", type=int, default=embed_dim_default)
    p.add_argument("--blocks", type=int, default=blocks_default)
    p.add_argument("--alpha-action", type=float, default=1.0)
    p.add_argument("--alpha-region", type=float, default=1.0)
    p.add_argument("--fixed-epoch-pool", action="store_true",
                   help="reuse one clip subsample for all epochs instead of resampling")
    p.add_argument("--gvf-dense-hop", type=int, default=None,
                   help="pool the global feature over a dense clip grid at this hop")


def _train_config(args, seed: int, mode: str | None = None) -> pretrain.TrainConfig:
    return pretrain.TrainConfig(
        mode=mode or args.mode, global_pool=args.gvf_pool, encoder_lr=args.encoder_lr,
        head_lr_grid=tuple(args.head_lr_grid), epochs=args.epochs,
        warmup_epochs=args.warmup_epochs, decay_epochs=tuple(args.decay_epochs),
        decay_gamma=args.decay_gamma, batch_size=args.batch_size,
        momentum=args.momentum, seed=seed, init=args.init,
        clips_per_segment=args.clips_per_segment, clip_len=args.clip_len,
        frame_stride=args.frame_stride, embed_dim=args.embed_dim, blocks=args.blocks,
        action_loss_weight=args.alpha_action, region_loss_weight=args.alpha_region,
        resample_each_epoch=not args.fixed_epoch_pool, gvf_dense_hop=args.gvf_dense_hop)


def _add_pretrain(sub) -> None:
    p = sub.add_parser("pretrain", help="train a checkpoint on a corpus")
    _add_config_flag(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--log", help="training log TSV path (default: <out>.log.tsv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-checkpoint",
                   help="reuse the encoder of this checkpoint as the initialization")
    _add_train_flags(p)


def _cmd_pretrain(args) -> int:
    corpus = _load_corpus(args.manifest)
    cfg = _train_config(args, args.seed)
    init_encoder = None
    if args.init_checkpoint:
        init_encoder = pretrain.load_checkpoint(args.init_checkpoint).encoder
    ckpt, rows = pretrain.train(corpus, cfg, init_encoder=init_encoder)
    pretrain.save_checkpoint(ckpt, args.out, invocation=args.flags)
    log_path = args.log or f"{args.out}.log.tsv"
    pretrain.write_train_log(rows, log_path, header_comment=f"flags={args.flags}")
    sel = ckpt.selection
    print(f"wrote {args.out} (selected head_lr={sel.head_lr}, epoch={sel.epoch}, "
          f"score={sel.score:.4f})")
    return 0


def _add_extract(sub) -> None:
    p = sub.add_parser("extract", help="write feature tracks for a subset")
    _add_config_flag(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=corpus_mod.SUBSETS, default="valid")
    p.add_argument("--hop", type=int, default=None,
                   help="clip hop in frames (default: non-overlapping receptive fields)")
    p.add_argument("--out-dir", required=True)


def _extract_video(job, video) -> None:
    corpus, ckpt, hop, out_dir, flags = job
    track = extract_mod.extract_track(corpus, video, ckpt, hop=hop)
    extract_mod.write_track(track, out_dir / f"{video.id}.csv", flags_comment=flags)


def _cmd_extract(args) -> int:
    corpus = _load_corpus(args.manifest)
    ckpt = pretrain.load_checkpoint(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    videos = corpus.subset_videos(args.split)
    if not videos:
        raise FileNotFoundError(f"split {args.split!r} has no videos")
    # each worker synthesizes the frames of its own videos only
    fork_map(_extract_video, (corpus, ckpt, args.hop, out_dir, args.flags), videos)
    print(f"wrote {len(videos)} tracks to {out_dir}")
    return 0


def _track_paths(tracks_arg: list[str]) -> list[Path]:
    paths: list[Path] = []
    for item in tracks_arg:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.csv")))
        elif p.exists():
            paths.append(p)
        else:
            raise FileNotFoundError(f"track path not found: {item}")
    if not paths:
        raise FileNotFoundError("no track files found")
    return paths


def _localizer_params(args) -> evalkit.LocalizerParams:
    return evalkit.LocalizerParams(
        smooth_window=args.window, thresholds=tuple(args.thresholds),
        nms_tiou=args.nms_tiou, max_predictions=args.max_predictions)


def _add_localizer_flags(p) -> None:
    p.add_argument("--window", type=int, default=1, help="moving-average width in clips (odd)")
    p.add_argument("--thresholds", type=_parse_floats,
                   default=tuple((i + 1) / 10 for i in range(9)))
    p.add_argument("--nms-tiou", type=float, default=0.8)
    p.add_argument("--max-predictions", type=int, default=100)


def _add_localize(sub) -> None:
    p = sub.add_parser("localize", help="turn feature tracks into predictions")
    _add_config_flag(p)
    p.add_argument("--tracks", nargs="+", required=True,
                   help="track CSV files and/or directories of them")
    p.add_argument("--detections-out", required=True)
    p.add_argument("--proposals-out", required=True)
    p.add_argument("--actionness", choices=("region", "max-prob"), default="region")
    _add_localizer_flags(p)


def _localize_track(job, path) -> tuple[str, list, list]:
    params, source = job
    track = extract_mod.read_track(path)
    if source == "region" and track.region_probs is None:
        raise UsageError(
            f"{path}: track has no region scores (classification-only checkpoint); "
            f"rerun with --actionness max-prob")
    dets, props = evalkit.baseline_localize(track, params, source)
    return track.video_id, dets, props


def _cmd_localize(args) -> int:
    job = (_localizer_params(args), args.actionness.replace("-", "_"))
    results = fork_map(_localize_track, job, _track_paths(args.tracks))
    dets_by_video = {video_id: dets for video_id, dets, _ in results}
    props_by_video = {video_id: props for video_id, _, props in results}
    evalkit.save_predictions(dets_by_video, args.detections_out, invocation=args.flags)
    evalkit.save_predictions(props_by_video, args.proposals_out, invocation=args.flags)
    total = sum(len(v) for v in dets_by_video.values())
    print(f"wrote {total} detections for {len(dets_by_video)} videos")
    return 0


def _add_eval_det(sub) -> None:
    p = sub.add_parser("eval-det", help="detection mAP report")
    _add_config_flag(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--subset", choices=corpus_mod.SUBSETS, default="valid")
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--detad", action="store_true", help="append the length-bucket breakdown")


def _cmd_eval_det(args) -> int:
    corpus = _load_corpus(args.manifest)
    gts = evalkit.ground_truth_from_corpus(corpus, args.subset)
    if not gts:
        raise UsageError(f"subset {args.subset!r} has no annotated instances")
    preds = evalkit.load_predictions(args.detections, kind="detections")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# flags={args.flags}\n")
        fh.write("metric\tvalue\n")
        maps = evalkit.map_curve(preds, gts, evalkit.TIOU_GRID)
        for thr, value in zip(evalkit.TIOU_GRID, maps):
            fh.write(f"mAP@{thr:.2f}\t{value!r}\n")
        fh.write(f"average_mAP\t{float(np.mean(maps))!r}\n")  # as evalkit.average_map
        if args.detad:
            fh.write("# DETAD-style length buckets (reduced protocol)\n")
            fh.write("bucket\taverage_mAP\tshare\tnum_gt\n")
            report = evalkit.detad_report(preds, gts)
            for bucket in evalkit.DETAD_BUCKETS:
                row = report[bucket]
                amap = "n/a" if row["average_map"] is None else repr(row["average_map"])
                fh.write(f"{bucket}\t{amap}\t{row['share']!r}\t{row['num_gt']}\n")
    print(f"wrote {args.out}")
    return 0


def _add_eval_prop(sub) -> None:
    p = sub.add_parser("eval-prop", help="proposal AR/AUC report")
    _add_config_flag(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--subset", choices=corpus_mod.SUBSETS, default="valid")
    p.add_argument("--proposals", required=True)
    p.add_argument("--out", required=True)


def _cmd_eval_prop(args) -> int:
    corpus = _load_corpus(args.manifest)
    gts = evalkit.ground_truth_from_corpus(corpus, args.subset)
    if not gts:
        raise UsageError(f"subset {args.subset!r} has no annotated instances")
    props = evalkit.load_predictions(args.proposals, kind="proposals")
    curve = evalkit.ar_at_an(props, gts, evalkit.AUC_BUDGETS)
    ar_at = dict(curve)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# flags={args.flags}\n")
        fh.write("metric\tvalue\n")
        for budget in (1, 10, 100):
            fh.write(f"AR@{budget}\t{ar_at[budget]!r}\n")
        fh.write(f"AUC\t{evalkit.auc_of_curve(curve)!r}\n")
    print(f"wrote {args.out}")
    return 0


def _add_analyze_sim(sub) -> None:
    p = sub.add_parser("analyze-sim", help="cosine similarity matrix and contrast stats")
    _add_config_flag(p)
    p.add_argument("--track", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.csv, <prefix>.pgm, <prefix>_contrast.tsv")


def _cmd_analyze_sim(args) -> int:
    corpus = _load_corpus(args.manifest)
    track = extract_mod.read_track(args.track)
    if track.video_id not in corpus.videos:
        raise FileNotFoundError(f"track video {track.video_id!r} not in manifest")
    video = corpus.videos[track.video_id]
    matrix = analysis.cosine_matrix(track)
    analysis.write_matrix_csv(matrix, f"{args.out_prefix}.csv", flags_comment=args.flags)
    analysis.export_pgm(matrix, f"{args.out_prefix}.pgm")
    stats = analysis.contrast_stats(track, video)
    with open(f"{args.out_prefix}_contrast.tsv", "w", encoding="utf-8") as fh:
        fh.write(f"# flags={args.flags}\n")
        fh.write("metric\tvalue\n")
        for name, value in (("intra_fg", stats.intra_fg), ("fg_bg", stats.fg_bg),
                            ("intra_bg", stats.intra_bg), ("contrast", stats.contrast)):
            fh.write(f"{name}\t{'n/a' if value is None else repr(value)}\n")
    print(f"wrote {args.out_prefix}.csv / .pgm / _contrast.tsv")
    return 0


def _add_bench(sub) -> None:
    p = sub.add_parser("bench", help="multi-seed, multi-mode study table")
    _add_config_flag(p)
    p.add_argument("--manifest", help="corpus manifest (default: generate the study corpus)")
    p.add_argument("--corpus-seed", type=int, default=0,
                   help="seed for the generated corpus when --manifest is absent")
    p.add_argument("--modes", default="tsp,tsp_nogvf,tac")
    p.add_argument("--seeds", type=_parse_ints, default=(0, 1, 2, 3, 4))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--hop", type=int, default=None)
    p.add_argument("--preset", choices=("paper-study1",),
                   help="named experiment preset (fixes modes and seeds)")
    _add_localizer_flags(p)
    _add_train_flags(p, embed_dim_default=16, blocks_default=1)


def _cmd_bench(args) -> int:
    if args.preset == "paper-study1":
        args.modes = "tsp,tsp_nogvf,tac"
        args.seeds = (0, 1, 2, 3, 4)
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for m in modes:
        if m not in pretrain.MODES:
            raise UsageError(f"unknown mode {m!r}")
    if args.manifest:
        corpus = _load_corpus(args.manifest)
    else:
        corpus = corpus_mod.generate_synthetic(corpus_mod.SynthConfig(), args.corpus_seed)
    bench_cfg = bench.BenchConfig(
        modes=modes, seeds=tuple(args.seeds), hop=args.hop,
        localizer=_localizer_params(args),
        train=_train_config(args, seed=0, mode="tsp"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table, per_seed = bench.run_bench(corpus, bench_cfg)
    bench.write_cell_tables(per_seed, out_dir, flags_comment=args.flags)
    bench.write_bench_table(table, out_dir / "bench_table.tsv",
                            flags_comment=args.flags)
    for mode, stats in table.items():
        parts = []
        for metric in bench.BENCH_METRICS:
            if metric in stats:
                parts.append(f"{metric}={stats[metric].mean:.4f}±{stats[metric].std:.4f}")
        print(f"{mode}: " + "  ".join(parts))
    print(f"wrote {out_dir / 'bench_table.tsv'}")
    return 0


# ---------------------------------------------------------------------------


_COMMANDS = {
    "gen-corpus": _cmd_gen_corpus,
    "pretrain": _cmd_pretrain,
    "extract": _cmd_extract,
    "localize": _cmd_localize,
    "eval-det": _cmd_eval_det,
    "eval-prop": _cmd_eval_prop,
    "analyze-sim": _cmd_analyze_sim,
    "bench": _cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tspkit",
        description="temporally-sensitive clip pretraining sandbox")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen_corpus(sub)
    _add_pretrain(sub)
    _add_extract(sub)
    _add_localize(sub)
    _add_eval_det(sub)
    _add_eval_prop(sub)
    _add_analyze_sim(sub)
    _add_bench(sub)
    parser._tspkit_subparsers = list(sub.choices.values())
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        args.flags = " ".join(argv)  # the invocation every output file records
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
