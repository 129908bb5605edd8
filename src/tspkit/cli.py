"""Command-line frontend.

Subcommands: gen-corpus, pretrain, extract, localize, eval-det, eval-prop,
analyze-sim, bench. Every subcommand is a pure function of its inputs and
flags. Each output file records the invoked argv, ``args.flags``: every file
is written through ``decode.save_json`` (an "__invocation__" key) or
``decode.write_rows`` (a "# flags=" first line); the PGM image alone has no
room for it. Exit codes: 0 success, 1 runtime failure (a malformed input file
among them, with one line naming it), 2 usage or configuration error. A flag
value that argparse or a configuration record (``SynthConfig``,
``TrainConfig``, ``LocalizerParams``, ``BenchConfig``) rejects exits 2 before
any file but ``--config`` is read, so before any output exists.

``--config FILE`` is a JSON object of flag values keyed by flag name, with
``_`` or ``-`` between words. Its values become flags inserted right after the
subcommand, so argparse parses them as it parses the command line, and a flag
given later on the command line wins. A switch such as ``--detad`` takes true
or false; any other flag a string or a number. A key that names no flag of the
subcommand, a list, an object, null, or a value the flag rejects exits 2 with
one ``error: --config FILE: KEY: ...`` line. The localizer flags reject what
``LocalizerParams`` rejects, on the command line too. A record that rejects
the flags but accepts them with the file's values left out exits 2 with one
``error: --config FILE: ...`` line.

``extract`` (one task per video) and ``localize`` (one per track file) run
their items in forked workers through ``workers.fork_map``; the files they
write are the same bytes at any worker count, and an item's error exits as
it would in a serial loop, the first in video or path order.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, bench, corpus as corpus_mod, evalkit, extract as extract_mod, pretrain
from .decode import decode, load_json, number, write_rows
from .workers import fork_map


class UsageError(Exception):
    """Configuration contradiction: maps to exit code 2."""


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


def _record(build, args, *rest):
    """``build(args, *rest)``, a record whose constructor checks its rules: a flag
    value it rejects is a usage error, raised before any file is read or written.
    The error names the --config file when the record accepts the flags with
    the file's values back at their defaults, so the rejected value came from it."""
    try:
        return build(args, *rest)
    except ValueError as exc:
        message = str(exc)
        if args.config_defaults:
            try:
                build(argparse.Namespace(**{**vars(args), **args.config_defaults}), *rest)
                message = f"--config {args.config}: {message}"
            except ValueError:
                pass
        raise UsageError(message) from exc


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="JSON",
                        help="JSON file of flag defaults; explicit flags override")


def _with_config(commands: dict[str, argparse.ArgumentParser],
                 argv: list[str]) -> tuple[list[str], dict]:
    """``argv`` with the values of its --config file inserted as flags right
    after the subcommand, so that argparse parses them as it parses the
    command line and a flag given later in ``argv`` wins; and the defaults of
    the flags whose values come from the file, by destination."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    path = probe.parse_known_args(argv)[0].config
    at = next((i + 1 for i, token in enumerate(argv) if token in commands), None)
    if not path or at is None:
        return argv, {}
    doc = load_json(path, UsageError, f"--config {path}")
    if not isinstance(doc, dict):
        raise UsageError(f"--config {path}: must hold a JSON object of flag values")
    sub, tokens, defaults = commands[argv[at - 1]], [], {}
    flags, on_command_line = sub._option_string_actions, set()
    for token in argv[at:]:  # a long flag may be abbreviated, as argparse allows
        name = token.split("=")[0]
        dests = {flags[name].dest} if name in flags else {
            action.dest for option, action in flags.items()
            if name.startswith("--") and option.startswith(name)}
        if len(dests) == 1:
            on_command_line |= dests
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        action = sub._option_string_actions.get(flag)
        try:
            if action is None or action.dest in ("help", "config"):
                raise ValueError(f"{sub.prog} has no flag {flag}")
            if action.nargs == 0:  # a switch: true gives the flag, false leaves it out
                given = [flag] * decode(value, bool)
            else:
                if not isinstance(value, str):
                    number(value)  # so not null, a bool, a list or an object
                sub._get_values(action, [str(value)])  # the flag's own type and choices
                given = [f"{flag}={value}"]
        except (ValueError, argparse.ArgumentError) as exc:
            raise UsageError(f"--config {path}: {key}: {getattr(exc, 'message', exc)}") from exc
        tokens += given
        if action.dest not in on_command_line:
            defaults[action.dest] = sub.get_default(action.dest)
    return argv[:at] + tokens + argv[at:], defaults


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
    cfg = _record(_synth_config, args)
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
    cfg = _record(_train_config, args, args.seed)
    corpus = corpus_mod.load_manifest(args.manifest)
    init_encoder = None
    if args.init_checkpoint:
        init_encoder = pretrain.load_checkpoint(args.init_checkpoint).encoder
    ckpt, rows = pretrain.train(corpus, cfg, init_encoder=init_encoder)
    pretrain.save_checkpoint(ckpt, args.out, invocation=args.flags)
    log_path = args.log or f"{args.out}.log.tsv"
    pretrain.write_train_log(rows, log_path, flags_comment=args.flags)
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
    p.add_argument("--hop", type=_positive_int, default=None,
                   help="clip hop in frames (default: non-overlapping receptive fields)")
    p.add_argument("--out-dir", required=True)


def _extract_video(job, video) -> None:
    corpus, ckpt, hop, out_dir, flags = job
    track = extract_mod.extract_track(corpus, video, ckpt, hop=hop)
    extract_mod.write_track(track, out_dir / f"{video.id}.csv", flags_comment=flags)


def _cmd_extract(args) -> int:
    corpus = corpus_mod.load_manifest(args.manifest)
    ckpt = pretrain.load_checkpoint(args.checkpoint)
    if corpus.synth is None:
        raise corpus_mod.ManifestError(f"{args.manifest}: no synth block, so no frames")
    extract_mod.check_frame_shape(corpus, ckpt, f"manifest {args.manifest}",
                                  f"checkpoint {args.checkpoint}")
    videos = corpus.subset_videos(args.split)
    if not videos:
        raise FileNotFoundError(f"{args.manifest}: split {args.split!r} has no videos")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # each worker synthesizes only the frame rows its own videos' clips read
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


def _localizer_field(name: str, parse):
    """An argparse type for LocalizerParams field ``name``: a value the record's
    rules reject is a usage error, on the command line as in --config."""
    def convert(text):
        value = parse(text)
        try:
            replace(evalkit.LocalizerParams(), **{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value
    convert.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return convert


def _add_localizer_flags(p) -> None:
    p.add_argument("--window", type=_localizer_field("smooth_window", int), default=1,
                   help="moving-average width in clips (odd)")
    p.add_argument("--thresholds", type=_localizer_field("thresholds", _parse_floats),
                   default=tuple((i + 1) / 10 for i in range(9)))
    p.add_argument("--nms-tiou", type=_localizer_field("nms_tiou", float), default=0.8)
    p.add_argument("--max-predictions", type=_localizer_field("max_predictions", int),
                   default=100)


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
    corpus = corpus_mod.load_manifest(args.manifest)
    gts = evalkit.ground_truth_from_corpus(corpus, args.subset)
    if not gts:
        raise UsageError(f"subset {args.subset!r} has no annotated instances")
    preds = evalkit.load_predictions(args.detections, kind="detections")
    maps = evalkit.map_curve(preds, gts, evalkit.TIOU_GRID)
    rows = [["metric", "value"]]
    rows += [[f"mAP@{thr:.2f}", repr(value)] for thr, value in zip(evalkit.TIOU_GRID, maps)]
    rows.append(["average_mAP", repr(float(np.mean(maps)))])  # as evalkit.average_map
    if args.detad:
        rows.append(["# DETAD-style length buckets (reduced protocol)"])
        rows.append(["bucket", "average_mAP", "share", "num_gt"])
        for bucket, row in evalkit.detad_report(preds, gts).items():
            amap = "n/a" if row["average_map"] is None else repr(row["average_map"])
            rows.append([bucket, amap, repr(row["share"]), str(row["num_gt"])])
    write_rows(args.out, args.flags, rows)
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
    corpus = corpus_mod.load_manifest(args.manifest)
    gts = evalkit.ground_truth_from_corpus(corpus, args.subset)
    if not gts:
        raise UsageError(f"subset {args.subset!r} has no annotated instances")
    props = evalkit.load_predictions(args.proposals, kind="proposals")
    curve = evalkit.ar_at_an(props, gts, evalkit.AUC_BUDGETS)
    ar_at = dict(curve)
    rows = [["metric", "value"]]
    rows += [[f"AR@{budget}", repr(ar_at[budget])] for budget in (1, 10, 100)]
    rows.append(["AUC", repr(evalkit.auc_of_curve(curve))])
    write_rows(args.out, args.flags, rows)
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
    corpus = corpus_mod.load_manifest(args.manifest)
    track = extract_mod.read_track(args.track)
    if track.video_id not in corpus.videos:
        raise FileNotFoundError(f"track video {track.video_id!r} not in manifest")
    video = corpus.videos[track.video_id]
    matrix = analysis.cosine_matrix(track)
    analysis.write_matrix_csv(matrix, f"{args.out_prefix}.csv", flags_comment=args.flags)
    analysis.export_pgm(matrix, f"{args.out_prefix}.pgm")
    stats = analysis.contrast_stats(track, video)
    metrics = (("intra_fg", stats.intra_fg), ("fg_bg", stats.fg_bg),
               ("intra_bg", stats.intra_bg), ("contrast", stats.contrast))
    write_rows(f"{args.out_prefix}_contrast.tsv", args.flags, [["metric", "value"]] + [
        [name, "n/a" if value is None else repr(value)] for name, value in metrics])
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
    p.add_argument("--hop", type=_positive_int, default=None)
    p.add_argument("--preset", choices=("paper-study1",),
                   help="named experiment preset (fixes modes and seeds)")
    _add_localizer_flags(p)
    _add_train_flags(p, embed_dim_default=16, blocks_default=1)


def _cmd_bench(args) -> int:
    if args.preset == "paper-study1":
        args.modes = "tsp,tsp_nogvf,tac"
        args.seeds = (0, 1, 2, 3, 4)
    bench_cfg = _record(lambda a: bench.BenchConfig(
        modes=tuple(m.strip() for m in a.modes.split(",") if m.strip()),
        seeds=tuple(a.seeds), hop=a.hop, localizer=_localizer_params(a),
        train=_train_config(a, seed=0, mode="tsp")), args)
    if args.manifest:
        corpus = corpus_mod.load_manifest(args.manifest)
    else:
        corpus = corpus_mod.generate_synthetic(corpus_mod.SynthConfig(), args.corpus_seed)
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


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The tspkit parser, and its subcommands' parsers by name."""
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
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        full_argv, config_defaults = _with_config(commands, argv)
        args = parser.parse_args(full_argv)
        args.config_defaults = config_defaults
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
