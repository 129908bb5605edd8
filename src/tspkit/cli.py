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

A record's flags come from its fields (``_flag_table``): one per field, or per
item of a fixed-length tuple, named after it but for ``_FLAG_NAMES``, typed by
its annotation, its default the record's value. Their choices are the records'
own constants: ``pretrain.MODES``, ``POOLS`` and ``INITS``, and
``corpus.BACKGROUND_MODES``.

``--config FILE`` is a JSON object of flag values keyed by flag name, with
``_`` or ``-`` between words. Its values become flags inserted right after the
subcommand, so argparse parses them as it parses the command line, and a flag
given later on the command line wins. A switch such as ``--detad`` takes true
or false; any other flag a string or a number. A key that names no flag of the
subcommand, a list, an object, null, or a value the flag rejects exits 2 with
one ``error: --config FILE: KEY: ...`` line. A record that rejects the flags
but accepts them with the file's values left out exits 2 with one ``error:
--config FILE: ...`` line.

``extract`` (one task per video) and ``localize`` (one per track file) run
their items in forked workers through ``workers.fork_map``; the files they
write are the same bytes at any worker count, and an item's error exits as
it would in a serial loop, the first in video or path order.
"""

from __future__ import annotations

import argparse
import functools
import sys
import types
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, bench, corpus as corpus_mod, evalkit, extract as extract_mod, pretrain
from .decode import decode, load_json, number, write_rows
from .workers import fork_map


class UsageError(Exception):
    """Configuration contradiction: maps to exit code 2."""


def _comma_list(item):
    """An argparse type: comma-separated ``item`` values, as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(item(v.strip()) for v in text.split(",") if v.strip())
    parse.__name__ = f"{item.__name__} list"  # argparse names it in "invalid ... value"
    return parse


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
# record flags: the fields whose flags are not named after them; a bool
# field's flag is a switch that sets it false
_FLAG_NAMES = {
    "num_classes": ("--classes",), "background_mode": ("--bg-mode",),
    "videos_per_subset": ("--train-videos", "--valid-videos", "--test-videos"),
    "duration_range": ("--duration-min", "--duration-max"),
    "instances_per_video": ("--instances-min", "--instances-max"),
    "global_pool": ("--gvf-pool",), "resample_each_epoch": ("--fixed-epoch-pool",),
    "action_loss_weight": ("--alpha-action",), "region_loss_weight": ("--alpha-region",),
    "smooth_window": ("--window",)}
_CHOICES = {"mode": pretrain.MODES, "global_pool": pretrain.POOLS, "init": pretrain.INITS,
            "background_mode": corpus_mod.BACKGROUND_MODES}
_HELP = {"resample_each_epoch": "reuse one clip subsample for all epochs instead of resampling",
         "gvf_dense_hop": "pool the global feature over a dense clip grid at this hop",
         "smooth_window": "moving-average width in clips (odd)"}


def _flag_table(record_type) -> tuple[tuple[str, tuple[str, ...], tuple[str, ...], dict], ...]:
    """(field, its flags, their destinations, their other ``add_argument`` keywords)
    per field of ``record_type``."""
    table = []
    for name, tp in typing.get_type_hints(record_type).items():  # the fields, in order
        origin, args = typing.get_origin(tp), typing.get_args(tp)
        flags = _FLAG_NAMES.get(name, ("--" + name.replace("_", "-"),))
        dests = tuple(flag[2:].replace("-", "_") for flag in flags)
        if tp is bool:
            kwargs, dests = {"action": "store_false"}, (name,)
        elif origin is tuple:  # tuple[X, ...] is one flag of "v,v,..."
            kwargs = {"type": _comma_list(args[0]) if args[-1] is Ellipsis else args[0]}
        elif origin is types.UnionType:  # X | None
            kwargs = {"type": next(arg for arg in args if arg is not types.NoneType)}
        else:
            kwargs = {"type": tp, "choices": _CHOICES.get(name)}
        table.append((name, flags, dests, {**kwargs, "help": _HELP.get(name)}))
    return tuple(table)


def _add_record_flags(p, record, skip=(), only=None) -> None:
    """The flags of ``record``'s fields but those in ``skip`` or not in ``only``."""
    for name, flags, dests, kwargs in _flag_table(type(record)):
        if name not in skip and (only is None or name in only):
            value = getattr(record, name)
            for flag, dest, default in zip(flags, dests, value if len(flags) > 1 else (value,)):
                p.add_argument(flag, dest=dest, default=default, **kwargs)


def _from_flags(args, record, skip=()):
    """``record`` with each field but those in ``skip`` taken from its flags."""
    values = {name: tuple(getattr(args, dest) for dest in dests)
              for name, _, dests, _ in _flag_table(type(record)) if name not in skip}
    return replace(record, **{name: v if len(v) > 1 else v[0] for name, v in values.items()})


# ---------------------------------------------------------------------------
# subcommand argument wiring


def _add_gen_corpus(sub) -> None:
    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus manifest")
    _add_config_flag(p)
    p.add_argument("--out", required=True, help="manifest path to write")
    p.add_argument("--seed", type=int, default=0)
    _add_record_flags(p, corpus_mod.SynthConfig())


def _cmd_gen_corpus(args) -> int:
    cfg = _record(_from_flags, args, corpus_mod.SynthConfig())
    corpus = corpus_mod.generate_synthetic(cfg, args.seed)
    corpus_mod.save_manifest(corpus, args.out, invocation=args.flags)
    print(f"wrote {args.out}: {len(corpus.videos)} videos, {len(corpus.classes)} classes")
    return 0


def _add_pretrain(sub) -> None:
    p = sub.add_parser("pretrain", help="train a checkpoint on a corpus")
    _add_config_flag(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--log", help="training log TSV path (default: <out>.log.tsv)")
    _add_record_flags(p, pretrain.TrainConfig(), only={"seed"})
    p.add_argument("--init-checkpoint",
                   help="reuse the encoder of this checkpoint as the initialization")
    _add_record_flags(p, pretrain.TrainConfig(), skip={"seed"})


def _cmd_pretrain(args) -> int:
    cfg = _record(_from_flags, args, pretrain.TrainConfig())
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


def _add_localize(sub) -> None:
    p = sub.add_parser("localize", help="turn feature tracks into predictions")
    _add_config_flag(p)
    p.add_argument("--tracks", nargs="+", required=True,
                   help="track CSV files and/or directories of them")
    p.add_argument("--detections-out", required=True)
    p.add_argument("--proposals-out", required=True)
    p.add_argument("--actionness", choices=("region", "max-prob"), default="region")
    _add_record_flags(p, evalkit.LocalizerParams())


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
    job = (_record(_from_flags, args, evalkit.LocalizerParams()),
           args.actionness.replace("-", "_"))
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
    defaults = bench.BenchConfig()
    p = sub.add_parser("bench", help="multi-seed, multi-mode study table")
    _add_config_flag(p)
    p.add_argument("--manifest", help="corpus manifest (default: generate the study corpus)")
    p.add_argument("--corpus-seed", type=int, default=0,
                   help="seed for the generated corpus when --manifest is absent")
    p.add_argument("--modes", type=_comma_list(str), default=defaults.modes)
    p.add_argument("--seeds", type=_comma_list(int), default=defaults.seeds)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--hop", type=_positive_int, default=defaults.hop)
    p.add_argument("--preset", choices=("paper-study1",),
                   help="named experiment preset (fixes modes and seeds)")
    _add_record_flags(p, defaults.localizer)
    _add_record_flags(p, defaults.train, skip=bench.CELL_FIELDS)


def _cmd_bench(args) -> int:
    defaults = bench.BenchConfig()
    if args.preset == "paper-study1":
        args.modes, args.seeds = defaults.modes, defaults.seeds
    bench_cfg = _record(lambda a: replace(
        defaults, modes=a.modes, seeds=a.seeds, hop=a.hop,
        localizer=_from_flags(a, defaults.localizer),
        train=_from_flags(a, defaults.train, bench.CELL_FIELDS)), args)
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


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The tspkit parser, and its subcommands' parsers by name; built once per
    process, as parsing leaves them unchanged."""
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
