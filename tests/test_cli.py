"""Command-line exit codes and error messages."""

import contextlib
import io
import json
import os
import sys
import tempfile
import typing
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tspkit import bench, cli, evalkit, pretrain
from tspkit import corpus as corpus_mod


def run_bench_with_config(path, tmp_path, capsys):
    code = cli.main(["bench", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_unparsable_config_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, err = run_bench_with_config(path, tmp_path, capsys)
    assert code == 2
    assert err.startswith(f"error: --config {path}: not valid JSON")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "absent.json"
    code, err = run_bench_with_config(path, tmp_path, capsys)
    assert code == 2
    assert err == f"error: --config {path}: No such file or directory\n"
    assert not (tmp_path / "out").exists()


def test_in_process_call_records_its_own_argv_not_the_hosts(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["host-program", "--host-flag"])
    path = tmp_path / "corpus.json"
    argv = ["gen-corpus", "--out", str(path), "--train-videos", "1", "--valid-videos", "1",
            "--classes", "2"]
    assert cli.main(argv) == 0
    assert json.loads(path.read_text())["__invocation__"] == " ".join(argv)


def test_main_calls_in_a_row_write_what_each_call_writes_alone(tmp_path, capsys):
    # the parser is built once per process: a call that fails on its --config
    # leaves nothing in it that changes the next call's output
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"noise_sigma": -0.5}), encoding="utf-8")
    out = tmp_path / "corpus.json"
    calls = (["gen-corpus", "--config", str(config), "--out", str(out)],
             ["gen-corpus", "--out", str(out), "--train-videos", "2", "--valid-videos", "1",
              "--classes", "2"])

    def run(argv):
        code = cli.main(argv)
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, capsys.readouterr(), written

    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    in_a_row = [run(argv) for argv in calls]
    assert [code for code, _, _ in alone] == [2, 0]
    assert alone[1][2] is not None
    assert in_a_row == alone
    assert cli.build_parser() is cli.build_parser()


def test_gen_corpus_refuses_a_manifest_that_could_not_be_loaded(tmp_path, capsys):
    path = tmp_path / "corpus.json"
    assert cli.main(["gen-corpus", "--out", str(path), "--train-videos", "1",
                     "--noise-sigma", "-0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: noise_sigma -0.5")
    assert not path.exists()


def output_flags(command, out):
    """The output flags of ``command``, each naming ``out`` or a file in it."""
    if command == "localize":
        return ["--detections-out", str(out / "d.json"), "--proposals-out", str(out / "p.json")]
    return ["--out-dir" if command == "bench" else "--out", str(out)]


# (argv without its output flags, start of the error line); pretrain's manifest
# and localize's tracks do not exist, so their errors show that the flags were
# checked first
REJECTED_FLAGS = {
    "bench_unknown_mode": (["bench", "--modes", "tsp,bogus"], "unknown mode 'bogus'"),
    "bench_repeated_seed": (["bench", "--seeds", "1,1"], "seeds must be distinct"),
    "pretrain_zero_embed_dim": (["pretrain", "--manifest", "absent.json", "--embed-dim", "0"],
                                "encoder dimensions must be positive"),
    "pretrain_zero_gvf_hop": (["pretrain", "--manifest", "absent.json", "--gvf-dense-hop", "0"],
                              "gvf_dense_hop must be positive"),
    "gen_corpus_infinite_duration": (["gen-corpus", "--duration-max", "inf"],
                                     "duration_range * fps gives 480.0 to inf frames"),
    "gen_corpus_too_many_frames": (["gen-corpus", "--duration-max", "300000"],
                                   "duration_range * fps gives 480.0 to 1200000.0 frames"),
    "gen_corpus_under_one_frame": (["gen-corpus", "--duration-min", "0.2"],
                                   "duration_range * fps gives 0.8 to 1440.0 frames"),
    "gen_corpus_negative_length_sigma": (["gen-corpus", "--length-log-sigma", "-1"],
                                         "length_log_sigma -1.0 is not a finite"),
    "gen_corpus_infinite_length_sigma": (["gen-corpus", "--length-log-sigma", "inf"],
                                         "length_log_sigma inf is not a finite"),
    "gen_corpus_nan_length_mu": (["gen-corpus", "--length-log-mu", "nan"],
                                 "length_log_mu nan is not finite"),
    "gen_corpus_instances_beyond_shortest_duration": (
        ["gen-corpus", "--duration-min", "1", "--duration-max", "1.5", "--instances-min", "4",
         "--instances-max", "4"], "cannot place 4 instances in the shortest duration 1.0s"),
    **{f"pretrain_{flag}_{value}": (["pretrain", "--manifest", "absent.json", f"--{flag}", value],
                                    "encoder_lr, head_lr_grid, momentum and decay_gamma must")
       for flag, value in (("encoder-lr", "-0.5"), ("encoder-lr", "nan"),
                           ("head-lr-grid", "0.004,inf"), ("head-lr-grid", "-0.5"),
                           ("momentum", "inf"), ("decay-gamma", "-0.5"))},
    **{f"pretrain_{flag}_{value}": (["pretrain", "--manifest", "absent.json", f"--{flag}", value],
                                    "loss weights must be finite, nonnegative and not both zero")
       for flag, value in (("alpha-action", "nan"), ("alpha-region", "inf"))},
    "localize_even_window": (["localize", "--tracks", "absent", "--window", "2"],
                             "smooth_window must be odd"),
    "localize_threshold_above_one": (["localize", "--tracks", "absent", "--thresholds", "0.5,2"],
                                     "thresholds must lie in (0, 1)"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_FLAGS))
def test_a_flag_value_a_record_rejects_exits_2_before_any_file(case, tmp_path, capsys):
    argv, message = REJECTED_FLAGS[case]
    out = tmp_path / "out"
    assert cli.main([*argv, *output_flags(argv[0], out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


# (argv without its output flags, a --config file's values, start of the error
# its record raises); pretrain's manifest and localize's tracks do not exist, as above
REJECTED_CONFIG_VALUES = {
    "gen-corpus": (["gen-corpus"], {"noise_sigma": -0.5}, "noise_sigma -0.5 is not"),
    "pretrain": (["pretrain", "--manifest", "absent.json"], {"embed_dim": 0},
                 "encoder dimensions must be positive"),
    "bench": (["bench"], {"modes": "tsp,bogus"}, "unknown mode 'bogus'"),
    "localize": (["localize", "--tracks", "absent"], {"window": 2}, "smooth_window must be odd"),
}


@pytest.mark.parametrize("command", sorted(REJECTED_CONFIG_VALUES))
def test_a_config_value_a_record_rejects_names_the_config_file(command, tmp_path, capsys):
    argv, values, message = REJECTED_CONFIG_VALUES[command]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(values), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", str(config), *output_flags(command, out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --config {config}: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_rejected_command_line_value_over_a_config_names_no_file(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"noise_sigma": -0.5, "classes": 3}), encoding="utf-8")
    out = tmp_path / "corpus.json"
    # the command line's value wins over the file's, and it is the one rejected
    for flag in ("--noise-sigma", "--noise"):  # argparse takes an abbreviated flag too
        assert cli.main(["gen-corpus", "--config", str(config), flag, "-0.4",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: noise_sigma -0.4 is not")
    assert not out.exists()


# ---------------------------------------------------------------------------
# each record field's flag builds that field, and the record is the default
# one when no flag is given


class Built(Exception):
    """Raised in place of the first call a command makes with its record."""


# command: (that first call, which picks the record out of its arguments, the
# command's required flags); the patched calls read and write nothing
BUILDERS = {
    "gen-corpus": ("tspkit.corpus.generate_synthetic", lambda a: a[0], ["--out", "{tmp}/c.json"]),
    "pretrain": ("tspkit.pretrain.train", lambda a: a[1],
                 ["--manifest", "m.json", "--out", "{tmp}/k.json"]),
    "bench": ("tspkit.bench.run_bench", lambda a: a[1],
              ["--manifest", "m.json", "--out-dir", "{tmp}"]),
    "localize": ("tspkit.cli.fork_map", lambda a: a[1][0],  # fork_map(fn, (params, ...), paths)
                 ["--tracks", __file__, "--detections-out", "{tmp}/d.json",
                  "--proposals-out", "{tmp}/p.json"]),
}
DEFAULTS = {"gen-corpus": corpus_mod.SynthConfig(), "pretrain": pretrain.TrainConfig(),
            "bench": bench.BenchConfig(), "localize": evalkit.LocalizerParams()}
# (command, None when its flags set its DEFAULTS record, else the field of that
# record holding the one they set, the fields with no flag); bench sets mode,
# seed and init per cell
RECORD_PARTS = [("gen-corpus", None, ()), ("pretrain", None, ()),
                ("bench", "train", ("mode", "seed", "init")), ("bench", "localizer", ()),
                ("localize", None, ())]
# each command's flags that set no field of a record part above
OTHER_FLAGS = {
    "gen-corpus": {"--out", "--seed"},
    "pretrain": {"--manifest", "--out", "--log", "--init-checkpoint"},
    "bench": {"--manifest", "--corpus-seed", "--modes", "--seeds", "--out-dir", "--hop",
              "--preset"},
    "localize": {"--tracks", "--detections-out", "--proposals-out", "--actionness"},
}
# a field's flag is its name with "-" for "_", but for these; a bool field's
# flag is a switch that sets it false
RENAMED = {
    "num_classes": ["--classes"], "background_mode": ["--bg-mode"],
    "videos_per_subset": ["--train-videos", "--valid-videos", "--test-videos"],
    "duration_range": ["--duration-min", "--duration-max"],
    "instances_per_video": ["--instances-min", "--instances-max"],
    "global_pool": ["--gvf-pool"], "resample_each_epoch": ["--fixed-epoch-pool"],
    "action_loss_weight": ["--alpha-action"], "region_loss_weight": ["--alpha-region"],
    "smooth_window": ["--window"],
}
CHOICES = {"mode": pretrain.MODES, "global_pool": pretrain.POOLS, "init": pretrain.INITS,
           "background_mode": corpus_mod.BACKGROUND_MODES}


def built(command, flags=(), config=None):
    """The record ``command`` builds from ``flags`` and a --config file of ``config``."""
    target, pick, required = BUILDERS[command]

    def stop(*args, **kwargs):
        raise Built(pick(args))
    with (tempfile.TemporaryDirectory() as tmp, mock.patch("tspkit.corpus.load_manifest"),
          mock.patch(target, side_effect=stop), pytest.raises(Built) as caught):
        if config is not None:
            Path(tmp, "config.json").write_text(json.dumps(config), encoding="utf-8")
            flags = ["--config", str(Path(tmp, "config.json")), *flags]
        cli.main([command, *(arg.format(tmp=tmp) for arg in required), *flags])
    return caught.value.args[0]


def part_fields(command, part, unflagged):
    record = DEFAULTS[command] if part is None else getattr(DEFAULTS[command], part)
    hints = typing.get_type_hints(type(record))
    return {name: tp for name, tp in hints.items() if name not in unflagged}


def field_flags(name):
    return RENAMED.get(name, ["--" + name.replace("_", "-")])


def field_values(name, tp):
    """Values of a field of annotation ``tp``, most of them valid."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if name in CHOICES:
        return st.sampled_from(CHOICES[name])
    if tp is bool:
        return st.booleans()
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(field_values(name, args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*(field_values(name, arg) for arg in args))
    if tp is float:
        return st.floats(0.01, 0.99) | st.floats(1.0, 400.0)
    return st.integers(0, 9)  # int, and int | None


def flag_texts(name, value):
    """{flag: its text, or True for a switch given} that set field ``name`` to ``value``."""
    flags = field_flags(name)
    if isinstance(value, bool):
        return {} if value else {flags[0]: True}
    items = value if len(flags) > 1 else (value,)
    return {flag: ",".join(map(str, item)) if isinstance(item, tuple) else str(item)
            for flag, item in zip(flags, items)}


@pytest.mark.parametrize("command", sorted(BUILDERS))
def test_no_record_flag_builds_the_default_record(command):
    assert built(command) == DEFAULTS[command]


def test_the_paper_preset_takes_the_default_modes_and_seeds():
    assert built("bench", ["--modes", "tac", "--seeds", "7", "--preset", "paper-study1"]) == (
        bench.BenchConfig())


@pytest.mark.parametrize("command", sorted(OTHER_FLAGS))
def test_each_record_field_has_exactly_one_flag(command):
    flags = [flag for c, part, unflagged in RECORD_PARTS if c == command
             for name in part_fields(c, part, unflagged) for flag in field_flags(name)]
    options = set(cli.build_parser()[1][command]._option_string_actions)
    assert len(flags) == len(set(flags))
    assert options == set(flags) | OTHER_FLAGS[command] | {"-h", "--help", "--config"}


@pytest.mark.parametrize("command,part,unflagged", RECORD_PARTS,
                         ids=[f"{c}-{part}" if part else c for c, part, _ in RECORD_PARTS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_fields_flag_sets_that_field_alone(command, part, unflagged, data):
    """On the command line or from --config."""
    fields = part_fields(command, part, unflagged)
    name = data.draw(st.sampled_from(sorted(fields)), label="field")
    value = data.draw(field_values(name, fields[name]), label="value")
    default = DEFAULTS[command]
    try:
        if part is None:
            expected = replace(default, **{name: value})
        else:
            expected = replace(default, **{part: replace(getattr(default, part), **{name: value})})
    except ValueError:
        assume(False)  # a value the record rejects
    texts = flag_texts(name, value)
    if data.draw(st.booleans(), label="from --config"):
        assert built(command, config={flag[2:]: text for flag, text in texts.items()}) == expected
    else:
        tokens = [token for flag, text in texts.items()
                  for token in ([flag] if text is True else [flag, text])]
        assert built(command, tokens) == expected


@pytest.fixture
def manifest(tmp_path, capsys):
    path = tmp_path / "corpus.json"
    assert cli.main(["gen-corpus", "--out", str(path), "--train-videos", "1",
                     "--valid-videos", "2", "--classes", "2"]) == 0
    capsys.readouterr()
    return path


def row(**fields):
    return {"segment": [1.0, 4.0], "score": 0.5, "label": 0, **fields}


# (predictions file text, text the error names); "label" rows only break detections
BAD_PREDICTIONS = {
    "not_json": ("{", "not valid JSON"),
    "root_not_object": ("[]", "top level"),
    "rows_not_list": (json.dumps({"v0": row()}), "video 'v0'"),
    "row_not_object": (json.dumps({"v0": [1]}), "video 'v0' row 0"),
    "no_segment": (json.dumps({"v0": [{"score": 0.5, "label": 0}]}), "video 'v0' row 0"),
    "nan_end": ('{"v0": [{"segment": [1.0, NaN], "score": 0.5, "label": 0}]}',
                "video 'v0' row 0"),
    "reversed": (json.dumps({"v0": [row(), row(segment=[4.0, 1.0])]}), "video 'v0' row 1"),
    "three_times": (json.dumps({"v0": [row(segment=[1.0, 2.0, 3.0])]}), "video 'v0' row 0"),
    "string_time": (json.dumps({"v0": [row(segment=["1", 2.0])]}), "video 'v0' row 0"),
    "infinite_score": ('{"v0": [{"segment": [1.0, 2.0], "score": Infinity, "label": 0}]}',
                       "video 'v0' row 0"),
    "no_score": (json.dumps({"v0": [{"segment": [1.0, 2.0], "label": 0}]}),
                 "video 'v0' row 0"),
}
BAD_LABELS = {
    "no_label": (json.dumps({"v0": [{"segment": [1.0, 2.0], "score": 0.5}]}),
                 "video 'v0' row 0"),
    "float_label": (json.dumps({"v0": [row(label=1.0)]}), "video 'v0' row 0"),
    "bool_label": (json.dumps({"v0": [row(label=True)]}), "video 'v0' row 0"),
}


def run_eval(command, text, manifest, tmp_path, capsys):
    preds = tmp_path / "preds.json"
    preds.write_text(text, encoding="utf-8")
    out = tmp_path / "report.tsv"
    flag = "--detections" if command == "eval-det" else "--proposals"
    code = cli.main([command, "--manifest", str(manifest), flag, str(preds),
                     "--out", str(out)])
    return code, capsys.readouterr().err, preds, out


@pytest.mark.parametrize("command", ["eval-det", "eval-prop"])
@pytest.mark.parametrize("case", sorted(BAD_PREDICTIONS))
def test_malformed_predictions_exit_1_with_one_error_line(command, case, manifest,
                                                          tmp_path, capsys):
    text, names = BAD_PREDICTIONS[case]
    code, err, preds, out = run_eval(command, text, manifest, tmp_path, capsys)
    assert code == 1
    assert err.startswith(f"error: {preds}: ")
    assert names in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_detections_without_an_integer_label_exit_1(case, manifest, tmp_path, capsys):
    text, names = BAD_LABELS[case]
    code, err, preds, out = run_eval("eval-det", text, manifest, tmp_path, capsys)
    assert (code, err.count("\n")) == (1, 1)
    assert err.startswith(f"error: {preds}: ") and names in err
    # proposals carry no label, so the same file scores
    code, err, _, out = run_eval("eval-prop", text, manifest, tmp_path, capsys)
    assert (code, err) == (0, "")
    assert out.exists()


def test_eval_prop_report_reads_ar_and_auc_off_one_curve(manifest, tmp_path, capsys):
    from tspkit import corpus, evalkit

    gts = evalkit.ground_truth_from_corpus(corpus.load_manifest(manifest), "valid")
    # per video: each GT, a shifted copy of it and a long low-scored miss
    preds = {}
    for g in gts:
        preds.setdefault(g.video_id, []).extend([
            evalkit.ProposalPrediction(g.video_id, g.t_start, g.t_end, 0.9),
            evalkit.ProposalPrediction(g.video_id, g.t_start + 0.3 * g.length,
                                       g.t_end + 0.3 * g.length, 0.8),
            evalkit.ProposalPrediction(g.video_id, 0.0, 0.5, 0.1)])
    path = tmp_path / "props.json"
    evalkit.save_predictions(preds, path)
    out = tmp_path / "report.tsv"
    assert cli.main(["eval-prop", "--manifest", str(manifest), "--proposals", str(path),
                     "--out", str(out)]) == 0
    props = evalkit.load_predictions(path, kind="proposals")
    want = [f"AR@{budget}\t{ar!r}" for budget, ar in evalkit.ar_at_an(props, gts, (1, 10, 100))]
    want.append(f"AUC\t{evalkit.auc_100(props, gts)!r}")
    assert out.read_text().splitlines()[2:] == want


# ---------------------------------------------------------------------------
# malformed manifest, checkpoint and track files


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """A small manifest, a tsp checkpoint trained on it, and one of its tracks."""
    from tspkit import corpus as corpus_mod, extract, pretrain

    root = tmp_path_factory.mktemp("good")
    manifest_path = root / "corpus.json"
    assert cli.main(["gen-corpus", "--out", str(manifest_path), "--train-videos", "1",
                     "--valid-videos", "1", "--classes", "2"]) == 0
    corpus = corpus_mod.load_manifest(manifest_path)
    cfg = pretrain.TrainConfig(epochs=0, warmup_epochs=0, head_lr_grid=(0.004,),
                               embed_dim=4, blocks=1, init="random")
    ckpt, _ = pretrain.train(corpus, cfg)
    ckpt_path = root / "ckpt.json"
    pretrain.save_checkpoint(ckpt, ckpt_path)
    track_path = root / "track.csv"
    extract.write_track(extract.extract_track(corpus, corpus.subset_videos("valid")[0], ckpt),
                        track_path)
    files = {"manifest": manifest_path, "checkpoint": ckpt_path, "track": track_path,
             "detections": root / "detections.json", "proposals": root / "proposals.json",
             "config": root / "localize.json"}
    assert cli.main(["localize", "--tracks", str(track_path), "--detections-out",
                     str(files["detections"]), "--proposals-out", str(files["proposals"])]) == 0
    files["config"].write_text(json.dumps({"window": 3, "thresholds": "0.3,0.6",
                                           "nms_tiou": 0.8, "max_predictions": 50,
                                           "actionness": "region"}), encoding="utf-8")
    return files


def edit_json(change):
    def mutate(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return mutate


def first_video(doc):
    return doc["videos"][sorted(doc["videos"])[0]]


def set_video(**fields):
    return edit_json(lambda doc: first_video(doc).update(fields))


def set_synth(**fields):
    return edit_json(lambda doc: doc["synth"].update(fields))


def set_bias(value):
    return edit_json(lambda doc: doc["heads"]["action_bias"]["data"].__setitem__(0, value))


def add_heads_key(doc):
    doc["heads"]["extra"] = doc["heads"]["action_bias"]


def replace_block_record(doc):
    doc["encoder"]["blocks"][0] = [1.0, 2.0]


def transpose_action_weight(doc):
    doc["heads"]["action_weight"]["shape"].reverse()  # same bytes, so the same id


def shorten_first_gvf_row(doc):
    features = doc["global_features"]["features"]
    features[sorted(features)[0]].pop()


def set_unknown_mode(doc):
    """Mode "bogus", with the id recomputed so that only the mode check can catch it."""
    from tspkit import pretrain
    ckpt = pretrain.checkpoint_from_dict(doc)
    doc["mode"] = "bogus"
    doc["checkpoint_id"] = pretrain.params_hash(ckpt.encoder, ckpt.heads,
                                                prefix=f"bogus{ckpt.seed}".encode())


def keep_one_class(doc):
    """One class, every annotation relabelled to it, hard background."""
    doc["classes"] = doc["classes"][:1]
    doc["synth"]["background_mode"] = "hard"
    for video in doc["videos"].values():
        for ann in video.get("annotations", []):
            ann["label"] = doc["classes"][0]


def replace_video_record(doc):
    doc["videos"][sorted(doc["videos"])[0]] = []


def set_annotation_label(doc):
    first_video(doc)["annotations"][0]["label"] = [1]


def set_config(**fields):
    return edit_json(lambda doc: doc["config"].update(fields))


def set_header(key, value):
    def mutate(text):
        start = text.index(f"# {key}=")
        return f"{text[:start]}# {key}={value}{text[text.index(chr(10), start):]}"
    return mutate


def set_first_row_field(column, value):
    def mutate(text):
        lines = text.splitlines(keepends=True)
        head = next(i for i, line in enumerate(lines) if line.startswith("t_center,"))
        fields = lines[head + 1].rstrip("\n").split(",")
        fields[lines[head].rstrip("\n").split(",").index(column)] = value
        lines[head + 1] = ",".join(fields) + "\n"
        return "".join(lines)
    return mutate


def replace_first_field(text):
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("0.0,"))
    lines[row] = "zz" + lines[row][3:]
    return "".join(lines)


TRUNCATED = ("truncated", lambda text: text[:len(text) // 2])
NOT_JSON = ("not_json", lambda text: "this is not json\n")
NOT_UTF8 = ("not_utf8", lambda text: b"\xff\xfe\x00{")
ROOT_LIST = ("root_not_object", lambda text: "[1, 2]")
WRONG_VERSION = ("wrong_schema_version", edit_json(lambda doc: doc.update(schema_version=99)))
# (file, case, text of the good file -> text or bytes of the bad one)
BAD_FILES = [
    *[("manifest", *case) for case in (TRUNCATED, NOT_JSON, NOT_UTF8, ROOT_LIST,
                                       WRONG_VERSION)],
    ("manifest", "video_not_object", edit_json(replace_video_record)),
    ("manifest", "no_subset", edit_json(lambda doc: first_video(doc).pop("subset"))),
    ("manifest", "string_duration", set_video(duration_sec="abc")),
    ("manifest", "nan_duration", set_video(duration_sec=float("nan"))),
    ("manifest", "infinite_fps", set_video(fps=float("inf"))),
    ("manifest", "nan_noise_sigma", set_synth(noise_sigma=float("nan"))),
    ("manifest", "infinite_noise_sigma", set_synth(noise_sigma=float("inf"))),
    ("manifest", "negative_noise_sigma", set_synth(noise_sigma=-0.5)),
    ("manifest", "zero_channels", set_synth(channels=0)),
    ("manifest", "zero_height", set_synth(height=0)),
    ("manifest", "zero_width", set_synth(width=0)),
    ("manifest", "height_above_limit", set_synth(height=113)),
    ("manifest", "hard_one_class", edit_json(keep_one_class)),
    ("manifest", "list_label", edit_json(set_annotation_label)),
    ("manifest", "infinite_frame_seed", set_video(frame_seed=float("inf"))),
    ("manifest", "fractional_frame_seed", set_video(frame_seed=1.7)),
    ("manifest", "infinite_master_seed", set_synth(master_seed=float("inf"))),
    ("manifest", "bool_width", set_synth(width=True)),
    ("manifest", "fractional_width", set_synth(width=1.9)),
    ("manifest", "string_fps", set_video(fps="4")),
    *[("checkpoint", *case) for case in (TRUNCATED, NOT_JSON, NOT_UTF8, ROOT_LIST,
                                         WRONG_VERSION)],
    ("checkpoint", "no_heads", edit_json(lambda doc: doc.pop("heads"))),
    ("checkpoint", "heads_extra_key", edit_json(add_heads_key)),
    ("checkpoint", "block_not_object", edit_json(replace_block_record)),
    ("checkpoint", "features_not_object",
     edit_json(lambda doc: doc["global_features"].update(features=[]))),
    ("checkpoint", "string_weight", set_bias("x")),
    ("checkpoint", "nan_weight", set_bias(float("nan"))),
    ("checkpoint", "heads_transposed", edit_json(transpose_action_weight)),
    ("checkpoint", "gvf_short_row", edit_json(shorten_first_gvf_row)),
    ("checkpoint", "bogus_mode", edit_json(set_unknown_mode)),
    ("checkpoint", "string_seed", edit_json(lambda doc: doc.update(seed="0"))),
    ("checkpoint", "null_clip_len", set_config(clip_len=None)),
    ("checkpoint", "zero_clip_len", set_config(clip_len=0)),
    ("checkpoint", "string_frame_stride", set_config(frame_stride="x")),
    ("checkpoint", "huge_embed_dim",
     edit_json(lambda doc: doc["encoder"]["config"].update(embed_dim=2**40))),
    ("track", "truncated", lambda text: text[:text.index("# feature_dim")]),
    ("track", "not_utf8", NOT_UTF8[1]),
    ("track", "renamed_column", lambda text: text.replace(",f_0,", ",g_0,")),
    ("track", "string_feature_dim", lambda text: text.replace("# feature_dim=4",
                                                              "# feature_dim=abc")),
    ("track", "string_gvf", lambda text: text.replace("# gvf=", "# gvf=x;")),
    ("track", "string_field", replace_first_field),
    ("track", "zero_fps", set_header("fps", "0")),
    ("track", "nan_fps", set_header("fps", "nan")),
    ("track", "infinite_fps", set_header("fps", "inf")),
    ("track", "negative_fps", set_header("fps", "-4")),
    ("track", "zero_clip_len", set_header("clip_len", "0")),
    ("track", "negative_frame_stride", set_header("frame_stride", "-2")),
    ("track", "zero_num_frames", set_header("num_frames", "0")),
    ("track", "zero_hop_frames", set_header("hop_frames", "0")),
    ("track", "nan_t_center", set_first_row_field("t_center", "nan")),
    ("track", "p_fg_above_one", set_first_row_field("p_fg", "7.5")),
    ("track", "one_empty_p_fg", set_first_row_field("p_fg", "")),
]


def run_with_bad_file(kind, bad, good_files, tmp_path):
    out = tmp_path / "out"
    files = {**good_files, kind: bad}
    if kind == "track":
        argv = ["localize", "--tracks", str(bad), "--detections-out", str(out),
                "--proposals-out", str(tmp_path / "props.json")]
    else:
        argv = ["extract", "--manifest", str(files["manifest"]),
                "--checkpoint", str(files["checkpoint"]), "--out-dir", str(out)]
    return cli.main(argv), out


@pytest.mark.parametrize("kind,case,mutate", BAD_FILES,
                         ids=[f"{kind}-{case}" for kind, case, _ in BAD_FILES])
def test_malformed_input_file_exits_1_with_one_error_line_naming_it(
        kind, case, mutate, good_files, tmp_path, capsys):
    capsys.readouterr()
    bad = tmp_path / f"bad_{kind}"
    content = mutate(good_files[kind].read_text(encoding="utf-8"))
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content, encoding="utf-8")
    code, out = run_with_bad_file(kind, bad, good_files, tmp_path)
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {bad}: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("use_config", [False, True], ids=["flag", "config"])
def test_extract_refuses_a_zero_hop_before_making_its_output_directory(
        use_config, good_files, tmp_path, capsys):
    config = tmp_path / "extract.json"
    config.write_text(json.dumps({"hop": 0}), encoding="utf-8")
    hop = ["--config", str(config)] if use_config else ["--hop", "0"]
    out = tmp_path / "tracks"
    argv = ["extract", *hop, "--manifest", str(good_files["manifest"]),
            "--checkpoint", str(good_files["checkpoint"]), "--out-dir", str(out)]
    if use_config:
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (f"error: --config {config}: hop: must be a "
                                           f"positive integer, not 0\n")
    else:
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 2
        assert "argument --hop: must be a positive integer, not 0" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# extract and localize run their videos and track files in workers


@pytest.fixture(scope="module")
def four_videos(tmp_path_factory):
    """A manifest with four valid videos, and a tsp and a tac checkpoint for it."""
    from tspkit import corpus as corpus_mod, pretrain

    root = tmp_path_factory.mktemp("four")
    manifest_path = root / "corpus.json"
    assert cli.main(["gen-corpus", "--out", str(manifest_path), "--train-videos", "2",
                     "--valid-videos", "4", "--classes", "2", "--seed", "3"]) == 0
    corpus = corpus_mod.load_manifest(manifest_path)
    files = {"manifest": manifest_path}
    for mode in ("tsp", "tac"):
        cfg = pretrain.TrainConfig(mode=mode, epochs=0, warmup_epochs=0,
                                   head_lr_grid=(0.004,), embed_dim=4, blocks=1,
                                   init="random")
        files[mode] = root / f"{mode}.json"
        pretrain.save_checkpoint(pretrain.train(corpus, cfg)[0], files[mode])
    return files


def extract_and_localize(files, mode, out, capsys, actionness="region"):
    """Exit codes and stderr of ``extract`` then ``localize`` into ``out``."""
    tracks = out / "tracks"
    codes = [cli.main(["extract", "--manifest", str(files["manifest"]),
                       "--checkpoint", str(files[mode]), "--out-dir", str(tracks)])]
    if codes[0] == 0:
        codes.append(cli.main(["localize", "--tracks", str(tracks),
                               "--detections-out", str(out / "detections.json"),
                               "--proposals-out", str(out / "proposals.json"),
                               "--actionness", actionness]))
    return codes, capsys.readouterr().err


def test_extract_and_localize_write_the_same_bytes_at_one_and_two_workers(
        four_videos, tmp_path, monkeypatch, capsys):
    written = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("TSPKIT_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        assert extract_and_localize(four_videos, "tsp", out, capsys) == ([0, 0], "")
        # the flags lines name the output paths, which differ between the two runs
        written[threads] = {
            path.relative_to(out).as_posix(): [line for line in path.read_text().splitlines()
                                               if "flags=" not in line
                                               and "__invocation__" not in line]
            for path in sorted(out.rglob("*.*"))}
    assert len(written["1"]) == 4 + 2
    assert written["1"] == written["2"]


def test_a_frame_geometry_mismatch_fails_extract_before_its_output_directory(
        four_videos, tmp_path, monkeypatch, capsys):
    # checked once, in the parent, so no worker starts and no --out-dir is made
    monkeypatch.setenv("TSPKIT_THREADS", "2")
    tall = tmp_path / "tall.json"
    assert cli.main(["gen-corpus", "--out", str(tall), "--train-videos", "1",
                     "--valid-videos", "4", "--classes", "2", "--height", "2"]) == 0
    capsys.readouterr()
    codes, err = extract_and_localize({**four_videos, "manifest": tall}, "tsp",
                                      tmp_path / "out", capsys)
    assert codes == [1]
    assert err == (f"error: checkpoint {four_videos['tsp']} expects 16x1x1 frames, "
                   f"manifest {tall} has 16x2x1\n")
    assert not (tmp_path / "out").exists()


def test_region_actionness_on_tac_tracks_names_the_first_track_through_the_pool(
        four_videos, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TSPKIT_THREADS", "2")
    codes, err = extract_and_localize(four_videos, "tac", tmp_path, capsys)
    first = sorted((tmp_path / "tracks").glob("*.csv"))[0]
    assert codes == [0, 2]
    assert err.startswith(f"error: {first}: track has no region scores")
    assert err.count("\n") == 1
    assert not (tmp_path / "detections.json").exists()


def test_eval_det_report_writes_each_threshold_and_their_mean(manifest, tmp_path, capsys):
    from tspkit import corpus, evalkit

    gts = evalkit.ground_truth_from_corpus(corpus.load_manifest(manifest), "valid")
    preds = {}
    for k, g in enumerate(gts):  # each GT shifted by a share of its length, and a miss
        shift = (0.02, 0.1, 0.2, 0.3)[k % 4] * g.length
        preds.setdefault(g.video_id, []).extend([
            evalkit.DetectionPrediction(g.video_id, g.class_index, g.t_start + shift,
                                        g.t_end + shift, 0.9 - 0.01 * k),
            evalkit.DetectionPrediction(g.video_id, g.class_index, 0.0, 0.5, 0.5)])
    path = tmp_path / "dets.json"
    evalkit.save_predictions(preds, path)
    out = tmp_path / "report.tsv"
    assert cli.main(["eval-det", "--manifest", str(manifest), "--detections", str(path),
                     "--out", str(out)]) == 0
    dets = evalkit.load_predictions(path, kind="detections")
    want = [f"mAP@{thr:.2f}\t{evalkit.map_at(dets, gts, thr)!r}" for thr in evalkit.TIOU_GRID]
    want.append(f"average_mAP\t{evalkit.average_map(dets, gts)!r}")
    assert out.read_text().splitlines()[2:] == want


# ---------------------------------------------------------------------------
# mutation fuzz: each run changes one value of one good input file


DELETE = object()
MUTATIONS = (DELETE, None, True, False, "", [1], {"k": 1}, float("nan"), float("inf"),
             float("-inf"), 2**70, -1)


def json_paths(doc, prefix=()):
    """The key path of every value below the root. A list of numbers gives its
    first three items only: the others decode the same way."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        numbers = all(isinstance(v, (int, float)) for v in doc)
        items = list(enumerate(doc))[:3 if numbers else None]
    else:
        items = ()
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


def mutate_json(text, path, mutation):
    doc = json.loads(text)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation
    return json.dumps(doc)


def track_leaves(text):
    """(line, field) of every header value (field None) and of every field of the
    column row and of the first two and the last data rows."""
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("t_center,"))
    leaves = [(i, None) for i, line in enumerate(lines[:head]) if "=" in line]
    for i in (head, head + 1, head + 2, len(lines) - 1):
        leaves += [(i, j) for j in range(len(lines[i].split(",")))]
    return leaves


def mutate_track(text, leaf, mutation):
    """A header line loses its value or the line itself; a row field is replaced
    by the mutation's text, or dropped."""
    lines = text.splitlines()
    i, j = leaf
    value = [] if mutation is DELETE else ["" if mutation == "" else json.dumps(mutation)]
    if j is None:
        key = lines[i].split("=", 1)[0]
        lines[i:i + 1] = [f"{key}={v}" for v in value]
    else:
        fields = lines[i].split(",")
        fields[j:j + 1] = value
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def fuzz_run(kind, files, out):
    """argv of the command that reads ``files[kind]``, and the files it writes."""
    f = {k: str(v) for k, v in files.items()}
    if kind in ("manifest", "checkpoint"):
        return (["extract", "--manifest", f["manifest"], "--checkpoint", f["checkpoint"],
                 "--out-dir", str(out / "tracks")], [out / "tracks"])
    if kind in ("track", "config"):
        config = ["--config", f["config"]] if kind == "config" else []
        return (["localize", *config, "--tracks", f["track"],
                 "--detections-out", str(out / "d.json"),
                 "--proposals-out", str(out / "p.json")], [out / "d.json", out / "p.json"])
    command, flag = (("eval-det", "--detections") if kind == "detections"
                     else ("eval-prop", "--proposals"))
    return ([command, "--manifest", f["manifest"], flag, f[kind], "--out", str(out / "r.tsv"),
             *(["--detad"] if kind == "detections" else [])], [out / "r.tsv"])


def run_quietly(argv):
    """cli.main's exit code and stderr, in one process, with every warning an error."""
    err = io.StringIO()
    with (mock.patch.dict(os.environ, TSPKIT_THREADS="1"), warnings.catch_warnings(),
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("kind", ["manifest", "checkpoint", "track", "detections",
                                  "proposals", "config"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_mutated_value_exits_cleanly_naming_the_file(kind, good_files, data):
    text = good_files[kind].read_text(encoding="utf-8")
    leaves = track_leaves(text) if kind == "track" else list(json_paths(json.loads(text)))
    leaf = data.draw(st.sampled_from(leaves), label="leaf")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    text = (mutate_track if kind == "track" else mutate_json)(text, leaf, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        bad = tmp / f"bad_{kind}"
        bad.write_text(text, encoding="utf-8")
        argv, outputs = fuzz_run(kind, {**good_files, kind: bad}, tmp)
        code, err = run_quietly(argv)
        assert code in (0, 1, 2)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(bad) in err
            assert not any(p.exists() for p in outputs)
