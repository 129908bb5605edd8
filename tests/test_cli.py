"""Command-line exit codes and error messages."""

import json
import sys

import pytest

from tspkit import cli


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


def test_gen_corpus_refuses_a_manifest_that_could_not_be_loaded(tmp_path, capsys):
    path = tmp_path / "corpus.json"
    assert cli.main(["gen-corpus", "--out", str(path), "--train-videos", "1",
                     "--noise-sigma", "-0.5"]) == 1
    assert capsys.readouterr().err.startswith("error: noise_sigma -0.5")
    assert not path.exists()


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
    return {"manifest": manifest_path, "checkpoint": ckpt_path, "track": track_path}


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
    ("track", "truncated", lambda text: text[:text.index("# feature_dim")]),
    ("track", "not_utf8", NOT_UTF8[1]),
    ("track", "renamed_column", lambda text: text.replace(",f_0,", ",g_0,")),
    ("track", "string_feature_dim", lambda text: text.replace("# feature_dim=4",
                                                              "# feature_dim=abc")),
    ("track", "string_gvf", lambda text: text.replace("# gvf=", "# gvf=x;")),
    ("track", "string_field", replace_first_field),
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


def test_a_frame_geometry_mismatch_fails_extract_through_the_pool(
        four_videos, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TSPKIT_THREADS", "2")
    tall = tmp_path / "tall.json"
    assert cli.main(["gen-corpus", "--out", str(tall), "--train-videos", "1",
                     "--valid-videos", "4", "--classes", "2", "--height", "2"]) == 0
    capsys.readouterr()
    codes, err = extract_and_localize({**four_videos, "manifest": tall}, "tsp",
                                      tmp_path / "out", capsys)
    assert codes == [1]
    assert err == "error: checkpoint expects 16x1x1 frames, corpus has 16x2x1\n"


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
