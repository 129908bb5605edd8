"""Command-line exit codes and error messages."""

import json

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
