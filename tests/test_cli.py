"""Command-line exit codes and error messages."""

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
