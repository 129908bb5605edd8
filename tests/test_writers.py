"""The text output files: golden bytes for every writer, and a scan that only
``tspkit.decode`` writes text or JSON."""

import ast
import contextlib
import hashlib
from pathlib import Path

import pytest

import tspkit
from tspkit import analysis, bench, cli

# the CLI pipeline, run in its output directory so each flags line holds the
# same relative paths on every run
PIPELINE = [
    "gen-corpus --out corpus.json --train-videos 4 --valid-videos 3 --classes 2 "
    "--duration-min 40 --duration-max 80 --instances-max 2",
    "pretrain --manifest corpus.json --out ckpt.json --log train_log.tsv --epochs 3 "
    "--warmup-epochs 1 --decay-epochs 2 --head-lr-grid 0.004,0.008 --batch-size 8 "
    "--embed-dim 4 --blocks 1 --init random",
    "extract --manifest corpus.json --checkpoint ckpt.json --out-dir tracks",
    "localize --tracks tracks --detections-out detections.json "
    "--proposals-out proposals.json --window 3",
    "eval-det --manifest corpus.json --detections detections.json --out det.tsv --detad",
    "eval-prop --manifest corpus.json --proposals proposals.json --out prop.tsv",
    "analyze-sim --track tracks/valid_0000.csv --manifest corpus.json --out-prefix sim",
]

# sha256 of each file's bytes, taken before the writers moved into ``decode``;
# the pipeline trains a tsp checkpoint, so all but the two bench tables were
# retaken when its GVF came to pool the non-overlapping clip grid
GOLDEN_DIGESTS = {
    "train_log.tsv": "251ccffe54bd7296e987ae25af0c49e1b8322f02324961bd964f2b7896de616d",
    "detections.json": "a57468027c3533eb6682e64ac0d35de18912d730319e4dfad025cc267f023ba4",
    "proposals.json": "5c8b9f3ee8fc7b5dbaafd327bec7be4103ca822bec2e7307b4a244c3f4694207",
    "det.tsv": "7a5940010baace0aada185f51aa9b6e96cae6d05d9ee0bb128b324f887fcb667",
    "prop.tsv": "6a855119bc5811485c8db3d859bdd8cf3e4502f0318ab55848f12e3cf40b1a9a",
    "sim.csv": "85ff989d2f565ae74ef0fb182f613830fd0e3259fed590178363bac3aee7957f",
    "sim_contrast.tsv": "1c01b30de57c53b82b77270cbf34560050a6be838c306f0d2354835e0e56b088",
    "bench_table.tsv": "1beaf23d01dde89d645dd4a2cd227fbebc5a7840834b6afd80cd0580e9343fd5",
    "cell_seed3.tsv": "095ba98ec9d2fec236fafb073a8b29c4f31e82d8707fb12baaad55bc56b4b90c",
}


def write_bench_tables(out: Path) -> None:
    """Fixed study results: the tac mode has no region accuracy."""
    per_seed = {3: {"tsp": {"average_map": 0.25, "auc": 41.5, "region_acc": 0.875,
                            "contrast": 0.1 + 0.2},
                    "tac": {"average_map": 1 / 3, "auc": 40.0, "contrast": -0.0625}}}
    table = {mode: {metric: analysis.AggregateStat(value, abs(value) / 7, 2)
                    for metric, value in metrics.items()}
             for mode, metrics in per_seed[3].items()}
    bench.write_bench_table(table, out / "bench_table.tsv", flags_comment="bench --seeds 3")
    bench.write_cell_tables(per_seed, out, flags_comment="bench --seeds 3")


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    out = tmp_path_factory.mktemp("outputs")
    with contextlib.chdir(out):
        for argv in PIPELINE:
            assert cli.main(argv.split()) == 0, argv
    write_bench_tables(out)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_DIGESTS}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_output_file_matches_golden_digest(name, digests):
    assert digests[name] == GOLDEN_DIGESTS[name]


# the one file a module other than ``decode`` may write: a binary image
ALLOWED_WRITES = {("analysis.py", "export_pgm")}


def writes_a_file(call: ast.Call) -> bool:
    """``json.dump``, ``write_text``, ``write_bytes``, or an ``open`` whose mode
    is not a read-only constant."""
    name = ast.unparse(call.func)
    if name == "json.dump" or name.endswith((".write_text", ".write_bytes")):
        return True
    if name != "open" and not name.endswith(".open"):
        return False
    at = 1 if name == "open" else 0  # open(path, mode) but Path.open(mode)
    mode = call.args[at] if len(call.args) > at else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_writes(path: Path) -> list[str]:
    """Each call in module ``path`` that writes a file, outside ``ALLOWED_WRITES``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (isinstance(node, ast.Call) and writes_a_file(node)
              and (path.name, function) not in ALLOWED_WRITES):
            found.append(f"{path.name}:{node.lineno} in {function}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_the_writer_scan_finds_each_kind_of_write():
    calls = ["json.dump(doc, fh)", "open(path, 'w')", "open(path, mode='a')", "open(p, 'r+')",
             "Path(p).open('x')", "open(path, mode)", "p.write_text(s)", "p.write_bytes(b)"]
    reads = ["json.load(fh)", "open(path)", "open(path, 'r', encoding='utf-8')",
             "open(path, 'rb')", "Path(p).open()"]
    for text, writes in [(call, True) for call in calls] + [(call, False) for call in reads]:
        assert writes_a_file(ast.parse(text).body[0].value) == writes, text


def test_only_decode_writes_text_or_json():
    package = Path(tspkit.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "decode.py")
    assert len(modules) > 10
    assert [call for path in modules for call in file_writes(path)] == []
