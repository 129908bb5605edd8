"""The benchmark workloads: evaluate and study.

Each workload is a closed loop run from one process: the next timed run
starts when the previous one has finished. Everything comes from the workload
seed: the default ``SynthConfig`` corpus and every training seed.

A workload has four parts:

* ``setup`` builds what every timed run needs and returns the set-up seconds;
* ``run_once`` does one timed run on a fresh ``Corpus`` in a fresh directory
  and returns its wall seconds and one ``Outcome`` per program run, each with
  a digest of that run's outputs;
* ``check`` verifies the outputs beyond run-to-run agreement (untimed);
* ``end_to_end`` and ``layer_extras`` turn what was measured into metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tspkit import bench, cli, corpus as corpus_mod, extract, pretrain, sampler

MODES = ("tsp", "tsp_nogvf", "tac")  # every workload covers all three
SETUP_REPEATS = 11  # corpus set-up takes 10-20 ms, so take the median of several
# ``tspkit`` in a child process, imported from this checkout's src/
_CLI_CHILD = ("import sys; sys.path.insert(0, {src!r}); from tspkit.cli import main; "
              "sys.exit(main(sys.argv[1:]))").format(
                  src=str(Path(__file__).resolve().parent.parent / "src"))


@dataclass
class Outcome:
    """One program run inside a timed run; runs with the same key must agree."""

    key: str
    ok: bool
    digest: str | None = None
    error: str | None = None


class SetupError(RuntimeError):
    """Set-up failed, so no run can be measured."""


# ---------------------------------------------------------------------------
# helpers


def _sha256(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _text_without_flags(path: Path) -> str:
    """File text minus the "# flags=" lines, which embed the caller's argv."""
    with open(path, encoding="utf-8") as fh:
        return "".join(line for line in fh if not line.startswith("# flags="))


def _json_without_invocation(path: Path) -> str:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("__invocation__", None)
    return json.dumps(doc, sort_keys=True)


def _read_tsv_metrics(path: Path) -> dict[str, str]:
    out = {}
    for line in _text_without_flags(path).splitlines():
        if line and not line.startswith("#"):
            fields = line.split("\t")
            out[fields[0]] = fields[1]
    return out


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``tspkit`` in this process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def make_corpus(seed: int, manifest: Path) -> tuple[float, corpus_mod.Corpus]:
    """Generate the default corpus and write its manifest, SETUP_REPEATS times.

    Returns the median seconds of one repetition and the corpus.
    """
    times = []
    corpus = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        corpus = corpus_mod.generate_synthetic(corpus_mod.SynthConfig(), seed)
        corpus_mod.save_manifest(corpus, manifest)
        times.append(time.perf_counter() - start)
    return statistics.median(times), corpus


def training_clips(corpus: corpus_mod.Corpus, cfg: pretrain.TrainConfig) -> int:
    """Clips in all training batches of one ``train`` call (no warm start)."""
    per_grid_cell = sum(
        len(sampler.build_epoch(
            corpus, "train", epoch, cfg.seed, clips_per_segment=cfg.clips_per_segment,
            clip_len=cfg.clip_len, frame_stride=cfg.frame_stride,
            fg_only=(cfg.mode == "tac"), resample_each_epoch=cfg.resample_each_epoch))
        for epoch in range(cfg.epochs))
    return len(cfg.head_lr_grid) * per_grid_cell


def seed_training_clips(corpus: corpus_mod.Corpus, seed: int) -> int:
    """Clips trained by ``bench.run_seed``: the tac base, then every mode."""
    train_cfg = bench.default_bench_train_config()
    base = replace(train_cfg, seed=seed, mode="tac", init="random")
    return training_clips(corpus, base) + sum(
        training_clips(corpus, replace(train_cfg, seed=seed, mode=m)) for m in MODES)


def _check_selection(ckpt: pretrain.Checkpoint, label: str) -> list[str]:
    """The selected cell is a logged, finite row and no row scores higher."""
    problems = []
    sel = ckpt.selection
    rows = [r for r in sel.rows if not r.diverged]
    if len(rows) != len(sel.rows):
        problems.append(f"{label}: {len(sel.rows) - len(rows)} grid cells diverged")

    def score(r):
        if ckpt.mode == "tac" or r.region_acc is None:
            return r.action_acc
        return 0.5 * (r.action_acc + r.region_acc)

    chosen = [r for r in rows if r.head_lr == sel.head_lr and r.epoch == sel.epoch]
    if len(chosen) != 1 or score(chosen[0]) != sel.score:
        problems.append(f"{label}: selection {sel.head_lr}/{sel.epoch} is not a logged row")
    if rows and max(score(r) for r in rows) != sel.score:
        problems.append(f"{label}: a row scores higher than the selection")
    if not 0.0 < sel.score <= 1.0:
        problems.append(f"{label}: selection score {sel.score} outside (0, 1]")
    round_trip = pretrain.checkpoint_from_dict(pretrain.checkpoint_to_dict(ckpt))
    if round_trip.checkpoint_id != ckpt.checkpoint_id:
        problems.append(f"{label}: checkpoint does not round-trip")
    return problems


def _same_track(a: extract.FeatureTrack, b: extract.FeatureTrack) -> bool:
    arrays = ("center_times", "features", "region_probs", "action_logits", "global_feature")
    return a.checkpoint_id == b.checkpoint_id and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in arrays)


def _check_quality(average_map: float, auc: float, label: str) -> list[str]:
    problems = []
    if not 0.0 < average_map <= 1.0:
        problems.append(f"{label}: average mAP {average_map} outside (0, 1]")
    if not 0.0 < auc <= 100.0:
        problems.append(f"{label}: AUC {auc} outside (0, 100]")
    return problems


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.manifest = workdir / "manifest.json"
        self.corpus: corpus_mod.Corpus | None = None
        self.mode_quality: dict[str, tuple[float, float]] = {}  # (average mAP, AUC)

    def bench_workers(self) -> int:
        """Workers `bench` uses in a timed run (1 runs it in this process); 0 without bench."""
        return 0

    @property
    def valid_videos(self) -> int:
        return len(self.corpus.subset_videos("valid"))

    def layer_extras(self) -> dict[str, float]:
        """Per-mode quality (average mAP, AUC) for the traced run."""
        out = {}
        for mode in MODES:
            amap, auc = self.mode_quality.get(mode, (0.0, 0.0))
            out[f"bench.average_map.{mode}"] = amap
            out[f"bench.auc.{mode}"] = auc
        return out


class Evaluate(Workload):
    """extract -> localize -> eval-det --detad -> eval-prop per checkpoint, via files."""

    name = "evaluate"

    def setup(self) -> float:
        """Corpus, then the checkpoints, trained by ``train_checkpoints.py``."""
        corpus_s, self.corpus = make_corpus(self.seed, self.manifest)
        self.checkpoints = {mode: self.workdir / f"{mode}.json" for mode in MODES}
        start = time.perf_counter()
        script = Path(__file__).with_name("train_checkpoints.py")
        proc = subprocess.run([sys.executable, str(script), str(self.manifest),
                               str(self.seed), str(self.workdir)], check=False)
        self.train_s = time.perf_counter() - start
        if proc.returncode != 0:
            raise SetupError(f"checkpoint training exited {proc.returncode}")
        self.val_score = pretrain.load_checkpoint(self.checkpoints["tsp"]).selection.score
        return corpus_s + self.train_s

    def _evaluate(self, mode: str, out: Path) -> Outcome:
        tracks = out / "tracks"
        det, prop = out / "detections.json", out / "proposals.json"
        det_report, prop_report = out / "det_report.tsv", out / "prop_report.tsv"
        manifest = str(self.manifest)
        steps = [
            ["extract", "--manifest", manifest, "--checkpoint", str(self.checkpoints[mode]),
             "--split", "valid", "--out-dir", str(tracks)],
            ["localize", "--tracks", str(tracks), "--detections-out", str(det),
             "--proposals-out", str(prop),
             "--actionness", "max-prob" if mode == "tac" else "region"],
            ["eval-det", "--manifest", manifest, "--subset", "valid",
             "--detections", str(det), "--out", str(det_report), "--detad"],
            ["eval-prop", "--manifest", manifest, "--subset", "valid",
             "--proposals", str(prop), "--out", str(prop_report)],
        ]
        for argv in steps:
            code, err = call_cli(argv)
            if code != 0:
                return Outcome(mode, False, error=f"{argv[0]} exited {code}: {err}")
        return Outcome(mode, True)

    def _digest(self, mode: str, out: Path) -> str:
        parts = []
        for path in sorted((out / "tracks").glob("*.csv")):
            parts += [path.name, _text_without_flags(path)]
        for name in ("det_report.tsv", "prop_report.tsv"):
            parts += [name, _text_without_flags(out / name)]
        for name in ("detections.json", "proposals.json"):
            parts += [name, _json_without_invocation(out / name)]
        return _sha256(parts)

    def run_once(self, tmp: Path) -> tuple[float, list[Outcome]]:
        outcomes = []
        wall = 0.0
        for mode in MODES:
            out = tmp / mode
            start = time.perf_counter()
            outcome = self._evaluate(mode, out)
            wall += time.perf_counter() - start
            if outcome.ok:
                outcome.digest = self._digest(mode, out)
                if mode == "tsp":
                    self.tsp_tracks = [extract.read_track(path)
                                       for path in sorted((out / "tracks").glob("*.csv"))]
                det = _read_tsv_metrics(out / "det_report.tsv")
                prop = _read_tsv_metrics(out / "prop_report.tsv")
                self.mode_quality[mode] = (float(det["average_mAP"]), float(prop["AUC"]))
            outcomes.append(outcome)
        return wall, outcomes

    def check(self) -> list[str]:
        problems = []
        ckpts = {m: pretrain.load_checkpoint(p) for m, p in self.checkpoints.items()}
        for mode, ckpt in ckpts.items():
            problems += _check_selection(ckpt, f"{mode} checkpoint")
        for mode, (amap, auc) in self.mode_quality.items():
            problems += _check_quality(amap, auc, f"{mode} reports")
        # the file interface must give exactly what the in-memory path gives
        fresh = corpus_mod.load_manifest(self.manifest)
        read = {track.video_id: track for track in self.tsp_tracks}
        for video in fresh.subset_videos("valid"):
            if video.id not in read or not _same_track(
                    extract.extract_track(fresh, video, ckpts["tsp"]), read[video.id]):
                problems.append(f"tsp track of {video.id} differs from in-memory extraction")
        memory = bench.evaluate_checkpoint(fresh, ckpts["tsp"], bench.BenchConfig())
        if (memory["average_map"], memory["auc"]) != self.mode_quality.get("tsp"):
            problems.append(f"tsp reports {self.mode_quality.get('tsp')} differ from the "
                            f"in-memory evaluation {(memory['average_map'], memory['auc'])}")
        return problems

    def end_to_end(self, wall_s: float) -> dict[str, float]:
        return {
            # no training is timed here; the set-up's training is measured instead
            "train_clips_per_s": seed_training_clips(self.corpus, self.seed) / self.train_s,
            "eval_videos_per_s": self.valid_videos * len(MODES) / wall_s,
            "val_score": self.val_score,
        }


class Study(Workload):
    """``tspkit bench`` over two seeds and all three modes, in worker processes."""

    name = "study"

    def setup(self) -> float:
        """Corpus, then a serial ``bench`` of the first seed and ``tsp`` alone.

        One ``bench`` call outlasts a run's seconds, so a timed run is often
        alone in its invocation and has no other run's digest to disagree
        with. The serial bench is the reference its pooled ``tsp`` cell of
        that seed must equal. It runs in a child process, which leaves this
        one, and the workers it forks later, as they were.
        """
        # bench generates its own corpus from --corpus-seed; this copy is the
        # same corpus, used to count the work a run does
        corpus_s, self.corpus = make_corpus(self.seed, self.manifest)
        self.seeds = (self.seed, self.seed + 1)
        out = self.workdir / "serial"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_CHILD, "bench", "--seeds", str(self.seed),
             "--corpus-seed", str(self.seed), "--modes", "tsp", "--out-dir", str(out)],
            capture_output=True, text=True, check=False)
        serial_s = time.perf_counter() - start
        if proc.returncode != 0:
            raise SetupError(f"serial bench exited {proc.returncode}: {proc.stderr.strip()}")
        self.reference = self._read_cells(out / f"cell_seed{self.seed}.tsv")
        return corpus_s + serial_s

    def bench_workers(self) -> int:
        return bench.worker_count(len(self.seeds))

    def run_once(self, tmp: Path) -> tuple[float, list[Outcome]]:
        argv = ["bench", "--seeds", ",".join(map(str, self.seeds)),
                "--corpus-seed", str(self.seed), "--modes", ",".join(MODES),
                "--out-dir", str(tmp)]
        start = time.perf_counter()
        code, err = call_cli(argv)
        wall = time.perf_counter() - start
        if code != 0:
            return wall, [Outcome("bench", False, error=f"bench exited {code}: {err}")]
        names = ["bench_table.tsv"] + [f"cell_seed{s}.tsv" for s in self.seeds]
        digest = _sha256([part for name in names
                          for part in (name, _text_without_flags(tmp / name))])
        self.table = self._read_table(tmp / "bench_table.tsv")
        self.cells = {s: self._read_cells(tmp / f"cell_seed{s}.tsv") for s in self.seeds}
        for mode in MODES:
            self.mode_quality[mode] = (self.table[mode]["average_map_mean"],
                                       self.table[mode]["auc_mean"])
        return wall, [Outcome("bench", True, digest)]

    @staticmethod
    def _read_table(path: Path) -> dict[str, dict[str, float]]:
        lines = [ln for ln in _text_without_flags(path).splitlines() if ln]
        header = lines[0].split("\t")
        table = {}
        for line in lines[1:]:
            fields = line.split("\t")
            table[fields[0]] = {k: float(v) for k, v in zip(header[1:], fields[1:])
                                if v != "n/a"}
        return table

    @staticmethod
    def _read_cells(path: Path) -> dict[tuple[str, str], float]:
        lines = [ln for ln in _text_without_flags(path).splitlines() if ln]
        return {(mode, metric): float(value)
                for mode, metric, value in (ln.split("\t") for ln in lines[1:])}

    def check(self) -> list[str]:
        problems = []
        if sorted(self.table) != sorted(MODES):
            problems.append(f"bench table modes {sorted(self.table)}")
        for mode, row in self.table.items():
            if row.get("n_seeds") != len(self.seeds):
                problems.append(f"{mode}: n_seeds {row.get('n_seeds')}")
            problems += _check_quality(row["average_map_mean"], row["auc_mean"], mode)
            for key, mean in row.items():
                if not key.endswith("_mean"):
                    continue
                values = [self.cells[s][(mode, key[:-len("_mean")])] for s in self.seeds]
                if not math.isclose(mean, sum(values) / len(values), rel_tol=1e-12):
                    problems.append(f"{mode} {key}: table {mean} is not the mean of {values}")
        pooled = {key: value for key, value in self.cells[self.seed].items()
                  if key[0] == "tsp"}
        if pooled != self.reference:
            problems.append(f"tsp cell of seed {self.seed}: the pool wrote {pooled}, "
                            f"a serial bench {self.reference}")
        return problems

    def end_to_end(self, wall_s: float) -> dict[str, float]:
        tsp = self.table["tsp"]
        clips = sum(seed_training_clips(self.corpus, s) for s in self.seeds)
        return {
            "train_clips_per_s": clips / wall_s,
            "eval_videos_per_s": self.valid_videos * len(MODES) * len(self.seeds) / wall_s,
            # bench reports no selection score; its tsp valid-split region
            # accuracy is the validation number it does report
            "val_score": tsp["region_acc_mean"],
        }


WORKLOADS = {w.name: w for w in (Evaluate, Study)}
