"""tspkit benchmark: one workload, measured for a fixed time, outputs checked.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {evaluate,study} \
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout; nothing is installed.
A run sets up its workload from the seed (timed as ``setup_s``), then repeats
the workload's timed run until ``--seconds`` have passed, each time on a fresh
corpus in a fresh directory. Every run's outputs are digested; runs that raise,
exit nonzero or disagree with the other digests count as failed. When the
program fails in set-up or in every run, the result still comes, with
``correct`` false, every attempt failed and each metric 0.

With ``--trace 0`` the last line of standard output is the end-to-end result.
With ``--trace 1`` the untraced loop is followed by a traced one, and the last
line holds the per-layer metrics of ``perfbench/tracing.py`` plus
``trace.overhead_ratio``, the traced over the untraced median wall time. The
line before the result records the environment, the digests and the timing
distributions. See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import tspkit from this checkout's ``src/``; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "tspkit" / "__init__.py").is_file():
        print(f"perfbench: no tspkit sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import tspkit

    if Path(tspkit.__file__).resolve().parent != (src / "tspkit").resolve():
        print(f"perfbench: imported tspkit from {tspkit.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def summarize(values: list[float]) -> dict:
    """Median, the highest whole percentile with at least ten samples beyond
    it (None below eleven samples), the sample count and the samples."""
    import numpy as np

    n = len(values)
    out = {"median": statistics.median(values), "n": n, "percentile": None, "value": None,
           "samples": values}
    if n >= 11:
        q = math.floor(100 * (n - 10) / n)
        out["percentile"] = q
        out["value"] = float(np.percentile(values, q))
    return out


def environment() -> dict:
    import multiprocessing

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TSPKIT_THREADS")},
        "start_method": multiprocessing.get_context().get_start_method(),
    }


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


class Runner:
    """Closed-loop timed runs of one workload, with outcome bookkeeping."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.outcomes = []
        self.walls = {False: [], True: []}
        self.traces = []

    def loop(self, seconds: float, traced: bool) -> None:
        from perfbench.tracing import Tracer
        from perfbench.workloads import Outcome

        start = time.perf_counter()
        walls = self.walls[traced]
        while not walls or time.perf_counter() - start < seconds:
            tmp = Path(tempfile.mkdtemp(prefix="run-", dir=self.workdir))
            tracer = Tracer(tmp / "spool") if traced else None
            try:
                if tracer:
                    tracer.install()
                try:
                    wall, outcomes = self.workload.run_once(tmp)
                finally:
                    if tracer:
                        tracer.uninstall()
            except Exception:  # a failed run is counted, and the loop goes on
                self.outcomes.append(Outcome(self.workload.name, False,
                                             error=traceback.format_exc(limit=-3)))
                if time.perf_counter() - start >= seconds:
                    break
                continue
            finally:
                trace = tracer.collect() if tracer else None
                shutil.rmtree(tmp, ignore_errors=True)
            walls.append(wall)
            self.outcomes.extend(outcomes)
            if trace is not None:
                self.traces.append((wall, trace))

    def failures(self) -> tuple[int, int, dict]:
        """(attempted, failed, digests); a digest off its key's majority fails."""
        by_key: dict[str, Counter] = {}
        for o in self.outcomes:
            if o.ok:
                by_key.setdefault(o.key, Counter())[o.digest] += 1
        majority = {key: counts.most_common(1)[0][0] for key, counts in by_key.items()}
        failed = sum(1 for o in self.outcomes
                     if not o.ok or o.digest != majority.get(o.key))
        digests = {key: dict(counts) for key, counts in by_key.items()}
        return len(self.outcomes), failed, digests


def report(record: dict, problems: list[str], attempted: int, failed: int,
           metrics: dict[str, tuple[float, str]]) -> int:
    """Print the record and the result line; return the exit code."""
    print(json.dumps({"perfbench_record": {**record, "problems": problems}}))
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.metrics import END_TO_END, PER_LAYER, layer_metrics, named
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workload, workdir)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment()}
        # what a result reports when the program failed before it could be measured
        unmeasured = {name: (0.0, unit)
                      for name, unit in (PER_LAYER if args.trace else END_TO_END).items()}
        try:
            setup_s = workload.setup()
        except Exception:
            problems = [f"set-up raised: {traceback.format_exc(limit=-3)}"]
            return report(record, problems, 1, 1, unmeasured)
        runner.loop(args.seconds, traced=False)
        rss_self = _peak_rss_mb(resource.RUSAGE_SELF)
        rss_workers = (_peak_rss_mb(resource.RUSAGE_CHILDREN)
                       if workload.bench_workers() else 0.0)
        if args.trace:
            runner.loop(args.seconds, traced=True)
        attempted, failed, digests = runner.failures()
        record.update({
            "digests": digests,
            "wall_s": summarize(runner.walls[False]) if runner.walls[False] else None,
            "traced_wall_s": summarize(runner.walls[True]) if runner.walls[True] else None,
            "peak_rss_mb": {"process": rss_self, "largest_child": rss_workers},
        })
        problems = [f"{o.key}: {o.error}" for o in runner.outcomes if not o.ok]
        if failed == attempted or not runner.walls[False] or (args.trace and not runner.traces):
            problems.append("no run succeeded")
            return report(record, problems, attempted, failed, unmeasured)
        try:
            problems = workload.check() + problems
        except Exception:  # unreadable outputs fail the check, not the benchmark
            problems.insert(0, f"check raised: {traceback.format_exc(limit=-3)}")
        wall_s = statistics.median(runner.walls[False])
        if args.trace:
            metrics = layer_metrics(workload, runner.traces, wall_s, rss_workers)
        else:
            metrics = named({"wall_s": wall_s, "setup_s": setup_s,
                             "peak_rss_mb": max(rss_self, rss_workers),
                             **workload.end_to_end(wall_s)}, END_TO_END)
        return report(record, problems, attempted, failed, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
