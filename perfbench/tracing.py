"""Outside-in tracing of tspkit: wrap public functions, record spans, restore.

The program is not modified. ``Tracer.install`` replaces each traced function
in every loaded ``tspkit`` module that holds a reference to it (so names
imported with ``from .x import f`` are caught too) and patches traced methods
on their class. ``uninstall`` puts every original back.

A span is (id, name, start, end, parent id), recorded in memory. Three kinds of
wrapper keep the overhead proportional to what a metric needs:

* span wrappers record a span per call;
* busy wrappers (``Corpus.frame``) add call count and time, without a span;
* count wrappers (``evalkit.tiou``) only count calls.

Worker processes forked while a tracer is installed inherit the wrappers.
After the fork the child starts an empty record; whenever its outermost span
closes it writes what it recorded to one file in the spool directory, which
the parent merges after the run (``collect``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# functions recorded as spans, named "<module>.<function>" within tspkit
SPAN_FUNCTIONS = (
    "sampler.load_clip",
    "sampler.build_epoch",
    "encoder.forward_batch",
    "encoder.forward_np_batch",
    "encoder.forward_np",
    "pretrain.train",
    "pretrain.batch_loss_tensor",
    "pretrain.precompute_global_features",
    "pretrain.load_checkpoint",
    "extract.extract_track",
    "extract.write_track",
    "extract.read_track",
    "evalkit.auc_100",
    "evalkit.average_map",
    "evalkit.detad_report",
    "evalkit.baseline_localize",
    "evalkit.save_predictions",
    "evalkit.load_predictions",
    "analysis.contrast_stats",
    "bench.run_seed",
)
_ACTIVE: "Tracer | None" = None  # the installed tracer, for the fork hook
_FORK_HOOK_REGISTERED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._start_child()


class Tracer:
    """Spans and counters of one traced run; install, run, uninstall, collect."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.in_child = False
        self._flushes = 0
        self._next_id = 0
        self.stack: list[tuple[int, str, float]] = []
        self._reset()
        self._restore: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        """Drop what was recorded; span ids keep counting, so they stay unique."""
        self.records: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> None:
        self.stack.append((self._next_id, name, time.perf_counter()))
        self._next_id += 1

    def _close(self) -> None:
        end = time.perf_counter()
        sid, name, start = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else -1
        self.records.append((sid, name, start, end, parent))
        if self.in_child and not self.stack:
            self._flush()

    def _start_child(self) -> None:
        self.pid = os.getpid()
        self.in_child = True
        self.stack = []  # the parent's open spans are not this process's
        self._reset()

    def _flush(self) -> None:
        path = self.spool_dir / f"worker-{self.pid}-{self._flushes}.json"
        self._flushes += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "records": self.records,
                       "counts": self.counts, "busy_s": self.busy_s}, fh)
        self._reset()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def _busy_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.busy_s[name] += time.perf_counter() - start
                self.counts[name] += 1
        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _video_frames_wrapper(self, fn):
        """Span plus hit/miss: a call that synthesized no frame was a cache hit."""
        span = self._span_wrapper("corpus.video_frames", fn)

        @functools.wraps(fn)
        def wrapper(corpus, video):
            before = self.counts["corpus.frame"]
            try:
                return span(corpus, video)
            finally:
                self.counts["corpus.video_frames"] += 1
                if self.counts["corpus.frame"] == before:
                    self.counts["corpus.video_frames.hits"] += 1
        return wrapper

    def _cli_main_wrapper(self, fn):
        """One span per CLI call, named after its subcommand."""
        @functools.wraps(fn)
        def wrapper(argv=None):
            command = (argv if argv is not None else sys.argv[1:])[:1] or ["?"]
            self._open(f"cli.{command[0]}")
            try:
                return fn(argv)
            finally:
                self._close()
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` in every tspkit module holding it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "tspkit" or mod_name.startswith("tspkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        global _ACTIVE, _FORK_HOOK_REGISTERED
        import importlib

        from tspkit import autodiff, cli, corpus, evalkit

        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        for name in SPAN_FUNCTIONS:
            module, attr = name.split(".")
            fn = getattr(importlib.import_module(f"tspkit.{module}"), attr)
            self._replace_everywhere(fn, self._span_wrapper(name, fn))
        self._replace_everywhere(evalkit.tiou, self._count_wrapper("evalkit.tiou", evalkit.tiou))
        self._replace_everywhere(cli.main, self._cli_main_wrapper(cli.main))
        self._patch_method(autodiff.Tape, "backward",
                           self._span_wrapper("autodiff.Tape.backward", autodiff.Tape.backward))
        self._patch_method(corpus.Corpus, "frame",
                           self._busy_wrapper("corpus.frame", corpus.Corpus.frame))
        self._patch_method(corpus.Corpus, "video_frames",
                           self._video_frames_wrapper(corpus.Corpus.video_frames))
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK_REGISTERED = True
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        _ACTIVE = None

    # -- results -------------------------------------------------------------

    def collect(self) -> "Trace":
        """This process's record merged with every worker's spool files."""
        procs = [(self.pid, self.records, self.counts, self.busy_s)]
        for path in sorted(self.spool_dir.glob("worker-*.json")):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            procs.append((doc["pid"], [tuple(r) for r in doc["records"]],
                          doc["counts"], doc["busy_s"]))
        return Trace(procs)


class Trace:
    """Merged spans and counters of one traced run, across processes."""

    def __init__(self, procs):
        self.counts: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        # span key (pid, id) -> (name, start, end, parent key or None)
        self.spans: dict[tuple[int, int], tuple[str, float, float, tuple | None]] = {}
        self._by_name: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for pid, records, counts, busy in procs:
            for name, value in counts.items():
                self.counts[name] += value
            for name, value in busy.items():
                self.busy_s[name] += value
            for sid, name, start, end, parent in records:
                key = (pid, sid)
                self.spans[key] = (name, start, end, None if parent < 0 else (pid, parent))
                self._by_name[name].append(key)
        child_time: dict[tuple, float] = defaultdict(float)
        for _, start, end, parent in self.spans.values():
            if parent is not None:
                child_time[parent] += end - start
        self._self_s = {key: span[2] - span[1] - child_time[key]
                        for key, span in self.spans.items()}

    def durations(self, name: str) -> list[float]:
        return [self.spans[k][2] - self.spans[k][1] for k in self._by_name.get(name, ())]

    def total_s(self, name: str) -> float:
        return sum(self.durations(name))

    def self_s(self, name: str) -> float:
        return sum(self._self_s[k] for k in self._by_name.get(name, ()))

    def _ancestors(self, key) -> set[str]:
        names = set()
        parent = self.spans[key][3]
        while parent is not None:
            names.add(self.spans[parent][0])
            parent = self.spans[parent][3]
        return names

    def total_s_within(self, name: str, inside: str, outside: str) -> float:
        """Time in ``name`` spans that run under ``inside`` but not under ``outside``."""
        total = 0.0
        for key in self._by_name.get(name, ()):
            up = self._ancestors(key)
            if inside in up and outside not in up:
                total += self.spans[key][2] - self.spans[key][1]
        return total
