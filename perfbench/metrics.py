"""Metric names and units, and the per-layer metrics of a trace.

``END_TO_END`` and ``PER_LAYER`` map each metric name to its unit, as
``BENCHMARK.json`` lists them. A per-layer metric of a layer that a workload
never enters reads 0 there (no calls, no time). Times are busy seconds per
timed run, summed over processes; ``.self_s`` is a span's time minus that of
the traced spans it called.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                   .read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

_SPAN_TIMES = (
    "sampler.build_epoch", "pretrain.precompute_global_features", "evalkit.auc_100",
    "evalkit.average_map", "evalkit.detad_report", "evalkit.baseline_localize",
    "pretrain.load_checkpoint", "extract.write_track", "extract.read_track",
    "evalkit.save_predictions", "evalkit.load_predictions", "cli.extract", "cli.localize",
    "cli.eval-det", "cli.eval-prop", "cli.bench", "analysis.contrast_stats",
    "bench.run_seed",
)
_SPAN_CALLS_AND_TIMES = (
    "encoder.forward_batch", "autodiff.Tape.backward", "pretrain.batch_loss_tensor",
    "encoder.forward_np_batch", "encoder.forward_np",
)


def _ms_percentile(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def trace_metrics(trace, wall_s: float, workers: int) -> dict[str, float]:
    """Per-layer values of one traced run (everything but extras and overhead)."""
    frames = trace.counts.get("corpus.frame", 0)
    video_frames = trace.counts.get("corpus.video_frames", 0)
    out = {
        "corpus.frame.calls": frames,
        "corpus.frame.s": trace.busy_s.get("corpus.frame", 0.0),
        "corpus.video_frames.hit_ratio": (
            trace.counts.get("corpus.video_frames.hits", 0) / video_frames
            if video_frames else 0.0),
        "sampler.load_clip.calls": len(trace.durations("sampler.load_clip")),
        "sampler.load_clip.self_s": trace.self_s("sampler.load_clip"),
        "autodiff.Tape.backward.p90_ms": _ms_percentile(
            trace.durations("autodiff.Tape.backward"), 90),
        "pretrain.batch_loss_tensor.p50_ms": _ms_percentile(
            trace.durations("pretrain.batch_loss_tensor"), 50),
        "pretrain.batch_loss_tensor.p90_ms": _ms_percentile(
            trace.durations("pretrain.batch_loss_tensor"), 90),
        "pretrain.train.self_s": trace.self_s("pretrain.train"),
        # the per-epoch accuracy passes: forward_np_batch under train, outside GVF
        "pretrain.validation_s": trace.total_s_within(
            "encoder.forward_np_batch", "pretrain.train",
            "pretrain.precompute_global_features"),
        "extract.extract_track.calls": len(trace.durations("extract.extract_track")),
        "extract.extract_track.self_s": trace.self_s("extract.extract_track"),
        "evalkit.tiou.calls": trace.counts.get("evalkit.tiou", 0),
        # share of the workers' capacity spent inside run_seed (study only)
        "bench.worker_busy_share": (trace.total_s("bench.run_seed") / (workers * wall_s)
                                    if workers else 0.0),
    }
    for name in _SPAN_CALLS_AND_TIMES:
        out[f"{name}.calls"] = len(trace.durations(name))
        out[f"{name}.s"] = trace.total_s(name)
    for name in _SPAN_TIMES:
        out[f"{name}.s"] = trace.total_s(name)
    return out


def layer_metrics(workload, traces, untraced_wall_s: float,
                  worker_peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """Median over the traced runs of each per-layer metric, with its unit."""
    workers = workload.bench_workers()
    per_run = [trace_metrics(trace, wall, workers) for wall, trace in traces]
    values = {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}
    values.update(workload.layer_extras())
    values["bench.worker_peak_rss_mb"] = worker_peak_rss_mb
    values["trace.overhead_ratio"] = (statistics.median(wall for wall, _ in traces)
                                      / untraced_wall_s)
    return named(values, PER_LAYER)


def named(values: dict[str, float], table: dict[str, str]) -> dict[str, tuple[float, str]]:
    """Each metric of ``table`` with its value and unit; the names must match."""
    if set(values) != set(table):
        raise RuntimeError("metrics out of step with BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(table))}")
    return {name: (values[name], unit) for name, unit in table.items()}
