"""Temporal-localization metrics and a threshold-based baseline localizer.

Detection AP follows the usual untrimmed-video convention: predictions sorted
by score are greedily matched to unmatched same-class ground-truth segments at
a tIoU threshold, and AP integrates the monotone precision envelope over all
recall steps. Proposal quality is average recall over a threshold grid for a
per-video proposal budget, summarized as the area under the AR-vs-budget
curve up to 100 proposals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import softmax
from .corpus import Corpus
from .extract import FeatureTrack

# tIoU grid 0.5:0.05:0.95 built from exact vulgar fractions so threshold
# comparisons agree with division-computed overlaps at the boundaries
TIOU_GRID = tuple((10 + i) / 20 for i in range(10))
DETAD_BUCKETS = ("XS", "S", "M", "L", "XL")


class EvalError(ValueError):
    """Evaluation inputs are unusable (e.g. no ground truth)."""


@dataclass(frozen=True)
class GroundTruthInstance:
    video_id: str
    class_index: int
    t_start: float
    t_end: float

    @property
    def length(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class DetectionPrediction:
    video_id: str
    class_index: int
    t_start: float
    t_end: float
    score: float


@dataclass(frozen=True)
class ProposalPrediction:
    video_id: str
    t_start: float
    t_end: float
    score: float


@dataclass(frozen=True)
class LocalizerParams:
    smooth_window: int = 1  # moving-average width in clips, odd
    thresholds: tuple[float, ...] = tuple((i + 1) / 10 for i in range(9))
    nms_tiou: float = 0.8
    max_predictions: int = 100

    def validate(self) -> None:
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise ValueError("smooth_window must be odd and >= 1")
        if not all(0.0 < t < 1.0 for t in self.thresholds) or not self.thresholds:
            raise ValueError("thresholds must lie in (0, 1)")
        if not 0.0 < self.nms_tiou <= 1.0 or self.max_predictions < 1:
            raise ValueError("bad nms/max_predictions")


def tiou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Temporal intersection over union of two (t_start, t_end) segments."""
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0.0:
        return 0.0
    union = max(a[1], b[1]) - min(a[0], b[0])
    return inter / union


def ground_truth_from_corpus(corpus: Corpus, subset: str) -> list[GroundTruthInstance]:
    out = []
    for video in corpus.subset_videos(subset):
        for ann in video.annotations:
            out.append(GroundTruthInstance(video.id, corpus.class_index(ann.label),
                                           ann.t_start, ann.t_end))
    return out


# ---------------------------------------------------------------------------
# detection metrics


def _sorted_predictions(preds: list[DetectionPrediction]) -> list[DetectionPrediction]:
    return sorted(preds, key=lambda p: (-p.score, p.t_start, p.video_id))


def average_precision(preds: list[DetectionPrediction], gts: list[GroundTruthInstance],
                      class_index: int, thr: float) -> float | None:
    """AP of one class at one tIoU threshold; None when the class has no GT."""
    class_gts = [g for g in gts if g.class_index == class_index]
    if not class_gts:
        return None
    class_preds = _sorted_predictions([p for p in preds if p.class_index == class_index])
    matched = [False] * len(class_gts)
    hits = np.zeros(len(class_preds))
    for i, pred in enumerate(class_preds):
        best_j = -1
        best_overlap = 0.0
        for j, gt in enumerate(class_gts):
            if matched[j] or gt.video_id != pred.video_id:
                continue
            overlap = tiou((pred.t_start, pred.t_end), (gt.t_start, gt.t_end))
            if overlap >= thr and (best_j < 0 or overlap > best_overlap
                                   or (overlap == best_overlap
                                       and gt.t_start < class_gts[best_j].t_start)):
                best_j = j
                best_overlap = overlap
        if best_j >= 0:
            matched[best_j] = True
            hits[i] = 1.0
    if not len(class_preds):
        return 0.0
    tp = np.cumsum(hits)
    fp = np.cumsum(1.0 - hits)
    precision = tp / (tp + fp)
    recall = tp / len(class_gts)
    # monotone envelope, all-points summation
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_recall = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_recall) * p
        prev_recall = r
    return float(ap)


def map_at(preds: list[DetectionPrediction], gts: list[GroundTruthInstance],
           thr: float) -> float:
    """Mean AP over the classes that have at least one GT instance."""
    if not gts:
        raise EvalError("no ground-truth instances")
    classes = sorted({g.class_index for g in gts})
    aps = [average_precision(preds, gts, c, thr) for c in classes]
    return float(np.mean([a for a in aps if a is not None]))


def average_map(preds: list[DetectionPrediction], gts: list[GroundTruthInstance],
                thresholds: tuple[float, ...] = TIOU_GRID) -> float:
    return float(np.mean([map_at(preds, gts, t) for t in thresholds]))


# ---------------------------------------------------------------------------
# proposal metrics


def _recall_at(props_by_video: dict[str, list[ProposalPrediction]],
               gts: list[GroundTruthInstance], budget: int, thr: float) -> float:
    """Class-free greedy 1:1 matching, highest-overlap pairs first."""
    total = len(gts)
    matched_total = 0
    gts_by_video: dict[str, list[GroundTruthInstance]] = {}
    for g in gts:
        gts_by_video.setdefault(g.video_id, []).append(g)
    for video_id, video_gts in gts_by_video.items():
        props = props_by_video.get(video_id, [])[:budget]
        pairs = []
        for pi, p in enumerate(props):
            for gi, g in enumerate(video_gts):
                overlap = tiou((p.t_start, p.t_end), (g.t_start, g.t_end))
                if overlap >= thr:
                    pairs.append((-overlap, pi, gi))
        pairs.sort()
        used_p: set[int] = set()
        used_g: set[int] = set()
        for _, pi, gi in pairs:
            if pi in used_p or gi in used_g:
                continue
            used_p.add(pi)
            used_g.add(gi)
            matched_total += 1
    return matched_total / total


def _proposals_by_video(proposals: list[ProposalPrediction]
                        ) -> dict[str, list[ProposalPrediction]]:
    by_video: dict[str, list[ProposalPrediction]] = {}
    for p in proposals:
        by_video.setdefault(p.video_id, []).append(p)
    for plist in by_video.values():
        plist.sort(key=lambda p: (-p.score, p.t_start, p.t_end))
    return by_video


def ar_at_an(proposals: list[ProposalPrediction], gts: list[GroundTruthInstance],
             an_values: tuple[int, ...]) -> list[tuple[int, float]]:
    """Average recall (over the tIoU grid) at each per-video proposal budget."""
    if not gts:
        raise EvalError("no ground-truth instances")
    by_video = _proposals_by_video(proposals)
    out = []
    for budget in an_values:
        recalls = [_recall_at(by_video, gts, budget, thr) for thr in TIOU_GRID]
        out.append((budget, float(np.mean(recalls))))
    return out


def auc_100(proposals: list[ProposalPrediction], gts: list[GroundTruthInstance]) -> float:
    """Mean AR over budgets 1..100, in percent."""
    curve = ar_at_an(proposals, gts, tuple(range(1, 101)))
    return float(np.mean([ar for _, ar in curve]) * 100.0)


# ---------------------------------------------------------------------------
# DETAD-style length analysis


def detad_bucket(length_sec: float) -> str:
    """Length group: XS (0,30], S (30,60], M (60,120], L (120,180], XL >180."""
    if length_sec <= 0:
        raise ValueError(f"instance length must be positive, got {length_sec}")
    for name, upper in zip(("XS", "S", "M", "L"), (30.0, 60.0, 120.0, 180.0)):
        if length_sec <= upper:
            return name
    return "XL"


def _best_overlap_gt(pred: DetectionPrediction,
                     gts: list[GroundTruthInstance]) -> GroundTruthInstance | None:
    best = None
    best_overlap = 0.0
    for g in gts:
        if g.video_id != pred.video_id or g.class_index != pred.class_index:
            continue
        overlap = tiou((pred.t_start, pred.t_end), (g.t_start, g.t_end))
        if overlap > best_overlap:
            best = g
            best_overlap = overlap
    return best


def detad_report(preds: list[DetectionPrediction], gts: list[GroundTruthInstance]
                 ) -> dict[str, dict]:
    """Average mAP per length bucket plus each bucket's share of GT instances.

    Per bucket, GT is restricted to the bucket and predictions whose
    best-overlapping same-class GT falls outside the bucket are dropped;
    predictions overlapping no GT stay in every bucket.
    """
    if not gts:
        raise EvalError("no ground-truth instances")
    gt_buckets = {g: detad_bucket(g.length) for g in gts}
    # a prediction's best-overlap GT does not depend on the bucket
    best = [_best_overlap_gt(p, gts) for p in preds]
    report: dict[str, dict] = {}
    for bucket in DETAD_BUCKETS:
        bucket_gts = [g for g in gts if gt_buckets[g] == bucket]
        share = len(bucket_gts) / len(gts)
        if not bucket_gts:
            report[bucket] = {"average_map": None, "share": share, "num_gt": 0}
            continue
        kept = [p for p, g in zip(preds, best) if g is None or gt_buckets[g] == bucket]
        report[bucket] = {"average_map": average_map(kept, bucket_gts),
                          "share": share, "num_gt": len(bucket_gts)}
    return report


# ---------------------------------------------------------------------------
# baseline localizer


def _smooth(values: np.ndarray, window: int) -> np.ndarray:
    if window == 1:
        return values.astype(np.float64)
    half = window // 2
    out = np.empty(len(values))
    for i in range(len(values)):
        lo = max(0, i - half)
        hi = min(len(values), i + half + 1)
        out[i] = values[lo:hi].mean()
    return out


def _clip_extent_sec(track: FeatureTrack, row: int) -> tuple[float, float]:
    center = int(round(track.center_times[row] * track.fps))
    left = (track.clip_len - 1) // 2 * track.frame_stride
    right = track.clip_len // 2 * track.frame_stride
    start = max(0, center - left)
    end = min(track.num_frames, center + right + 1)
    return start / track.fps, end / track.fps


def actionness_scores(track: FeatureTrack, source: str) -> np.ndarray:
    """Per-clip foreground evidence: region-head probability, or the top
    softmax class probability for tracks without a region head."""
    if source == "region":
        if track.region_probs is None:
            raise EvalError("track has no region scores; use actionness='max_prob'")
        return track.region_probs.astype(np.float64)
    if source == "max_prob":
        if len(track) == 0:
            return np.empty(0)
        return softmax(track.action_logits).max(axis=1)
    raise ValueError(f"unknown actionness source {source!r}")


def baseline_localize(track: FeatureTrack, params: LocalizerParams,
                      actionness: str = "region"
                      ) -> tuple[list[DetectionPrediction], list[ProposalPrediction]]:
    """Threshold smoothed actionness into runs; each run becomes a proposal
    and a classified detection. Class-wise NMS prunes near-duplicates."""
    params.validate()
    if len(track) == 0:
        return [], []
    scores = _smooth(actionness_scores(track, actionness), params.smooth_window)

    raw: list[tuple[float, float, float, int, float]] = []  # t0, t1, prop score, label, class prob
    for thr in params.thresholds:
        above = scores >= thr
        i = 0
        while i < len(above):
            if not above[i]:
                i += 1
                continue
            j = i
            while j + 1 < len(above) and above[j + 1]:
                j += 1
            t0 = _clip_extent_sec(track, i)[0]
            t1 = _clip_extent_sec(track, j)[1]
            prop_score = float(scores[i:j + 1].mean())
            mean_logits = track.action_logits[i:j + 1].mean(axis=0)
            probs = softmax(mean_logits)
            label = int(np.argmax(probs))
            raw.append((t0, t1, prop_score, label, float(probs[label])))
            i = j + 1

    detections = [DetectionPrediction(track.video_id, label, t0, t1, score * prob)
                  for t0, t1, score, label, prob in raw]
    proposals = [ProposalPrediction(track.video_id, t0, t1, score)
                 for t0, t1, score, _, _ in raw]

    detections = _nms_detections(detections, params.nms_tiou)[:params.max_predictions]
    proposals = _nms_proposals(proposals, params.nms_tiou)[:params.max_predictions]
    return detections, proposals


def _nms_detections(dets: list[DetectionPrediction], thr: float) -> list[DetectionPrediction]:
    kept: list[DetectionPrediction] = []
    for d in sorted(dets, key=lambda d: (-d.score, d.t_start, d.t_end, d.class_index)):
        if all(k.class_index != d.class_index
               or tiou((d.t_start, d.t_end), (k.t_start, k.t_end)) < thr for k in kept):
            kept.append(d)
    return kept


def _nms_proposals(props: list[ProposalPrediction], thr: float) -> list[ProposalPrediction]:
    kept: list[ProposalPrediction] = []
    for p in sorted(props, key=lambda p: (-p.score, p.t_start, p.t_end)):
        if all(tiou((p.t_start, p.t_end), (k.t_start, k.t_end)) < thr for k in kept):
            kept.append(p)
    return kept


# ---------------------------------------------------------------------------
# predictions files


def save_predictions(preds_by_video: dict[str, list], path, invocation: str | None = None) -> None:
    """Top level maps video id to its predictions; labels are class indices.

    The reserved "__invocation__" key carries the producing flag set (JSON has
    no comments); readers skip double-underscore keys.
    """
    doc: dict = {}
    if invocation is not None:
        doc["__invocation__"] = invocation
    for video_id, items in sorted(preds_by_video.items()):
        rows = []
        for p in items:
            row = {"segment": [p.t_start, p.t_end], "score": p.score}
            if isinstance(p, DetectionPrediction):
                row["label"] = p.class_index
            rows.append(row)
        doc[video_id] = rows
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_predictions(path, kind: str = "detections"):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out = []
    for video_id, rows in doc.items():
        if video_id.startswith("__"):
            continue
        for row in rows:
            t0, t1 = float(row["segment"][0]), float(row["segment"][1])
            if kind == "detections":
                out.append(DetectionPrediction(video_id, int(row["label"]), t0, t1,
                                               float(row["score"])))
            else:
                out.append(ProposalPrediction(video_id, t0, t1, float(row["score"])))
    return out
