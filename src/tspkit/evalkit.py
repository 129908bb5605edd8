"""Temporal-localization metrics and a threshold-based baseline localizer.

Detection AP follows the usual untrimmed-video convention: predictions sorted
by score are greedily matched to unmatched same-class ground-truth segments at
a tIoU threshold, and AP integrates the monotone precision envelope over all
recall steps. Proposal quality is average recall over a threshold grid for a
per-video proposal budget, summarized as the area under the AR-vs-budget
curve up to 100 proposals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .decode import integer, load_json, number, save_json
from .extract import FeatureTrack, softmax

# tIoU grid 0.5:0.05:0.95 built from exact vulgar fractions so threshold
# comparisons agree with division-computed overlaps at the boundaries
TIOU_GRID = tuple((10 + i) / 20 for i in range(10))
DETAD_BUCKETS = ("XS", "S", "M", "L", "XL")
# per-video proposal budgets whose mean AR is the AR-AN AUC
AUC_BUDGETS = tuple(range(1, 101))


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

    def __post_init__(self):
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


def _ap_curve(class_preds: list[DetectionPrediction], class_gts: list[GroundTruthInstance],
              thresholds: tuple[float, ...]) -> list[float]:
    """AP of one class at each threshold, from one overlap matrix.

    ``class_preds`` are in ``_sorted_predictions`` order, and each takes the
    unmatched GT of its video with the largest overlap at or above the
    threshold; ties go to the GT that starts earlier, then to the one listed
    first. ``class_gts`` is not empty.
    """
    if not class_preds:
        return [0.0] * len(thresholds)
    overlap = _segment_iou(np.array([(p.t_start, p.t_end) for p in class_preds]),
                           np.array([(g.t_start, g.t_end) for g in class_gts]))
    same_video = (np.array([p.video_id for p in class_preds])[:, None]
                  == np.array([g.video_id for g in class_gts]))
    gt_starts = np.array([g.t_start for g in class_gts])
    curve = []
    for thr in thresholds:
        pred_idx, gt_idx = np.nonzero(same_video & (overlap >= thr))
        # per prediction, its candidate GTs in the order it prefers them
        order = np.lexsort((gt_idx, gt_starts[gt_idx], -overlap[pred_idx, gt_idx], pred_idx))
        matched = np.zeros(len(class_gts), dtype=bool)
        hits = np.zeros(len(class_preds))
        for i, j in zip(pred_idx[order].tolist(), gt_idx[order].tolist()):
            if not hits[i] and not matched[j]:
                matched[j] = True
                hits[i] = 1.0
        tp = np.cumsum(hits)
        fp = np.cumsum(1.0 - hits)
        precision = tp / (tp + fp)
        recall = tp / len(class_gts)
        # monotone envelope, all-points summation; accumulate adds the
        # recall steps one after another, in recall order
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        steps = recall.copy()
        steps[1:] -= recall[:-1]
        steps *= envelope
        curve.append(float(np.add.accumulate(steps)[-1]))
    return curve


def average_precision(preds: list[DetectionPrediction], gts: list[GroundTruthInstance],
                      class_index: int, thr: float) -> float | None:
    """AP of one class at one tIoU threshold; None when the class has no GT."""
    class_gts = [g for g in gts if g.class_index == class_index]
    if not class_gts:
        return None
    class_preds = _sorted_predictions([p for p in preds if p.class_index == class_index])
    return _ap_curve(class_preds, class_gts, (thr,))[0]


def map_curve(preds: list[DetectionPrediction], gts: list[GroundTruthInstance],
              thresholds: tuple[float, ...] = TIOU_GRID) -> list[float]:
    """mAP at each threshold: the mean AP over the classes that have GT."""
    if not gts:
        raise EvalError("no ground-truth instances")
    preds_by_class: dict[int, list[DetectionPrediction]] = {}
    for p in preds:
        preds_by_class.setdefault(p.class_index, []).append(p)
    gts_by_class: dict[int, list[GroundTruthInstance]] = {}
    for g in gts:
        gts_by_class.setdefault(g.class_index, []).append(g)
    curves = [_ap_curve(_sorted_predictions(preds_by_class.get(c, [])), gts_by_class[c],
                        thresholds) for c in sorted(gts_by_class)]
    return [float(np.mean([curve[t] for curve in curves])) for t in range(len(thresholds))]


def map_at(preds: list[DetectionPrediction], gts: list[GroundTruthInstance],
           thr: float) -> float:
    """Mean AP over the classes that have at least one GT instance."""
    return map_curve(preds, gts, (thr,))[0]


def average_map(preds: list[DetectionPrediction], gts: list[GroundTruthInstance],
                thresholds: tuple[float, ...] = TIOU_GRID) -> float:
    return float(np.mean(map_curve(preds, gts, thresholds)))


# ---------------------------------------------------------------------------
# proposal metrics


def _segment_iou(props: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """(P, G) tIoU matrix of (P, 2) and (G, 2) segment arrays.

    Same arithmetic as ``tiou``, elementwise, so each entry equals its scalar
    result exactly.
    """
    p0, p1 = props[:, :1], props[:, 1:]
    g0, g1 = gts[:, 0], gts[:, 1]
    inter = np.minimum(p1, g1) - np.maximum(p0, g0)
    union = np.maximum(p1, g1) - np.minimum(p0, g0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0.0)


def _greedy_match_count(prop_ranks: list[int], gt_indices: list[int]) -> int:
    """Size of the greedy 1:1 matching over pairs given in priority order."""
    used_p: set[int] = set()
    used_g: set[int] = set()
    for pi, gi in zip(prop_ranks, gt_indices):
        if pi not in used_p and gi not in used_g:
            used_p.add(pi)
            used_g.add(gi)
    return len(used_p)


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
    """Average recall (over the tIoU grid) at each per-video proposal budget.

    A budget keeps each video's top-scoring proposals. Within a video,
    proposals and GTs are matched class-free and 1:1, greedily, highest
    overlap first; ties go to the higher-ranked proposal, then the earlier GT.
    """
    if not gts:
        raise EvalError("no ground-truth instances")
    if not an_values or min(an_values) < 1:
        raise ValueError(f"proposal budgets must be positive, got {an_values!r}")
    by_video = _proposals_by_video(proposals)
    gts_by_video: dict[str, list[GroundTruthInstance]] = {}
    for g in gts:
        gts_by_video.setdefault(g.video_id, []).append(g)
    matched = np.zeros((len(an_values), len(TIOU_GRID)), dtype=np.int64)
    for video_id, video_gts in gts_by_video.items():
        props = by_video.get(video_id)
        if not props:
            continue
        overlap = _segment_iou(np.array([(p.t_start, p.t_end) for p in props]),
                               np.array([(g.t_start, g.t_end) for g in video_gts]))
        ranks, gt_idx = np.nonzero(overlap >= TIOU_GRID[0])
        if not len(ranks):
            continue
        pair_overlap = overlap[ranks, gt_idx]
        order = np.lexsort((gt_idx, ranks, -pair_overlap))
        ranks, gt_idx, pair_overlap = ranks[order], gt_idx[order], pair_overlap[order]
        for t, thr in enumerate(TIOU_GRID):
            # overlaps descend, so the pairs that qualify at thr are a prefix
            n = int(np.count_nonzero(pair_overlap >= thr))
            thr_ranks, thr_gts = ranks[:n], gt_idx[:n]
            # budgets that admit the same pairs share one matching
            admitted = np.searchsorted(np.sort(thr_ranks), an_values).tolist()
            counts: dict[int, int] = {}
            for budget, k in zip(an_values, admitted):
                if k not in counts:
                    keep = thr_ranks < budget
                    counts[k] = _greedy_match_count(thr_ranks[keep].tolist(),
                                                    thr_gts[keep].tolist())
            matched[:, t] += [counts[k] for k in admitted]
    recall = matched / len(gts)
    return [(budget, float(np.mean(row))) for budget, row in zip(an_values, recall)]


def auc_of_curve(curve: list[tuple[int, float]]) -> float:
    """Mean AR of an ``ar_at_an`` curve over ``AUC_BUDGETS``, in percent."""
    return float(np.mean([ar for _, ar in curve]) * 100.0)


def auc_100(proposals: list[ProposalPrediction], gts: list[GroundTruthInstance]) -> float:
    """Mean AR over budgets 1..100, in percent."""
    return auc_of_curve(ar_at_an(proposals, gts, AUC_BUDGETS))


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


def _best_overlap_gts(preds: list[DetectionPrediction], gts: list[GroundTruthInstance]
                      ) -> list[GroundTruthInstance | None]:
    """Per prediction, the first GT of its video and class with the largest
    positive tIoU; None when no such GT overlaps it."""
    gt_groups: dict[tuple[str, int], list[GroundTruthInstance]] = {}
    for g in gts:
        gt_groups.setdefault((g.video_id, g.class_index), []).append(g)
    pred_groups: dict[tuple[str, int], list[int]] = {}
    for i, p in enumerate(preds):
        pred_groups.setdefault((p.video_id, p.class_index), []).append(i)
    best: list[GroundTruthInstance | None] = [None] * len(preds)
    for key, rows in pred_groups.items():
        group_gts = gt_groups.get(key)
        if not group_gts:
            continue
        overlap = _segment_iou(np.array([(preds[i].t_start, preds[i].t_end) for i in rows]),
                               np.array([(g.t_start, g.t_end) for g in group_gts]))
        first_max = overlap.argmax(axis=1)  # argmax takes the first of equal overlaps
        for i, k, top in zip(rows, first_max.tolist(), overlap.max(axis=1).tolist()):
            if top > 0.0:
                best[i] = group_gts[k]
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
    best_buckets = [None if g is None else gt_buckets[g] for g in _best_overlap_gts(preds, gts)]
    report: dict[str, dict] = {}
    for bucket in DETAD_BUCKETS:
        bucket_gts = [g for g in gts if gt_buckets[g] == bucket]
        share = len(bucket_gts) / len(gts)
        if not bucket_gts:
            report[bucket] = {"average_map": None, "share": share, "num_gt": 0}
            continue
        kept = [p for p, b in zip(preds, best_buckets) if b is None or b == bucket]
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

    detections = _nms(detections, [d.class_index for d in detections],
                      params.nms_tiou)[:params.max_predictions]
    proposals = _nms(proposals, [0] * len(proposals), params.nms_tiou)[:params.max_predictions]
    return detections, proposals


def _nms(preds: list, labels: list[int], thr: float) -> list:
    """Greedy non-maximum suppression. In order of descending score, then start,
    end and label, a prediction is kept unless its tIoU with a kept prediction
    of the same label reaches ``thr``. Detections pass their classes as labels;
    proposals pass one label for all."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, preds[i].t_start,
                                                     preds[i].t_end, labels[i]))
    segments = np.array([(preds[i].t_start, preds[i].t_end) for i in order]).reshape(-1, 2)
    sorted_labels = np.array(labels, dtype=int)[order]
    suppresses = ((_segment_iou(segments, segments) >= thr)
                  & (sorted_labels[:, None] == sorted_labels))
    alive = np.ones(len(order), dtype=bool)
    kept = []
    for k, i in enumerate(order):
        if alive[k]:
            kept.append(preds[i])
            alive &= ~suppresses[k]
    return kept


# ---------------------------------------------------------------------------
# predictions files


def save_predictions(preds_by_video: dict[str, list], path, invocation: str | None = None) -> None:
    """Top level maps video id to its predictions; labels are class indices."""
    doc: dict = {}
    for video_id, items in sorted(preds_by_video.items()):
        rows = []
        for p in items:
            row = {"segment": [p.t_start, p.t_end], "score": p.score}
            if isinstance(p, DetectionPrediction):
                row["label"] = p.class_index
            rows.append(row)
        doc[video_id] = rows
    save_json(doc, path, invocation)


def load_predictions(path, kind: str = "detections"):
    """Read a predictions file written by ``save_predictions``.

    ``kind`` is ``"detections"`` or ``"proposals"``; any other value raises
    ValueError. Raises EvalError, naming the file, video and row, for any row
    a metric could not score as written.
    """
    if kind not in ("detections", "proposals"):
        raise ValueError(f"kind must be 'detections' or 'proposals', got {kind!r}")
    doc = load_json(path, EvalError)
    if not isinstance(doc, dict):
        raise EvalError(f"{path}: top level must be an object of video ids to predictions")
    out = []
    for video_id, rows in doc.items():
        if video_id.startswith("__"):
            continue
        if not isinstance(rows, list):
            raise EvalError(f"{path}: video {video_id!r}: predictions must be a list")
        for i, row in enumerate(rows):
            where = f"{path}: video {video_id!r} row {i}"
            if not isinstance(row, dict):
                raise EvalError(f"{where}: prediction must be an object")
            segment = row.get("segment")
            try:
                t0, t1 = map(number, segment)
            except (TypeError, ValueError):  # not a list of two numbers
                t0 = t1 = math.nan
            if not (math.isfinite(t0) and math.isfinite(t1) and t0 <= t1):
                raise EvalError(f"{where}: segment must be two finite numbers "
                                f"[t_start, t_end] with t_start <= t_end, got {segment!r}")
            try:
                score = number(row.get("score"))
            except ValueError:
                score = math.nan
            if not math.isfinite(score):
                raise EvalError(f"{where}: score must be a finite number, "
                                f"got {row.get('score')!r}")
            if kind == "detections":
                try:
                    label = integer(row.get("label"))
                except ValueError:
                    raise EvalError(f"{where}: label must be an integer class index, "
                                    f"got {row.get('label')!r}") from None
                out.append(DetectionPrediction(video_id, label, t0, t1, score))
            else:
                out.append(ProposalPrediction(video_id, t0, t1, score))
    return out
