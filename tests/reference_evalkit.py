"""The one-threshold-at-a-time scoring loops: bit-exact references for evalkit.

``ap_curve`` matches each threshold's candidate pairs and sums its AP on its
own, ``ar_at_an`` runs one greedy matching per threshold and budget level,
and ``baseline_localize`` thresholds the smoothed actionness once per
threshold, taking each run's clip extents, means and softmax one run at a
time. ``evalkit._ap_curve``, ``evalkit.ar_at_an`` and
``evalkit.baseline_localize`` share one pass between their thresholds and
must return the same floats and the same predictions, in the same order.
The smoothing, actionness, NMS and overlap helpers are evalkit's own, whose
tests pin them.
"""

import numpy as np

from tspkit import evalkit as ev
from tspkit.extract import softmax


def ap_curve(class_preds, class_gts, thresholds):
    """AP of one class at each threshold, one greedy matching per threshold."""
    if not class_preds:
        return [0.0] * len(thresholds)
    overlap = ev._segment_iou(np.array([(p.t_start, p.t_end) for p in class_preds]),
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
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        steps = recall.copy()
        steps[1:] -= recall[:-1]
        steps *= envelope
        curve.append(float(np.add.accumulate(steps)[-1]))
    return curve


def greedy_match_count(prop_ranks, gt_indices):
    """Size of the greedy 1:1 matching over pairs given in priority order."""
    used_p, used_g = set(), set()
    for pi, gi in zip(prop_ranks, gt_indices):
        if pi not in used_p and gi not in used_g:
            used_p.add(pi)
            used_g.add(gi)
    return len(used_p)


def ar_at_an(proposals, gts, an_values):
    """Average recall over the tIoU grid at each budget, one matching per
    threshold and per set of admitted pairs."""
    by_video = ev._proposals_by_video(proposals)
    gts_by_video = {}
    for g in gts:
        gts_by_video.setdefault(g.video_id, []).append(g)
    matched = np.zeros((len(an_values), len(ev.TIOU_GRID)), dtype=np.int64)
    for video_id, video_gts in gts_by_video.items():
        props = by_video.get(video_id)
        if not props:
            continue
        overlap = ev._segment_iou(np.array([(p.t_start, p.t_end) for p in props]),
                                  np.array([(g.t_start, g.t_end) for g in video_gts]))
        ranks, gt_idx = np.nonzero(overlap >= ev.TIOU_GRID[0])
        if not len(ranks):
            continue
        pair_overlap = overlap[ranks, gt_idx]
        order = np.lexsort((gt_idx, ranks, -pair_overlap))
        ranks, gt_idx, pair_overlap = ranks[order], gt_idx[order], pair_overlap[order]
        for t, thr in enumerate(ev.TIOU_GRID):
            n = int(np.count_nonzero(pair_overlap >= thr))
            thr_ranks, thr_gts = ranks[:n], gt_idx[:n]
            admitted = np.searchsorted(np.sort(thr_ranks), an_values).tolist()
            counts = {}
            for budget, k in zip(an_values, admitted):
                if k not in counts:
                    keep = thr_ranks < budget
                    counts[k] = greedy_match_count(thr_ranks[keep].tolist(),
                                                   thr_gts[keep].tolist())
            matched[:, t] += [counts[k] for k in admitted]
    recall = matched / len(gts)
    return [(budget, float(np.mean(row))) for budget, row in zip(an_values, recall)]


def clip_extent_sec(track, row):
    center = int(round(track.center_times[row] * track.fps))
    left = (track.clip_len - 1) // 2 * track.frame_stride
    right = track.clip_len // 2 * track.frame_stride
    start = max(0, center - left)
    end = min(track.num_frames, center + right + 1)
    return start / track.fps, end / track.fps


def runs(mask):
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def baseline_localize(track, params, actionness="region"):
    """Each threshold's runs, one run at a time, then class-wise NMS."""
    if len(track) == 0:
        return [], []
    scores = ev._smooth(ev.actionness_scores(track, actionness), params.smooth_window)
    raw = []
    for thr in params.thresholds:
        for start, stop in runs(scores >= thr):
            t0 = clip_extent_sec(track, start)[0]
            t1 = clip_extent_sec(track, stop - 1)[1]
            prop_score = float(scores[start:stop].mean())
            probs = softmax(track.action_logits[start:stop].mean(axis=0))
            label = int(np.argmax(probs))
            raw.append((t0, t1, prop_score, label, float(probs[label])))
    detections = [ev.DetectionPrediction(track.video_id, label, t0, t1, score * prob)
                  for t0, t1, score, label, prob in raw]
    proposals = [ev.ProposalPrediction(track.video_id, t0, t1, score)
                 for t0, t1, score, _, _ in raw]
    detections = ev._nms(detections, [d.class_index for d in detections],
                         params.nms_tiou)[:params.max_predictions]
    proposals = ev._nms(proposals, [0] * len(proposals), params.nms_tiou)[:params.max_predictions]
    return detections, proposals
