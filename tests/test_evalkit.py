"""Localization metrics vs brute-force enumerators, buckets, localizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspkit import evalkit as ev
from tspkit.extract import FeatureTrack

D = ev.DetectionPrediction
P = ev.ProposalPrediction
G = ev.GroundTruthInstance


# ---------------------------------------------------------------------------
# brute-force oracles: independent nested-loop implementations


def oracle_tiou(a0, a1, b0, b1):
    inter = min(a1, b1) - max(a0, b0)
    if inter <= 0:
        return 0.0
    return inter / (max(a1, b1) - min(a0, b0))


def oracle_ap(preds, gts, class_index, thr):
    cpreds = sorted([p for p in preds if p.class_index == class_index],
                    key=lambda p: (-p.score, p.t_start, p.video_id))
    cgts = [g for g in gts if g.class_index == class_index]
    if not cgts:
        return None
    taken = [False] * len(cgts)
    flags = []
    for p in cpreds:
        best = -1
        best_o = 0.0
        for j, g in enumerate(cgts):
            if taken[j] or g.video_id != p.video_id:
                continue
            o = oracle_tiou(p.t_start, p.t_end, g.t_start, g.t_end)
            if o < thr:
                continue
            if best < 0 or o > best_o or (o == best_o and g.t_start < cgts[best].t_start):
                best = j
                best_o = o
        if best >= 0:
            taken[best] = True
            flags.append(1)
        else:
            flags.append(0)
    ap = 0.0
    prev_recall = 0.0
    tp = 0
    for k in range(len(flags)):
        tp += flags[k]
        recall = tp / len(cgts)
        if recall > prev_recall:
            best_prec = 0.0
            tp2 = 0
            for k2 in range(len(flags)):
                tp2 += flags[k2]
                if k2 >= k:
                    best_prec = max(best_prec, tp2 / (k2 + 1))
            ap += (recall - prev_recall) * best_prec
            prev_recall = recall
    return ap


def oracle_map(preds, gts, thr):
    classes = sorted({g.class_index for g in gts})
    values = [oracle_ap(preds, gts, c, thr) for c in classes]
    values = [v for v in values if v is not None]
    return sum(values) / len(values)


def oracle_recall(proposals, gts, budget, thr):
    by_video = {}
    for p in proposals:
        by_video.setdefault(p.video_id, []).append(p)
    matched = 0
    gts_by_video = {}
    for g in gts:
        gts_by_video.setdefault(g.video_id, []).append(g)
    for vid, vgts in gts_by_video.items():
        props = sorted(by_video.get(vid, []),
                       key=lambda p: (-p.score, p.t_start, p.t_end))[:budget]
        pairs = []
        for pi, p in enumerate(props):
            for gi, g in enumerate(vgts):
                o = oracle_tiou(p.t_start, p.t_end, g.t_start, g.t_end)
                if o >= thr:
                    pairs.append((-o, pi, gi))
        used_p = set()
        used_g = set()
        for _, pi, gi in sorted(pairs):
            if pi not in used_p and gi not in used_g:
                used_p.add(pi)
                used_g.add(gi)
                matched += 1
    return matched / len(gts)


def oracle_auc(proposals, gts):
    total = 0.0
    for budget in range(1, 101):
        total += sum(oracle_recall(proposals, gts, budget, thr)
                     for thr in ev.TIOU_GRID) / len(ev.TIOU_GRID)
    return total / 100.0 * 100.0


def oracle_best_overlap_gt(pred, gts):
    """The first GT of the prediction's video and class with the largest positive tIoU."""
    scored = [(oracle_tiou(pred.t_start, pred.t_end, g.t_start, g.t_end), -i)
              for i, g in enumerate(gts)
              if g.video_id == pred.video_id and g.class_index == pred.class_index]
    if not scored or max(scored)[0] <= 0.0:
        return None
    return gts[-max(scored)[1]]


def best_overlap_gt(pred, gts):
    """``evalkit._best_overlap_gts`` of one prediction."""
    return ev._best_overlap_gts([pred], gts)[0]


def reference_nms_detections(dets, thr):
    """Greedy NMS by score, one scalar ``tiou`` per candidate and kept detection."""
    kept = []
    for d in sorted(dets, key=lambda d: (-d.score, d.t_start, d.t_end, d.class_index)):
        if all(k.class_index != d.class_index
               or ev.tiou((d.t_start, d.t_end), (k.t_start, k.t_end)) < thr for k in kept):
            kept.append(d)
    return kept


def reference_nms_proposals(props, thr):
    kept = []
    for p in sorted(props, key=lambda p: (-p.score, p.t_start, p.t_end)):
        if all(ev.tiou((p.t_start, p.t_end), (k.t_start, k.t_end)) < thr for k in kept):
            kept.append(p)
    return kept


SEGMENTS = st.builds(lambda t0, n: (t0 / 2.0, (t0 + n) / 2.0),
                     st.integers(0, 12), st.integers(1, 8))


@st.composite
def detection_instances(draw):
    """<=5 GTs and <=8 predictions over 1-2 videos and 1-2 classes. Segments are
    often drawn from a small shared pool and scores from a coarse grid, so
    overlaps, start times and scores tie often."""
    segment = st.one_of(st.sampled_from(draw(st.lists(SEGMENTS, min_size=1, max_size=3))),
                        SEGMENTS)
    video_and_class = st.tuples(st.sampled_from(["v0", "v1"][:draw(st.integers(1, 2))]),
                                st.integers(0, draw(st.integers(0, 1))))
    gts = [G(*draw(video_and_class), *draw(segment)) for _ in range(draw(st.integers(0, 5)))]
    preds = [D(*draw(video_and_class), *draw(segment), draw(st.integers(0, 8)) / 8.0)
             for _ in range(draw(st.integers(0, 8)))]
    return preds, gts


def random_instance(rng):
    """A tiny random detection problem: <=3 GTs, <=6 predictions, 2 videos."""
    gts = []
    for _ in range(rng.integers(1, 4)):
        t0 = rng.integers(0, 40) / 2.0
        gts.append(G(f"v{rng.integers(2)}", int(rng.integers(3)), t0,
                     t0 + rng.integers(1, 21) / 2.0))
    preds = []
    for _ in range(rng.integers(0, 7)):
        t0 = rng.integers(0, 40) / 2.0
        preds.append(D(f"v{rng.integers(2)}", int(rng.integers(3)), t0,
                       t0 + rng.integers(1, 21) / 2.0,
                       rng.integers(0, 8) / 8.0))  # coarse scores force ties
    return preds, gts


# ---------------------------------------------------------------------------
# tiou


def test_tiou_hand_cases():
    assert ev.tiou((0.0, 10.0), (0.0, 10.0)) == 1.0
    assert ev.tiou((0.0, 10.0), (5.0, 15.0)) == pytest.approx(1.0 / 3.0, abs=0)
    assert ev.tiou((0.0, 1.0), (2.0, 3.0)) == 0.0


def test_tiou_matches_oracle_and_range():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = sorted(rng.uniform(0, 50, size=2))
        b = sorted(rng.uniform(0, 50, size=2))
        if a[0] == a[1] or b[0] == b[1]:
            continue
        val = ev.tiou(tuple(a), tuple(b))
        assert val == oracle_tiou(a[0], a[1], b[0], b[1])
        assert 0.0 <= val <= 1.0


def test_segment_iou_matrix_equals_scalar_tiou():
    # half-second grid: identical, nested, touching and zero-length segments
    segs = [(a / 2.0, b / 2.0) for a in range(0, 12, 3) for b in range(a, 14, 2)]
    matrix = ev._segment_iou(np.array(segs), np.array(segs))
    for i, a in enumerate(segs):
        for j, b in enumerate(segs):
            assert matrix[i, j] == ev.tiou(a, b)


# ---------------------------------------------------------------------------
# AP / mAP


def test_single_exact_match_gives_ap_one():
    gts = [G("v0", 0, 5.0, 10.0)]
    preds = [D("v0", 0, 5.0, 10.0, 0.9)]
    assert ev.average_precision(preds, gts, 0, 0.5) == 1.0


def test_half_recall_gives_ap_half():
    gts = [G("v0", 0, 5.0, 10.0), G("v0", 0, 20.0, 30.0)]
    preds = [D("v0", 0, 5.0, 10.0, 0.9)]
    assert ev.average_precision(preds, gts, 0, 0.5) == 0.5


def test_equal_score_order_is_stable():
    gts = [G("v0", 0, 0.0, 10.0)]
    a = D("v0", 0, 0.0, 10.0, 0.5)
    b = D("v0", 0, 30.0, 40.0, 0.5)
    assert (ev.average_precision([a, b], gts, 0, 0.5)
            == ev.average_precision([b, a], gts, 0, 0.5))


def test_equal_overlaps_match_the_earlier_ground_truth():
    # the first prediction overlaps both GTs by 1/3; taking the later one
    # would leave the second prediction unmatched
    gts = [G("v0", 0, 3.0, 5.0), G("v0", 0, 1.0, 3.0)]
    preds = [D("v0", 0, 2.0, 4.0, 0.9), D("v0", 0, 3.0, 5.0, 0.8)]
    assert ev.average_precision(preds, gts, 0, 0.3) == 1.0
    assert oracle_ap(preds, gts, 0, 0.3) == 1.0


def test_no_gt_class_is_excluded_from_map():
    gts = [G("v0", 0, 0.0, 10.0)]
    preds = [D("v0", 1, 0.0, 10.0, 0.9), D("v0", 0, 0.0, 10.0, 0.8)]
    assert ev.average_precision(preds, gts, 1, 0.5) is None
    assert ev.map_at(preds, gts, 0.5) == 1.0


def test_map_errors_without_gt():
    with pytest.raises(ev.EvalError):
        ev.map_at([], [], 0.5)


def test_perfect_predictions_sweep_all_thresholds():
    gts = [G("v0", 0, 5.0, 10.0), G("v1", 1, 0.0, 4.0)]
    preds = [D("v0", 0, 5.0, 10.0, 0.9), D("v1", 1, 0.0, 4.0, 0.8)]
    for thr in ev.TIOU_GRID:
        assert ev.map_at(preds, gts, thr) == 1.0
    assert ev.average_map(preds, gts) == 1.0


def test_tiou_grid_is_the_ten_point_ladder():
    assert len(ev.TIOU_GRID) == 10
    assert ev.TIOU_GRID[0] == 0.5
    assert ev.TIOU_GRID[-1] == 0.95
    for a, b in zip(ev.TIOU_GRID, ev.TIOU_GRID[1:]):
        assert b - a == pytest.approx(0.05, abs=1e-12)


def test_ap_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(80):
        preds, gts = random_instance(rng)
        for thr in (0.3, 0.5, 0.75):
            for c in range(3):
                got = ev.average_precision(preds, gts, c, thr)
                want = oracle_ap(preds, gts, c, thr)
                if want is None:
                    assert got is None
                else:
                    assert abs(got - want) <= 1e-12, f"trial {trial} thr {thr} class {c}"
        assert abs(ev.map_at(preds, gts, 0.5) - oracle_map(preds, gts, 0.5)) <= 1e-12


@settings(max_examples=500, deadline=None)
@given(instance=detection_instances(), class_index=st.integers(0, 1),
       thr=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.95]))
def test_average_precision_equals_oracle_exactly(instance, class_index, thr):
    preds, gts = instance
    assert ev.average_precision(preds, gts, class_index, thr) == oracle_ap(
        preds, gts, class_index, thr)


@settings(max_examples=300, deadline=None)
@given(instance=detection_instances())
def test_map_curve_equals_oracle_exactly(instance):
    # one overlap matrix per class serves every threshold
    preds, gts = instance
    if not gts:
        return
    classes = sorted({g.class_index for g in gts})
    want = [float(np.mean([oracle_ap(preds, gts, c, thr) for c in classes]))
            for thr in ev.TIOU_GRID]
    assert ev.map_curve(preds, gts) == want
    assert ev.average_map(preds, gts) == float(np.mean(want))


@settings(max_examples=300, deadline=None)
@given(instance=detection_instances())
def test_best_overlap_gt_equals_oracle_exactly(instance):
    preds, gts = instance
    for pred in preds:
        assert best_overlap_gt(pred, gts) is oracle_best_overlap_gt(pred, gts)


@settings(max_examples=300, deadline=None)
@given(instance=detection_instances())
def test_best_overlap_gts_of_all_predictions_at_once_equal_oracle_exactly(instance):
    # detad_report looks every prediction up in one call, grouped by video and class
    preds, gts = instance
    best = ev._best_overlap_gts(preds, gts)
    assert len(best) == len(preds)
    for pred, gt in zip(preds, best):
        assert gt is oracle_best_overlap_gt(pred, gts)


def test_prepending_best_correct_prediction_never_hurts():
    rng = np.random.default_rng(11)
    for _ in range(40):
        preds, gts = random_instance(rng)
        base = ev.map_at(preds, gts, 0.5)
        g = gts[0]
        boost = [D(g.video_id, g.class_index, g.t_start, g.t_end, 2.0)] + preds
        assert ev.map_at(boost, gts, 0.5) >= base - 1e-12


def test_metrics_invariant_to_video_permutation():
    rng = np.random.default_rng(5)
    preds, gts = random_instance(rng)
    renames = {"v0": "zz", "v1": "aa"}
    preds2 = [D(renames[p.video_id], p.class_index, p.t_start, p.t_end, p.score)
              for p in preds]
    gts2 = [G(renames[g.video_id], g.class_index, g.t_start, g.t_end) for g in gts]
    for thr in (0.5, 0.7):
        assert ev.map_at(preds, gts, thr) == ev.map_at(preds2, gts2, thr)


# ---------------------------------------------------------------------------
# AR / AUC


def test_single_exact_proposal_gives_full_recall():
    gts = [G("v0", 0, 5.0, 10.0)]
    props = [P("v0", 5.0, 10.0, 0.9)]
    curve = ev.ar_at_an(props, gts, (1,))
    assert curve == [(1, 1.0)]
    assert ev.auc_100(props, gts) == 100.0


def test_proposal_at_tiou_06_counts_at_three_thresholds():
    gts = [G("v0", 0, 0.0, 10.0)]
    props = [P("v0", 0.0, 6.0, 0.9)]  # tIoU exactly 0.6
    (_, ar), = ev.ar_at_an(props, gts, (1,))
    assert ar == pytest.approx(3.0 / 10.0, abs=1e-12)


def test_low_ranked_irrelevant_proposal_changes_nothing():
    gts = [G("v0", 0, 5.0, 10.0)]
    props = [P("v0", 5.0, 10.0, 0.9)]
    extra = props + [P("v0", 40.0, 41.0, 0.1)]
    assert ev.ar_at_an(props, gts, (1,)) == ev.ar_at_an(extra, gts, (1,))
    assert ev.auc_100(props, gts) == ev.auc_100(extra, gts)


def test_ar_auc_match_brute_force_on_random_instances():
    rng = np.random.default_rng(13)
    for trial in range(40):
        dets, gts = random_instance(rng)
        props = [P(d.video_id, d.t_start, d.t_end, d.score) for d in dets]
        for budget in (1, 2, 5):
            got = dict(ev.ar_at_an(props, gts, (budget,)))[budget]
            want = sum(oracle_recall(props, gts, budget, thr)
                       for thr in ev.TIOU_GRID) / len(ev.TIOU_GRID)
            assert abs(got - want) <= 1e-12, f"trial {trial} budget {budget}"
        assert abs(ev.auc_100(props, gts) - oracle_auc(props, gts)) <= 1e-12


@pytest.mark.parametrize("props, gts, want", [
    # A ties on G1 and G2; B reaches only G1 at tIoU 0.65..0.8. Taking the
    # earlier GT for A leaves B unmatched there.
    ([P("v0", 0.5, 10.5, 0.9), P("v0", 0.0, 8.0, 0.5)],
     [G("v0", 0, 0.0, 10.0), G("v0", 0, 1.0, 11.0)], 0.6),
    # A and B tie on G1; only A reaches G2 at tIoU 0.7..0.8. The higher-ranked
    # A takes G1, which leaves G2 unmatched there.
    ([P("v0", 1.0, 10.0, 0.9), P("v0", 0.0, 9.0, 0.5)],
     [G("v0", 0, 0.0, 10.0), G("v0", 0, 1.0, 12.0)], 0.65),
])
def test_overlap_ties_go_to_higher_ranked_proposal_then_earlier_gt(props, gts, want):
    (_, ar), = ev.ar_at_an(props, gts, (2,))
    assert ar == oracle_average_recall(props, gts, 2)
    assert ar == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("budgets", [(), (0,), (-1,), (1, 0, 5)])
def test_ar_at_an_rejects_empty_or_nonpositive_budgets(budgets):
    gts = [G("v0", 0, 5.0, 10.0)]
    props = [P("v0", 5.0, 10.0, 0.9), P("v0", 0.0, 1.0, 0.1)]
    with pytest.raises(ValueError, match="budgets"):
        ev.ar_at_an(props, gts, budgets)


@st.composite
def proposal_problems(draw):
    """GTs on v0/v1 and proposals on v0/v1/v2 (v2 has no GT), on a half-second
    grid with coarse scores, so score and overlap ties and touching segments
    are common; some proposals are duplicated, and one optional pair overlaps
    at exactly a TIOU_GRID threshold."""
    def segment(min_len):
        t0 = draw(st.integers(0, 40)) / 2.0
        return t0, t0 + draw(st.integers(min_len, 24)) / 2.0

    gts = [G(draw(st.sampled_from(("v0", "v1"))), 0, *segment(1))
           for _ in range(draw(st.integers(1, 4)))]
    props = [P(draw(st.sampled_from(("v0", "v1", "v2"))), *segment(0),
               draw(st.integers(0, 4)) / 4.0)
             for _ in range(draw(st.integers(0, 10)))]
    if props:
        props += [props[i] for i in draw(st.lists(st.integers(0, len(props) - 1),
                                                  max_size=3))]
    if draw(st.booleans()):
        t0 = draw(st.integers(0, 40)) / 2.0
        k = draw(st.integers(0, len(ev.TIOU_GRID) - 1))
        gts.append(G("v1", 0, t0, t0 + 20.0))
        props.append(P("v1", t0, t0 + 10.0 + k, draw(st.integers(0, 4)) / 4.0))
        assert ev.tiou((t0, t0 + 10.0 + k), (t0, t0 + 20.0)) == ev.TIOU_GRID[k]
    return draw(st.permutations(props)), gts


def oracle_average_recall(props, gts, budget):
    return float(np.mean([oracle_recall(props, gts, budget, thr) for thr in ev.TIOU_GRID]))


@settings(max_examples=150, deadline=None)
@given(proposal_problems(), st.lists(st.integers(1, 16), min_size=1, max_size=4))
def test_ar_at_an_equals_oracle_exactly(problem, budgets):
    props, gts = problem
    want = [(b, oracle_average_recall(props, gts, b)) for b in budgets]
    assert ev.ar_at_an(props, gts, tuple(budgets)) == want


@settings(max_examples=60, deadline=None)
@given(proposal_problems())
def test_auc_100_equals_oracle_exactly(problem):
    props, gts = problem
    curve = [oracle_average_recall(props, gts, b) for b in range(1, 101)]
    assert ev.auc_100(props, gts) == float(np.mean(curve) * 100.0)


# ---------------------------------------------------------------------------
# DETAD buckets


def test_bucket_boundaries_are_right_inclusive():
    assert ev.detad_bucket(30.0) == "XS"
    assert ev.detad_bucket(60.0) == "S"
    assert ev.detad_bucket(120.0) == "M"
    assert ev.detad_bucket(180.0) == "L"
    assert ev.detad_bucket(180.01) == "XL"
    assert ev.detad_bucket(90.0) == "M"
    assert ev.detad_bucket(200.0) == "XL"


def test_bucket_rejects_nonpositive_lengths():
    with pytest.raises(ValueError):
        ev.detad_bucket(0.0)
    with pytest.raises(ValueError):
        ev.detad_bucket(-3.0)


def test_detad_shares_sum_to_one():
    rng = np.random.default_rng(3)
    gts = [G("v0", 0, 0.0, float(rng.uniform(1, 400))) for _ in range(50)]
    report = ev.detad_report([], gts)
    assert sum(row["share"] for row in report.values()) == pytest.approx(1.0, abs=1e-12)
    assert sum(row["num_gt"] for row in report.values()) == 50


def test_detad_restricts_gt_and_drops_cross_bucket_predictions():
    gts = [G("v0", 0, 0.0, 20.0), G("v0", 0, 100.0, 300.0)]  # XS (20 s) and XL (200 s)
    # the XS prediction outranks the XL one, so XL scores 1.0 only if it is dropped there
    preds = [D("v0", 0, 0.0, 20.0, 0.9), D("v0", 0, 100.0, 300.0, 0.8)]
    report = ev.detad_report(preds, gts)
    assert report["XS"]["num_gt"] == 1
    assert report["XL"]["num_gt"] == 1
    assert report["M"]["num_gt"] == 0
    assert report["XS"]["average_map"] == 1.0
    assert report["XL"]["average_map"] == 1.0
    assert report["S"]["average_map"] is None


# ---------------------------------------------------------------------------
# baseline localizer


def make_track(p_fg, fps=1.0, clip_len=4, stride=1, hop=4, logits=None, classes=3):
    # p_fg=None builds a track without a region head (as tac checkpoints give)
    if p_fg is not None:
        n = len(p_fg)
    elif logits is not None:
        n = len(logits)
    else:
        n = 4
    if logits is None:
        logits = np.tile(np.array([2.0, 0.0, -1.0]), (n, 1))
    return FeatureTrack(
        video_id="v0", clip_len=clip_len, frame_stride=stride, hop_frames=hop,
        fps=fps, num_frames=hop * n, checkpoint_id="c0",
        global_feature=np.zeros(2),
        center_times=np.arange(n) * hop / fps,
        features=np.zeros((n, 2)),
        region_probs=None if p_fg is None else np.asarray(p_fg, dtype=float),
        action_logits=np.asarray(logits, dtype=float))


def test_single_run_extraction():
    track = make_track([0.0, 0.0, 1.0, 1.0, 0.0])
    params = ev.LocalizerParams(smooth_window=1, thresholds=(0.5,))
    dets, props = ev.baseline_localize(track, params)
    assert len(props) == 1
    start, end = props[0].t_start, props[0].t_end
    # run spans clips at centers 8 and 12 (frames); clip_len=4 stride=1
    assert start == (8 - 1) / 1.0
    assert end == (12 + 2 + 1) / 1.0
    assert props[0].score == 1.0
    assert len(dets) == 1
    assert dets[0].class_index == 0


def test_all_background_track_yields_nothing():
    track = make_track([0.0] * 6)
    dets, props = ev.baseline_localize(track, ev.LocalizerParams())
    assert dets == [] and props == []


def test_nms_keeps_one_of_identical_candidates():
    track = make_track([0.9, 0.9, 0.0, 0.0])
    # thresholds 0.3 and 0.5 produce the same run twice
    params = ev.LocalizerParams(smooth_window=1, thresholds=(0.3, 0.5))
    dets, props = ev.baseline_localize(track, params)
    assert len(props) == 1
    assert len(dets) == 1


def brute_force_runs(mask):
    """Every maximal run of True as (start, stop), by checking each pair."""
    n = len(mask)
    return [(i, j) for i in range(n) for j in range(i + 1, n + 1)
            if all(mask[i:j]) and (i == 0 or not mask[i - 1]) and (j == n or not mask[j])]


@settings(max_examples=200, deadline=None)
@given(mask=st.lists(st.booleans(), max_size=24), first=st.booleans(), last=st.booleans())
def test_runs_are_the_brute_force_maximal_runs(mask, first, last):
    # first and last put a run at each end of the mask as often as not
    mask = [first, *mask, last]
    assert ev._runs(np.array(mask, dtype=bool)) == brute_force_runs(mask)
    assert ev._runs(np.zeros(0, dtype=bool)) == []


@settings(max_examples=60, deadline=None)
@given(instance=detection_instances(), thr=st.sampled_from([0.25, 0.5, 0.8, 1.0]))
def test_nms_equals_the_scalar_greedy_loop_exactly(instance, thr):
    dets, _ = instance
    props = [P(d.video_id, d.t_start, d.t_end, d.score) for d in dets]
    assert ev._nms(dets, [d.class_index for d in dets], thr) == reference_nms_detections(dets, thr)
    assert ev._nms(props, [0] * len(props), thr) == reference_nms_proposals(props, thr)


def test_region_actionness_requires_region_scores():
    track = make_track(None)
    with pytest.raises(ev.EvalError):
        ev.baseline_localize(track, ev.LocalizerParams(), "region")
    dets, props = ev.baseline_localize(track, ev.LocalizerParams(), "max_prob")
    assert isinstance(dets, list)


def test_max_prob_actionness_uses_class_confidence():
    logits = np.array([[4.0, 0.0, 0.0]] * 2 + [[0.1, 0.0, 0.0]] * 2)
    track = make_track([0.0] * 4, logits=logits)
    scores = ev.actionness_scores(track, "max_prob")
    assert scores[0] > 0.9
    assert scores[2] < 0.5


def test_smoothing_window_averages_neighbors():
    track = make_track([0.0, 1.0, 0.0])
    smoothed = ev._smooth(ev.actionness_scores(track, "region"), 3)
    assert smoothed.tolist() == [0.5, 1.0 / 3.0, 0.5]


def test_max_predictions_cap():
    rng = np.random.default_rng(0)
    p_fg = (rng.uniform(size=200) > 0.5).astype(float)
    track = make_track(p_fg.tolist())
    params = ev.LocalizerParams(max_predictions=5, nms_tiou=0.999)
    dets, props = ev.baseline_localize(track, params)
    assert len(dets) <= 5 and len(props) <= 5


# ---------------------------------------------------------------------------
# predictions files


def test_predictions_round_trip(tmp_path):
    dets = {"v0": [D("v0", 1, 0.0, 5.0, 0.75)], "v1": []}
    path = tmp_path / "dets.json"
    ev.save_predictions(dets, path, invocation="eval-det --x 1")
    loaded = ev.load_predictions(path, kind="detections")
    assert loaded == [D("v0", 1, 0.0, 5.0, 0.75)]
    props = {"v0": [P("v0", 1.0, 2.0, 0.5)]}
    ppath = tmp_path / "props.json"
    ev.save_predictions(props, ppath)
    assert ev.load_predictions(ppath, kind="proposals") == [P("v0", 1.0, 2.0, 0.5)]


@pytest.mark.parametrize("kind", ["detection", "Proposals", ""])
def test_load_predictions_rejects_unknown_kind(tmp_path, kind):
    path = tmp_path / "dets.json"
    ev.save_predictions({"v0": [D("v0", 1, 0.0, 5.0, 0.75)]}, path)
    with pytest.raises(ValueError, match="kind"):
        ev.load_predictions(path, kind=kind)
