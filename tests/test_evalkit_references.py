"""evalkit's one-pass scoring against the one-threshold-at-a-time loops of
``reference_evalkit``, and the predictions writer against ``json.dumps``.

AP and recall floats are compared with ``==``, and predictions as equal
dataclasses in equal order, on random instances full of ties: tied scores,
tied overlaps, overlaps exactly at a threshold, classes and videos without
predictions, and tracks with no run above any threshold.
"""

import json
import math

import numpy as np
import reference_evalkit as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from tspkit import evalkit as ev
from tspkit.extract import FeatureTrack

D = ev.DetectionPrediction
P = ev.ProposalPrediction
G = ev.GroundTruthInstance

VIDEOS = ("v0", "v1", "v2")  # v2 never has ground truth


def segment(draw, min_len=1):
    """A segment on a half-second grid, so overlaps and starts tie often."""
    t0 = draw(st.integers(0, 30)) / 2.0
    return t0, t0 + draw(st.integers(min_len, 20)) / 2.0


@st.composite
def detection_problems(draw):
    """GTs of classes 0-2 on v0/v1 and predictions of classes 0-3 on v0-v2,
    scores on a coarse grid; predictions often copy or shift a GT, and a class
    may have GT but no prediction, or predictions but no GT."""
    gts = [G(draw(st.sampled_from(VIDEOS[:2])), draw(st.integers(0, 2)), *segment(draw))
           for _ in range(draw(st.integers(1, 8)))]
    preds = []
    for _ in range(draw(st.integers(0, 16))):
        if draw(st.booleans()):
            g = draw(st.sampled_from(gts))
            shift = draw(st.integers(-4, 4)) / 2.0
            preds.append(D(g.video_id, g.class_index, g.t_start + shift, g.t_end + shift,
                           draw(st.integers(0, 4)) / 4.0))
        else:
            preds.append(D(draw(st.sampled_from(VIDEOS)), draw(st.integers(0, 3)),
                           *segment(draw), draw(st.integers(0, 4)) / 4.0))
    return preds, gts


THRESHOLD_SETS = st.one_of(
    st.just(ev.TIOU_GRID),
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.6, 0.75, 0.95, 1.0]),
             min_size=1, max_size=6).map(tuple))


@settings(max_examples=300, deadline=None)
@given(problem=detection_problems(), thresholds=THRESHOLD_SETS)
def test_ap_curve_equals_one_matching_per_threshold(problem, thresholds):
    preds, gts = problem
    for c in sorted({g.class_index for g in gts}):
        class_preds = ev._sorted_predictions([p for p in preds if p.class_index == c])
        class_gts = [g for g in gts if g.class_index == c]
        assert (ev._ap_curve(class_preds, class_gts, thresholds)
                == ref.ap_curve(class_preds, class_gts, thresholds))


@settings(max_examples=150, deadline=None)
@given(problem=detection_problems())
def test_map_curve_and_detad_report_equal_the_reference_composition(problem):
    preds, gts = problem

    def reference_map_curve(preds, gts):
        classes = sorted({g.class_index for g in gts})
        curves = [ref.ap_curve(ev._sorted_predictions([p for p in preds if p.class_index == c]),
                               [g for g in gts if g.class_index == c], ev.TIOU_GRID)
                  for c in classes]
        return [float(np.mean([curve[t] for curve in curves])) for t in range(len(ev.TIOU_GRID))]

    assert ev.map_curve(preds, gts) == reference_map_curve(preds, gts)
    # every GT here is at most 10 s long, so one bucket holds them all
    assert ev.detad_report(preds, gts)["XS"]["average_map"] == float(
        np.mean(reference_map_curve(preds, gts)))


@st.composite
def proposal_problems(draw):
    """GTs on v0/v1, proposals on v0-v2 with coarse scores, some of them
    copies of a GT or duplicates of another proposal."""
    gts = [G(draw(st.sampled_from(VIDEOS[:2])), 0, *segment(draw))
           for _ in range(draw(st.integers(1, 6)))]
    props = []
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.booleans()):
            g = draw(st.sampled_from(gts))
            props.append(P(g.video_id, g.t_start, g.t_end + draw(st.integers(0, 6)) / 2.0,
                           draw(st.integers(0, 3)) / 3.0))
        else:
            props.append(P(draw(st.sampled_from(VIDEOS)), *segment(draw, 0),
                           draw(st.integers(0, 3)) / 3.0))
    if props:
        props += [props[i] for i in draw(st.lists(st.integers(0, len(props) - 1), max_size=4))]
    return draw(st.permutations(props)), gts


BUDGETS = st.one_of(st.just(ev.AUC_BUDGETS),
                    st.lists(st.integers(1, 30), min_size=1, max_size=8).map(tuple))


@settings(max_examples=200, deadline=None)
@given(problem=proposal_problems(), budgets=BUDGETS)
def test_ar_at_an_equals_one_matching_per_threshold_and_budget(problem, budgets):
    props, gts = problem
    assert ev.ar_at_an(props, gts, budgets) == ref.ar_at_an(props, gts, budgets)


@st.composite
def localizer_problems(draw):
    """A track of 0-24 clips with coarse region probabilities (or none, read
    by max_prob) and logits, centers that may be out of order or at the
    video's last frame, and random localizer settings."""
    n = draw(st.integers(0, 24))
    fps = draw(st.sampled_from([1.0, 2.5, 30.0]))
    clip_len, stride, hop = (draw(st.integers(1, 6)) for _ in range(3))
    num_frames = max(hop * n, 1)
    centers = np.arange(n) * hop / fps
    if draw(st.booleans()):  # out of order, some at the video's end
        centers = np.array(draw(st.lists(st.integers(0, num_frames), min_size=n, max_size=n)),
                           dtype=float) / fps
    classes = draw(st.integers(1, 4))
    logits = np.array(draw(st.lists(st.integers(-4, 4), min_size=n * classes,
                                    max_size=n * classes)), dtype=float).reshape(n, classes) / 2
    region = draw(st.booleans())
    probs = (np.array(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))) / 10
             if region else None)
    track = FeatureTrack(
        video_id="v0", clip_len=clip_len, frame_stride=stride, hop_frames=hop, fps=fps,
        num_frames=num_frames, checkpoint_id="c0", global_feature=np.zeros(0),
        center_times=centers, features=np.zeros((n, 2)), region_probs=probs,
        action_logits=logits)
    params = ev.LocalizerParams(
        smooth_window=draw(st.sampled_from([1, 3, 5])),
        thresholds=tuple(draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.55, 0.7, 0.9]),
                                       min_size=1, max_size=9))),
        nms_tiou=draw(st.sampled_from([0.3, 0.8, 1.0])),
        max_predictions=draw(st.sampled_from([1, 3, 100])))
    return track, params, "region" if region else "max_prob"


@settings(max_examples=300, deadline=None)
@given(problem=localizer_problems())
def test_baseline_localize_equals_one_run_at_a_time(problem):
    track, params, source = problem
    assert ev.baseline_localize(track, params, source) == ref.baseline_localize(
        track, params, source)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 3, 5, 7, 9, 21, 41]),
       st.lists(st.floats(-1e6, 1e6), max_size=60))
def test_smooth_equals_the_clip_at_a_time_loop(window, values):
    # tracks shorter than the window, as long as it, and longer
    values = np.array(values, dtype=np.float64)
    assert ev._smooth(values, window).tobytes() == ref.smooth(values, window).tobytes()


def test_clip_extents_of_huge_track_integers_equal_the_reference():
    # a track file may give any integer; the extents must not overflow
    for clip_len, stride, num_frames in [(2**70, 1, 24), (4, 2**70, 24), (4, 1, 2**70),
                                         (2**70, 2**70, 2**70)]:
        track = FeatureTrack(
            video_id="v0", clip_len=clip_len, frame_stride=stride, hop_frames=4, fps=1.0,
            num_frames=num_frames, checkpoint_id="c0", global_feature=np.zeros(0),
            center_times=np.arange(6) * 4.0, features=np.zeros((6, 2)),
            region_probs=np.array([0.0, 0.9, 0.9, 0.0, 0.6, 0.6]),
            action_logits=np.zeros((6, 3)))
        params = ev.LocalizerParams()
        assert ev.baseline_localize(track, params) == ref.baseline_localize(track, params)


def test_a_track_below_every_threshold_yields_nothing_in_both():
    track = FeatureTrack(
        video_id="v0", clip_len=4, frame_stride=1, hop_frames=4, fps=1.0, num_frames=24,
        checkpoint_id="c0", global_feature=np.zeros(0), center_times=np.arange(6) * 4.0,
        features=np.zeros((6, 2)), region_probs=np.full(6, 0.05),
        action_logits=np.zeros((6, 3)))
    params = ev.LocalizerParams()
    assert ev.baseline_localize(track, params) == ref.baseline_localize(track, params) == ([], [])


# ---------------------------------------------------------------------------
# predictions writer

IDS = st.one_of(st.text(max_size=6), st.sampled_from(['"q"', "back\\slash", "é✓", "__x",
                                                      "__invocation__"]))
ENDS = st.one_of(st.integers(-5, 10**6), st.floats(allow_nan=False, allow_infinity=False))
SCORES = st.one_of(st.floats(), st.integers(-3, 3), st.sampled_from([math.nan, math.inf,
                                                                    -math.inf, -0.0]))


@st.composite
def prediction_maps(draw):
    """Video ids to lists of detections and proposals, possibly mixed or empty."""
    def prediction(video_id):
        t0, t1, score = draw(ENDS), draw(ENDS), draw(SCORES)
        if draw(st.booleans()):
            return D(video_id, draw(st.integers(0, 200)), t0, t1, score)
        return P(video_id, t0, t1, score)

    return {video_id: [prediction(video_id) for _ in range(draw(st.integers(0, 3)))]
            for video_id in draw(st.lists(IDS, max_size=4, unique=True))}


def as_rows(items):
    rows = []
    for p in items:
        row = {"segment": [p.t_start, p.t_end], "score": p.score}
        if isinstance(p, D):
            row["label"] = p.class_index
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(preds=prediction_maps(), invocation=st.one_of(st.none(), IDS))
def test_save_predictions_writes_what_json_dumps_writes(preds, invocation, tmp_path_factory):
    path = tmp_path_factory.mktemp("writer") / "predictions.json"
    ev.save_predictions(preds, path, invocation)
    doc = {video_id: as_rows(items) for video_id, items in preds.items()}
    if invocation is not None:
        doc["__invocation__"] = invocation
    assert path.read_bytes() == (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
