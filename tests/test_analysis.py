"""Feature-similarity analysis: the region label of each track row."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tspkit import analysis
from tspkit.corpus import AnnotationInstance, VideoRecord, derive_segments
from tspkit.extract import FeatureTrack

DURATION = 40.0


def track_at(center_times):
    n = len(center_times)
    return FeatureTrack(
        video_id="v0", clip_len=4, frame_stride=1, hop_frames=4, fps=1.0, num_frames=40,
        checkpoint_id="c0", global_feature=np.zeros(2),
        center_times=np.asarray(center_times, dtype=float), features=np.zeros((n, 2)),
        region_probs=np.zeros(n), action_logits=np.zeros((n, 2)))


# annotations on a whole-second grid that overlap, touch and nest, and centers
# on the same grid, so that many fall exactly on an interval's start or end
annotations = st.lists(st.tuples(st.integers(0, 39), st.integers(1, 10)), max_size=6)
centers = st.lists(st.integers(0, 40) | st.floats(0.0, 40.0), max_size=30)


@settings(max_examples=200, deadline=None)
@given(spans=annotations, times=centers)
def test_row_region_labels_are_the_per_interval_check(spans, times):
    video = VideoRecord("v0", "valid", DURATION, 1.0, [
        AnnotationInstance("a", float(t0), float(min(t0 + length, DURATION)))
        for t0, length in spans])
    track = track_at(times)
    fg = [(s.t_start, s.t_end) for s in derive_segments(video) if s.kind == "foreground"]
    expected = [any(t0 <= t < t1 for t0, t1 in fg) for t in track.center_times]
    labels = analysis.row_region_labels(track, video)
    assert labels.dtype == bool and labels.tolist() == expected
