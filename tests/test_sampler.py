"""Clip geometry, jittering, clips as frame-store rows, and balanced epochs."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspkit import corpus as cp
from tspkit import sampler as sp
from tspkit.seeding import rng_for


def test_default_geometry_spans_31_frames_about_one_second():
    span = sp.clip_span(16, 2)
    assert span == 31
    assert abs(span / 30.0 - 1.0) < 0.05  # ~1 s at 30 fps


def test_clip_indices_clamp_at_video_start():
    idx = sp.clip_frame_indices(0, 4, 1, num_frames=100)
    assert idx.tolist() == [0, 0, 1, 2]


def test_clip_indices_mid_video_are_arithmetic():
    idx = sp.clip_frame_indices(200, 16, 2, num_frames=1000)
    assert idx.tolist() == list(range(200 - 14, 200 + 17, 2))
    assert len(idx) == 16
    assert idx[-1] - idx[0] + 1 == 31


def make_video(duration=40.0, fps=1.0, annotations=(("a", 10.0, 20.0),)):
    anns = [cp.AnnotationInstance(l, t0, t1) for l, t0, t1 in annotations]
    return cp.VideoRecord("v", "train", duration, fps, anns, 1)


def test_test_mode_centers_at_slice_midpoints():
    video = make_video()
    segment = cp.RegionSegment(10.0, 20.0, "foreground", "a")
    centers = sp.sample_segment_clips(segment, video, mode="test", n=5, rng=None)
    assert centers.tolist() == [11, 13, 15, 17, 19]
    # midpoints 46.7, 60 and 73.3 frames round to the nearest frame
    centers = sp.sample_segment_clips(segment, make_video(fps=4.0), mode="test", n=3, rng=None)
    assert centers.tolist() == [47, 60, 73]


def test_single_test_clip_sits_at_midpoint():
    video = make_video()
    segment = cp.RegionSegment(10.0, 20.0, "foreground", "a")
    centers = sp.sample_segment_clips(segment, video, mode="test", n=1, rng=None)
    assert centers.tolist() == [15]


def test_train_mode_is_reproducible_and_inside_segment():
    video = make_video(duration=100.0, fps=4.0)
    segment = cp.RegionSegment(10.0, 20.0, "foreground", "a")
    a = sp.sample_segment_clips(segment, video, mode="train", n=5, rng=rng_for(1))
    b = sp.sample_segment_clips(segment, video, mode="train", n=5, rng=rng_for(1))
    assert a.tolist() == b.tolist()
    first, last = sp.segment_frame_range(segment, video.fps, video.num_frames)
    assert ((first <= a) & (a <= last)).all()


def test_degenerate_segment_yields_no_clips():
    video = make_video(duration=40.0, fps=1.0)
    segment = cp.RegionSegment(10.2, 10.9, "background")  # contains no frame timestamp
    centers = sp.sample_segment_clips(segment, video, mode="test", n=5, rng=None)
    assert centers.shape == (0,)


# ---------------------------------------------------------------------------
# clip sets: clips as rows of a split's frame store


def gather_corpus(channels, height, width):
    """Three train and two valid short videos of different lengths (6 to 18
    frames at 2 fps), interleaved in id order."""
    durations = {"train": (3.0, 6.5, 9.0), "valid": (4.5, 7.0)}
    videos = {}
    for split, lengths in durations.items():
        for k, duration in enumerate(lengths):
            vid = f"v{k}_{split}"
            videos[vid] = cp.VideoRecord(vid, split, duration, 2.0,
                                         [cp.AnnotationInstance("a", 1.0, 2.5)],
                                         10 + k + 5 * (split == "valid"))
    return cp.Corpus(["a"], videos, cp.SynthInfo(0, 0.5, "pure", channels, height, width))


SMALL_FRAMES = gather_corpus(3, 2, 3)  # (c, h, w) distinct, so axis order matters


def reference_clips(corpus, split, mode, n, rng):
    """(video, center, region label, action label) of each clip a pool holds, one
    segment at a time, every foreground clip first."""
    kinds = {"foreground": [], "background": []}
    for video in corpus.subset_videos(split):
        for segment in corpus.segments(video.id):
            fg = segment.kind == "foreground"
            action = corpus.class_index(segment.class_label) if fg else -1
            kinds[segment.kind] += [
                (video, int(center), int(fg), action)
                for center in sp.sample_segment_clips(segment, video, mode=mode, n=n, rng=rng)]
    return kinds["foreground"] + kinds["background"]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["train", "valid"]), st.sampled_from(["train", "test"]),
       st.integers(1, 4), st.sampled_from([1, 2, 5, 16]), st.sampled_from([1, 2, 3]),
       st.integers(0, 3), st.integers(1, 10))
def test_store_take_of_clip_rows_equals_stacked_load_clip(split, mode, n, clip_len, stride,
                                                          seed, batch_size):
    # short videos: most clips reach past one end of their video, or both
    clips = sp.segment_clip_pool(SMALL_FRAMES, split, mode=mode, clips_per_segment=n,
                                 clip_len=clip_len, frame_stride=stride, rng=rng_for(seed))
    expected = reference_clips(SMALL_FRAMES, split, mode, n, rng_for(seed))
    assert len(clips) == len(expected) > 0
    assert clips.region_labels.tolist() == [region for _, _, region, _ in expected]
    assert clips.action_labels.tolist() == [action for _, _, _, action in expected]
    assert clips.videos.tolist() == [SMALL_FRAMES.video_index(video.id)
                                     for video, _, _, _ in expected]
    store = SMALL_FRAMES.split_frames(split)
    for start in range(0, len(clips), batch_size):
        batch = clips[start:start + batch_size]
        got = store.take(batch.rows, axis=0)
        assert got.shape == (len(batch), clip_len, 18)
        assert got.flags.c_contiguous
        # each (c, L, h, w) clip flattened to (L, c*h*w)
        reference = np.stack([
            sp.load_clip(SMALL_FRAMES, video, center, clip_len, stride)
            .transpose(1, 0, 2, 3).reshape(clip_len, -1)
            for video, center, _, _ in expected[start:start + batch_size]])
        assert got.tobytes() == reference.tobytes()


def test_split_store_rows_are_the_videos_frames_at_their_offsets():
    corpus = gather_corpus(2, 1, 1)
    video = corpus.videos["v1_valid"]
    frames = corpus.video_frames(video)  # fills the whole valid store
    store = corpus.split_frames("valid")
    assert sorted(corpus._stores) == ["valid"]
    assert not store.flags.writeable and not frames.flags.writeable
    start = corpus.frame_offset(video)
    assert start == corpus.videos["v0_valid"].num_frames
    assert np.shares_memory(store, frames)
    assert np.array_equal(store[start:start + video.num_frames],
                          frames.reshape(video.num_frames, -1))
    assert len(store) == sum(v.num_frames for v in corpus.subset_videos("valid"))


# ---------------------------------------------------------------------------
# epochs


def study_corpus(seed=0):
    cfg = cp.SynthConfig(videos_per_subset=(6, 3, 0), duration_range=(60.0, 120.0),
                         num_classes=3, fps=4.0)
    return cp.generate_synthetic(cfg, seed=seed)


# sha256 of build_epoch's four arrays, as int64 bytes, on study_corpus() at seed 0,
# epoch 0 then epoch 1: it pins the jitter and subsample draws, their order and the labels
GOLDEN_EPOCH_DIGESTS = {False: "992555fd002b9ba0", True: "5cabdc50f3566547"}


@pytest.mark.parametrize("fg_only", [False, True])
def test_epochs_match_golden_digest(fg_only):
    corpus = study_corpus()
    digest = hashlib.sha256()
    for epoch_index in (0, 1):
        epoch = sp.build_epoch(corpus, "train", epoch_index, 0, fg_only=fg_only)
        for array in (epoch.rows, epoch.region_labels, epoch.action_labels, epoch.videos):
            digest.update(np.asarray(array, np.int64).tobytes())
    assert digest.hexdigest()[:16] == GOLDEN_EPOCH_DIGESTS[fg_only]


def test_epoch_is_exactly_balanced():
    corpus = study_corpus()
    epoch = sp.build_epoch(corpus, "train", epoch_index=0, seed=0)
    fg = np.count_nonzero(epoch.region_labels == 1)
    bg = np.count_nonzero(epoch.region_labels == 0)
    assert fg == bg
    assert fg > 0


def test_labels_follow_owning_segment():
    corpus = study_corpus()
    epoch = sp.build_epoch(corpus, "train", epoch_index=0, seed=0)
    videos = list(corpus.videos.values())
    left = (16 - 1) // 2  # the center's row: a sampled center lies inside its video
    for rows, region, action, v in zip(epoch.rows, epoch.region_labels, epoch.action_labels,
                                       epoch.videos):
        video = videos[v]
        t = (rows[left] - corpus.frame_offset(video)) / video.fps
        seg = next(s for s in corpus.segments(video.id)
                   if s.t_start <= t < s.t_end or s is corpus.segments(video.id)[-1])
        assert region == (seg.kind == "foreground")
        assert action == (corpus.class_index(seg.class_label)
                          if seg.kind == "foreground" else -1)


def test_forced_pool_sizes():
    corpus = study_corpus()
    pool = sp.segment_clip_pool(corpus, "train", mode="train", clips_per_segment=5,
                                clip_len=16, frame_stride=2, rng=rng_for(0))
    fg = np.count_nonzero(pool.region_labels)
    assert pool.region_labels[:fg].all() and not pool.region_labels[fg:].any()
    epoch = sp.build_epoch(corpus, "train", epoch_index=0, seed=0)
    assert len(epoch) == 2 * min(fg, len(pool) - fg)


def test_different_epochs_resample_the_larger_pool():
    corpus = study_corpus()
    e0 = sp.build_epoch(corpus, "train", epoch_index=0, seed=0)
    e1 = sp.build_epoch(corpus, "train", epoch_index=1, seed=0)
    assert sorted(e0.rows.tolist()) != sorted(e1.rows.tolist())
    # disabling resampling pins the pool to the epoch-0 subsample
    f0 = sp.build_epoch(corpus, "train", 0, 0, resample_each_epoch=False)
    f1 = sp.build_epoch(corpus, "train", 1, 0, resample_each_epoch=False)
    assert sorted(f0.rows.tolist()) == sorted(f1.rows.tolist())


def test_epoch_requires_both_kinds():
    cfg = cp.SynthConfig(videos_per_subset=(2, 1, 0), instances_per_video=(0, 0),
                         duration_range=(40.0, 60.0))
    corpus = cp.generate_synthetic(cfg, seed=0)
    with pytest.raises(sp.EpochError):
        sp.build_epoch(corpus, "train", 0, 0)


def test_fg_only_epoch_for_classification_mode():
    corpus = study_corpus()
    epoch = sp.build_epoch(corpus, "train", 0, 0, fg_only=True)
    assert len(epoch)
    assert (epoch.region_labels == 1).all() and (epoch.action_labels >= 0).all()


def test_test_clip_set_is_deterministic():
    corpus = study_corpus()
    a = sp.test_clip_set(corpus, "valid")
    b = sp.test_clip_set(corpus, "valid")
    assert all(np.array_equal(x, y) for x, y in zip(vars(a).values(), vars(b).values()))
