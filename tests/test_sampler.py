"""Clip geometry, jittering, clips as frame-store rows, and balanced epochs."""

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
    clips = sp.sample_segment_clips(segment, video, mode="test", n=5, rng=None,
                                    clip_len=16, frame_stride=2, class_index=0)
    assert [c.center_frame for c in clips] == [11, 13, 15, 17, 19]


def test_single_test_clip_sits_at_midpoint():
    video = make_video()
    segment = cp.RegionSegment(10.0, 20.0, "foreground", "a")
    clips = sp.sample_segment_clips(segment, video, mode="test", n=1, rng=None,
                                    clip_len=16, frame_stride=2, class_index=0)
    assert [c.center_frame for c in clips] == [15]


def test_train_mode_is_reproducible_and_inside_segment():
    video = make_video(duration=100.0, fps=4.0)
    segment = cp.RegionSegment(10.0, 20.0, "foreground", "a")
    a = sp.sample_segment_clips(segment, video, mode="train", n=5, rng=rng_for(1),
                                clip_len=16, frame_stride=2, class_index=0)
    b = sp.sample_segment_clips(segment, video, mode="train", n=5, rng=rng_for(1),
                                clip_len=16, frame_stride=2, class_index=0)
    assert [c.center_frame for c in a] == [c.center_frame for c in b]
    first, last = sp.segment_frame_range(segment, video.fps, video.num_frames)
    for c in a:
        assert first <= c.center_frame <= last


def test_degenerate_segment_yields_no_clips():
    video = make_video(duration=40.0, fps=1.0)
    segment = cp.RegionSegment(10.2, 10.9, "background")  # contains no frame timestamp
    clips = sp.sample_segment_clips(segment, video, mode="test", n=5, rng=None,
                                    clip_len=16, frame_stride=2, class_index=None)
    assert clips == []


# ---------------------------------------------------------------------------
# clips as rows of a split's frame store


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


@st.composite
def clip_specs(draw, corpus):
    """Mixed-video specs of one split sharing one geometry; centers reach past both ends."""
    split = draw(st.sampled_from(["train", "valid"]))
    clip_len = draw(st.sampled_from([1, 2, 5, 16]))
    stride = draw(st.sampled_from([1, 2, 3]))
    specs = []
    for _ in range(draw(st.integers(1, 9))):
        video = draw(st.sampled_from(corpus.subset_videos(split)))
        last = video.num_frames - 1
        center = draw(st.sampled_from([0, 1, last - 1, last]) | st.integers(-2, last + 2))
        specs.append(sp.ClipSpec(video.id, center, clip_len, stride, "foreground", 0))
    return split, specs


def reference_batch(corpus, specs):
    """``load_clip`` per spec, each (c, L, h, w) clip flattened to (L, c*h*w)."""
    return np.stack([sp.load_clip(corpus, s).transpose(1, 0, 2, 3).reshape(s.clip_len, -1)
                     for s in specs])


@settings(max_examples=80, deadline=None)
@given(clip_specs(SMALL_FRAMES), st.integers(1, 10))
def test_store_take_of_clip_rows_equals_stacked_load_clip(split_specs, batch_size):
    split, specs = split_specs
    store = SMALL_FRAMES.split_frames(split)
    for start in range(0, len(specs), batch_size):
        batch = specs[start:start + batch_size]
        rows = sp.clip_rows(SMALL_FRAMES, batch)
        assert rows.shape == (len(batch), batch[0].clip_len)
        got = store.take(rows, axis=0)
        assert got.shape == (len(batch), batch[0].clip_len, 18)
        assert got.flags.c_contiguous
        assert got.tobytes() == reference_batch(SMALL_FRAMES, batch).tobytes()


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


def test_clip_rows_rejects_empty_mixed_geometry_and_mixed_splits():
    with pytest.raises(ValueError, match="no clips"):
        sp.clip_rows(SMALL_FRAMES, [])
    specs = [sp.ClipSpec("v0_train", 2, 4, 2, "background"),
             sp.ClipSpec("v1_train", 2, 4, 1, "background")]
    with pytest.raises(ValueError, match="share"):
        sp.clip_rows(SMALL_FRAMES, specs)
    specs = [sp.ClipSpec("v0_train", 2, 4, 2, "background"),
             sp.ClipSpec("v0_valid", 2, 4, 2, "background")]
    with pytest.raises(ValueError, match="one split"):
        sp.clip_rows(SMALL_FRAMES, specs)


# ---------------------------------------------------------------------------
# epochs


def study_corpus(seed=0):
    cfg = cp.SynthConfig(videos_per_subset=(6, 3, 0), duration_range=(60.0, 120.0),
                         num_classes=3, fps=4.0)
    return cp.generate_synthetic(cfg, seed=seed)


def test_epoch_is_exactly_balanced():
    corpus = study_corpus()
    epoch = sp.build_epoch(corpus, "train", epoch_index=0, seed=0)
    fg = sum(1 for spec in epoch if spec.kind == "foreground")
    bg = sum(1 for spec in epoch if spec.kind == "background")
    assert fg == bg
    assert fg > 0


def test_labels_follow_owning_segment():
    corpus = study_corpus()
    epoch = sp.build_epoch(corpus, "train", epoch_index=0, seed=0)
    for spec in epoch:
        video = corpus.videos[spec.video_id]
        t = spec.center_frame / video.fps
        seg = next(s for s in corpus.segments(spec.video_id)
                   if s.t_start <= t < s.t_end or s is corpus.segments(spec.video_id)[-1])
        assert seg.kind == spec.kind
        assert spec.class_index == (corpus.class_index(seg.class_label)
                                    if seg.kind == "foreground" else None)


def test_forced_pool_sizes():
    corpus = study_corpus()
    fg, bg = sp.segment_clip_pool(corpus, "train", mode="train", clips_per_segment=5,
                                  clip_len=16, frame_stride=2, rng=rng_for(0))
    epoch = sp.build_epoch(corpus, "train", epoch_index=0, seed=0)
    assert len(epoch) == 2 * min(len(fg), len(bg))


def test_different_epochs_resample_the_larger_pool():
    corpus = study_corpus()
    e0 = sp.build_epoch(corpus, "train", epoch_index=0, seed=0)
    e1 = sp.build_epoch(corpus, "train", epoch_index=1, seed=0)
    c0 = sorted((s.video_id, s.center_frame) for s in e0)
    c1 = sorted((s.video_id, s.center_frame) for s in e1)
    assert c0 != c1
    # disabling resampling pins the pool to the epoch-0 subsample
    f0 = sp.build_epoch(corpus, "train", 0, 0, resample_each_epoch=False)
    f1 = sp.build_epoch(corpus, "train", 1, 0, resample_each_epoch=False)
    assert (sorted((s.video_id, s.center_frame) for s in f0)
            == sorted((s.video_id, s.center_frame) for s in f1))


def test_epoch_requires_both_kinds():
    cfg = cp.SynthConfig(videos_per_subset=(2, 1, 0), instances_per_video=(0, 0),
                         duration_range=(40.0, 60.0))
    corpus = cp.generate_synthetic(cfg, seed=0)
    with pytest.raises(sp.EpochError):
        sp.build_epoch(corpus, "train", 0, 0)


def test_fg_only_epoch_for_classification_mode():
    corpus = study_corpus()
    epoch = sp.build_epoch(corpus, "train", 0, 0, fg_only=True)
    assert epoch
    assert all(spec.kind == "foreground" for spec in epoch)


def test_test_clip_set_is_deterministic():
    corpus = study_corpus()
    a = sp.test_clip_set(corpus, "valid")
    b = sp.test_clip_set(corpus, "valid")
    assert a == b
