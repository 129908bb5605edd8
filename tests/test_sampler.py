"""Clip geometry, jittering, crops, and balanced epoch construction."""

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
# spatial transform


def test_tiny_frames_pass_through():
    frames = np.arange(2 * 3 * 1 * 1, dtype=float).reshape(2, 3, 1, 1)
    out = sp.spatial_transform(frames, "test")
    assert out is frames


def test_centered_crop_offsets_128x170():
    frames = np.zeros((1, 2, 128, 170))
    frames[0, :, 8, 29] = 1.0  # the expected crop origin
    out = sp.spatial_transform(frames, "test")
    assert out.shape == (1, 2, 112, 112)
    assert out[0, 0, 0, 0] == 1.0


def test_train_crops_stay_inside_frame():
    rng = rng_for(123)
    frames = np.zeros((1, 1, 128, 170))
    for _ in range(1000):
        out = sp.spatial_transform(frames, "train", rng)
        assert out.shape == (1, 1, 112, 112)


def test_large_frames_resized_then_cropped():
    # 256x340 halves to 128x170, then center-crops to 112x112
    frames = np.random.default_rng(0).standard_normal((1, 1, 256, 340))
    out = sp.spatial_transform(frames, "test")
    assert out.shape == (1, 1, 112, 112)
    assert sp.transformed_shape(256, 340) == (112, 112)
    assert sp.transformed_shape(1, 1) == (1, 1)
    assert sp.transformed_shape(120, 160) == (112, 112)


def test_resize_preserves_constant_frames():
    frames = np.full((2, 1, 256, 340), 3.25)
    out = sp.spatial_transform(frames, "test")
    assert np.allclose(out, 3.25, atol=1e-12)


# ---------------------------------------------------------------------------
# batched clip gather


def gather_corpus(channels, height, width):
    """Three short videos of different lengths (6, 13 and 18 frames at 2 fps)."""
    videos = {f"v{k}": cp.VideoRecord(f"v{k}", "train", duration, 2.0,
                                      [cp.AnnotationInstance("a", 1.0, 2.5)], 10 + k)
              for k, duration in enumerate((3.0, 6.5, 9.0))}
    return cp.Corpus(["a"], videos, cp.SynthInfo(0, 0.5, "pure", channels, height, width))


SMALL_FRAMES = gather_corpus(3, 2, 3)  # (c, h, w) distinct, so axis order matters
LARGE_FRAMES = gather_corpus(1, 130, 170)  # resized to 128x167, then cropped


@st.composite
def clip_specs(draw, corpus):
    """Mixed-video specs sharing one geometry; centers reach past both ends."""
    clip_len = draw(st.sampled_from([1, 2, 5, 16]))
    stride = draw(st.sampled_from([1, 2, 3]))
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        video = corpus.videos[draw(st.sampled_from(sorted(corpus.videos)))]
        last = video.num_frames - 1
        center = draw(st.sampled_from([0, 1, last - 1, last]) | st.integers(-2, last + 2))
        specs.append(sp.ClipSpec(video.id, center, clip_len, stride, "foreground", 0))
    return specs


def reference_batch(corpus, specs, mode, rng=None):
    """``load_clip`` per spec, each (c, L, h, w) clip flattened to (c*h*w, L)."""
    return np.stack([sp.load_clip(corpus, s, mode, rng).transpose(0, 2, 3, 1)
                     .reshape(-1, s.clip_len) for s in specs])


@settings(max_examples=60, deadline=None)
@given(clip_specs(SMALL_FRAMES), st.sampled_from(["train", "test"]))
def test_clip_batch_equals_stacked_load_clip(specs, mode):
    got = sp.clip_batch(SMALL_FRAMES, specs, mode)
    assert got.shape == (len(specs), 18, specs[0].clip_len)
    assert np.array_equal(got, reference_batch(SMALL_FRAMES, specs, mode))


@settings(max_examples=15, deadline=None)
@given(clip_specs(LARGE_FRAMES), st.sampled_from(["train", "test"]), st.integers(0, 2**32))
def test_clip_batch_crops_large_frames_like_load_clip(specs, mode, seed):
    # one rng per side, drawn in the same order: same crops, same state after
    rng_got, rng_want = rng_for(seed), rng_for(seed)
    got = sp.clip_batch(LARGE_FRAMES, specs, mode, rng_got)
    assert got.shape == (len(specs), 112 * 112, specs[0].clip_len)
    assert np.array_equal(got, reference_batch(LARGE_FRAMES, specs, mode, rng_want))
    assert rng_got.integers(2**62) == rng_want.integers(2**62)


def test_clip_batch_rejects_empty_and_mixed_geometry():
    with pytest.raises(ValueError, match="no clips"):
        sp.clip_batch(SMALL_FRAMES, [], "test")
    specs = [sp.ClipSpec("v0", 2, 4, 2, "background"), sp.ClipSpec("v1", 2, 4, 1, "background")]
    with pytest.raises(ValueError, match="share"):
        sp.clip_batch(SMALL_FRAMES, specs, "test")


# ---------------------------------------------------------------------------
# epochs


def study_corpus(seed=0):
    cfg = cp.SynthConfig(videos_per_subset=(6, 3, 0), duration_range=(60.0, 120.0),
                         num_classes=3, fps=4.0)
    return cp.generate_synthetic(cfg, seed=seed)


def test_epoch_is_exactly_balanced():
    corpus = study_corpus()
    epoch = sp.build_epoch(corpus, "train", epoch_index=0, seed=0)
    fg = sum(1 for _, labels in epoch if labels.region == 1)
    bg = sum(1 for _, labels in epoch if labels.region == 0)
    assert fg == bg
    assert fg > 0


def test_labels_follow_owning_segment():
    corpus = study_corpus()
    epoch = sp.build_epoch(corpus, "train", epoch_index=0, seed=0)
    for spec, labels in epoch:
        assert (labels.action is not None) == (labels.region == 1)
        assert (spec.kind == "foreground") == (labels.region == 1)
        video = corpus.videos[spec.video_id]
        t = spec.center_frame / video.fps
        seg = next(s for s in corpus.segments(spec.video_id)
                   if s.t_start <= t < s.t_end or s is corpus.segments(spec.video_id)[-1])
        assert seg.kind == spec.kind


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
    c0 = sorted((s.video_id, s.center_frame) for s, _ in e0)
    c1 = sorted((s.video_id, s.center_frame) for s, _ in e1)
    assert c0 != c1
    # disabling resampling pins the pool to the epoch-0 subsample
    f0 = sp.build_epoch(corpus, "train", 0, 0, resample_each_epoch=False)
    f1 = sp.build_epoch(corpus, "train", 1, 0, resample_each_epoch=False)
    assert (sorted((s.video_id, s.center_frame) for s, _ in f0)
            == sorted((s.video_id, s.center_frame) for s, _ in f1))


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
    assert all(labels.region == 1 for _, labels in epoch)


def test_test_clip_set_is_deterministic():
    corpus = study_corpus()
    a = sp.test_clip_set(corpus, "valid")
    b = sp.test_clip_set(corpus, "valid")
    assert a == b
