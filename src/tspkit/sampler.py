"""Clip sampling: frame geometry, jittering, crops, and balanced epochs.

Clips are defined by a center frame; the frame indices fan out at a fixed
stride and clamp at the video edges (frame replication). Training draws clip
centers uniformly inside each region segment (temporal jittering) while test
sampling places them at fixed fractions, so evaluation paths are exactly
reproducible.

``clip_batch`` is the one input path: training, validation, global-feature
pooling and dense extraction all gather their clips through it, with one
fancy index per clip into the cached frames. ``load_clip`` assembles a single
clip the plain way and is kept as its reference.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, RegionSegment, VideoRecord
from .seeding import rng_for

log = logging.getLogger(__name__)
_warned_splits: set[tuple[str, int]] = set()

RESIZE_MIN = 128
CROP_SIZE = 112


class EpochError(ValueError):
    """A split cannot supply the clips an epoch needs."""


@dataclass(frozen=True)
class ClipSpec:
    video_id: str
    center_frame: int
    clip_len: int
    frame_stride: int
    kind: str  # "foreground" | "background"
    class_index: int | None = None


@dataclass(frozen=True)
class ClipLabels:
    region: int  # 1 foreground, 0 background
    action: int | None = None  # class index, present iff region == 1


def clip_span(clip_len: int, frame_stride: int) -> int:
    """Frames covered by one clip: (L-1)*stride + 1."""
    return (clip_len - 1) * frame_stride + 1


def clip_frame_indices(center, clip_len: int, frame_stride: int, num_frames) -> np.ndarray:
    """The L frame indices of a clip, clamped to [0, num_frames-1]; (B, 1) arrays
    of centers and frame counts give the (B, L) indices of B clips."""
    left = (clip_len - 1) // 2
    offsets = (np.arange(clip_len) - left) * frame_stride
    return np.clip(center + offsets, 0, num_frames - 1)


def segment_frame_range(segment: RegionSegment, fps: float,
                        num_frames: int) -> tuple[int, int] | None:
    """Inclusive frame range whose timestamps fall inside the segment.

    Returns None for segments narrower than one frame.
    """
    first = int(math.ceil(segment.t_start * fps - 1e-9))
    last = int(math.ceil(segment.t_end * fps - 1e-9)) - 1
    first = max(first, 0)
    last = min(last, num_frames - 1)
    if last < first:
        return None
    return first, last


def sample_segment_clips(segment: RegionSegment, video: VideoRecord, *,
                         mode: str, n: int, rng: np.random.Generator | None,
                         clip_len: int, frame_stride: int,
                         class_index: int | None) -> list[ClipSpec]:
    """n clip centers inside a segment: uniform draws (train) or the midpoints
    of n equal slices (test). Degenerate segments yield no clips."""
    frame_range = segment_frame_range(segment, video.fps, video.num_frames)
    if frame_range is None:
        return []
    first, last = frame_range
    if mode == "train":
        centers = rng.integers(first, last + 1, size=n)
    elif mode == "test":
        span = segment.t_end - segment.t_start
        centers = []
        for k in range(n):
            t = segment.t_start + (k + 0.5) / n * span
            centers.append(min(max(int(math.floor(t * video.fps + 0.5)), first), last))
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return [
        ClipSpec(video.id, int(c), clip_len, frame_stride, segment.kind, class_index)
        for c in centers
    ]


def transformed_shape(height: int, width: int) -> tuple[int, int]:
    """Spatial shape after resize+crop for a given input frame shape."""
    if max(height, width) <= CROP_SIZE:
        return height, width
    if min(height, width) > RESIZE_MIN:
        scale = RESIZE_MIN / min(height, width)
        height = max(RESIZE_MIN, int(math.floor(height * scale + 0.5)))
        width = max(RESIZE_MIN, int(math.floor(width * scale + 0.5)))
    return min(height, CROP_SIZE), min(width, CROP_SIZE)


def _resize_bilinear(frames: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of (c, L, h, w) frames with pixel-center alignment."""
    c, length, h, w = frames.shape
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = frames[:, :, y0][:, :, :, x0] * (1 - wx) + frames[:, :, y0][:, :, :, x1] * wx
    bot = frames[:, :, y1][:, :, :, x0] * (1 - wx) + frames[:, :, y1][:, :, :, x1] * wx
    return top * (1 - wy) + bot * wy


def spatial_transform(frames: np.ndarray, mode: str,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Resize so the short side is 128 (only when larger), then cut a 112x112
    crop: random offset in train mode, centered in test mode. Frames already
    at most 112x112 pass through untouched."""
    if frames.ndim != 4:
        raise ValueError(f"expected (c, L, h, w) frames, got shape {frames.shape}")
    _, _, h, w = frames.shape
    if max(h, w) <= CROP_SIZE:
        return frames
    if min(h, w) > RESIZE_MIN:
        scale = RESIZE_MIN / min(h, w)
        new_h = max(RESIZE_MIN, int(math.floor(h * scale + 0.5)))
        new_w = max(RESIZE_MIN, int(math.floor(w * scale + 0.5)))
        frames = _resize_bilinear(frames, new_h, new_w)
        h, w = new_h, new_w
    crop_h = min(h, CROP_SIZE)
    crop_w = min(w, CROP_SIZE)
    if mode == "train":
        off_h = int(rng.integers(0, h - crop_h + 1))
        off_w = int(rng.integers(0, w - crop_w + 1))
    elif mode == "test":
        off_h = (h - crop_h) // 2
        off_w = (w - crop_w) // 2
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return frames[:, :, off_h:off_h + crop_h, off_w:off_w + crop_w]


def load_clip(corpus: Corpus, spec: ClipSpec, mode: str,
              rng: np.random.Generator | None = None) -> np.ndarray:
    """One clip tensor (c, L, h', w'), assembled on its own.

    The reference for ``clip_batch``, which tests compare against; the
    benchmark's tracer also wraps this name. No pipeline path calls it.
    """
    video = corpus.videos[spec.video_id]
    indices = clip_frame_indices(spec.center_frame, spec.clip_len, spec.frame_stride,
                                 video.num_frames)
    frames = corpus.video_frames(video)[indices]  # (L, c, h, w)
    frames = np.ascontiguousarray(frames.transpose(1, 0, 2, 3))
    return spatial_transform(frames, mode, rng)


def clip_batch(corpus: Corpus, specs: list[ClipSpec], mode: str,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """Clips as time-major encoder input (B, L, frame_dim): one flattened frame per row.

    Clip b holds ``load_clip(corpus, specs[b], mode, rng)`` with its (c, h, w)
    axes flattened and time first, bit for bit. Frames larger than the crop go
    through ``spatial_transform`` clip by clip, in spec order, so a train-mode
    ``rng`` is drawn in the same order as per-clip loading would draw it.
    """
    if not specs:
        raise ValueError("no clips to gather")
    clip_len, stride = specs[0].clip_len, specs[0].frame_stride
    if any((s.clip_len, s.frame_stride) != (clip_len, stride) for s in specs):
        raise ValueError("clips in one batch must share clip_len and frame_stride")
    videos = [corpus.videos[s.video_id] for s in specs]
    centers = np.array([[s.center_frame] for s in specs])
    num_frames = np.array([[v.num_frames] for v in videos])
    indices = clip_frame_indices(centers, clip_len, stride, num_frames)  # (B, L)
    frames = np.stack([corpus.video_frames(v)[idx] for v, idx in zip(videos, indices)])
    if max(frames.shape[3:]) > CROP_SIZE:  # (B, L, c, h, w)
        frames = np.stack([spatial_transform(clip.transpose(1, 0, 2, 3), mode, rng)
                           for clip in frames]).transpose(0, 2, 1, 3, 4)
    return frames.reshape(len(specs), clip_len, -1)


def segment_clip_pool(corpus: Corpus, split: str, *, mode: str,
                      clips_per_segment: int, clip_len: int, frame_stride: int,
                      rng: np.random.Generator | None = None
                      ) -> tuple[list[tuple[ClipSpec, ClipLabels]], list[tuple[ClipSpec, ClipLabels]]]:
    """Per-segment clips over a split, separated into (foreground, background)."""
    fg: list[tuple[ClipSpec, ClipLabels]] = []
    bg: list[tuple[ClipSpec, ClipLabels]] = []
    skipped = 0
    for video in corpus.subset_videos(split):
        for segment in corpus.segments(video.id):
            class_index = (corpus.class_index(segment.class_label)
                           if segment.kind == "foreground" else None)
            clips = sample_segment_clips(segment, video, mode=mode, n=clips_per_segment,
                                         rng=rng, clip_len=clip_len,
                                         frame_stride=frame_stride, class_index=class_index)
            if not clips:
                skipped += 1
                continue
            if segment.kind == "foreground":
                labels = ClipLabels(1, class_index)
                fg.extend((c, labels) for c in clips)
            else:
                labels = ClipLabels(0, None)
                bg.extend((c, labels) for c in clips)
    if skipped and (split, skipped) not in _warned_splits:
        _warned_splits.add((split, skipped))
        log.warning("skipped %d sub-frame segments in split %r", skipped, split)
    return fg, bg


def build_epoch(corpus: Corpus, split: str, epoch_index: int, seed: int, *,
                clips_per_segment: int = 5, clip_len: int = 16, frame_stride: int = 2,
                fg_only: bool = False, resample_each_epoch: bool = True
                ) -> list[tuple[ClipSpec, ClipLabels]]:
    """One training epoch of labeled clips.

    Jittered centers and the majority-pool subsample are keyed by
    (seed, epoch_index), or by (seed, 0) when resampling is disabled; the
    epoch is balanced to the smaller of the foreground/background pools
    unless fg_only is set (classification-only training).
    """
    pool_key = epoch_index if resample_each_epoch else 0
    rng = rng_for(seed, "epoch", pool_key, split)
    fg, bg = segment_clip_pool(corpus, split, mode="train",
                               clips_per_segment=clips_per_segment,
                               clip_len=clip_len, frame_stride=frame_stride, rng=rng)
    if fg_only:
        epoch = list(fg)
        if not epoch:
            raise EpochError(f"split {split!r} has no foreground clips")
    else:
        if not fg or not bg:
            raise EpochError(f"split {split!r} needs both foreground and background clips "
                             f"(got {len(fg)} fg / {len(bg)} bg)")
        m = min(len(fg), len(bg))
        if len(fg) > m:
            keep = rng.permutation(len(fg))[:m]
            fg = [fg[i] for i in sorted(keep)]
        if len(bg) > m:
            keep = rng.permutation(len(bg))[:m]
            bg = [bg[i] for i in sorted(keep)]
        epoch = fg + bg
    order = rng_for(seed, "epoch-order", epoch_index, split).permutation(len(epoch))
    return [epoch[i] for i in order]


def test_clip_set(corpus: Corpus, split: str, *, clips_per_segment: int = 5,
                  clip_len: int = 16, frame_stride: int = 2
                  ) -> list[tuple[ClipSpec, ClipLabels]]:
    """Deterministic evaluation clips: uniform per-segment centers, no rng."""
    fg, bg = segment_clip_pool(corpus, split, mode="test",
                               clips_per_segment=clips_per_segment,
                               clip_len=clip_len, frame_stride=frame_stride)
    return fg + bg
