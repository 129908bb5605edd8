"""Clip sampling: clip geometry, temporal jittering, and balanced epochs.

Clips are defined by a center frame; the frame indices fan out at a fixed
stride and clamp at the video edges (frame replication). Training draws clip
centers uniformly inside each region segment (temporal jittering) while test
sampling places them at fixed fractions, so evaluation paths are exactly
reproducible. A clip's kind and class index are its labels: foreground or
background for the region head, and the action class of a foreground clip.
Frames are used as the corpus stores them, with no resize or crop: the
manifest caps a frame side at ``corpus.MAX_FRAME_SIDE`` pixels.

Training and validation read whole splits many times and hold clips as
``clip_rows``, global rows of their split's frame store, so a batch is one
``take`` and an epoch holds indices, not frames. Global features and dense
extraction read one video's regular clip grid at a time (``dense_clips``)
through ``Corpus.frames_at``, which gathers from a filled store and otherwise
synthesizes only the rows their clips read. ``load_clip`` assembles a single
clip the plain way and is kept as the reference for both.
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


def dense_clips(corpus: Corpus, video: VideoRecord, clip_len: int, frame_stride: int,
                hop: int) -> tuple[np.ndarray, np.ndarray]:
    """A regular grid of clips every ``hop`` frames from frame 0, unlabeled: their
    (n,) center frames and their (n, L, frame_dim) frames, one ``frames_at`` call."""
    if hop < 1:
        raise ValueError("hop must be positive")
    centers = np.arange(0, video.num_frames, hop)
    indices = clip_frame_indices(centers[:, None], clip_len, frame_stride, video.num_frames)
    return centers, corpus.frames_at(video, indices).reshape(len(centers), clip_len, -1)


def load_clip(corpus: Corpus, spec: ClipSpec) -> np.ndarray:
    """One clip tensor (c, L, h, w), assembled on its own.

    The reference for ``clip_rows``, which tests compare against; the
    benchmark's tracer also wraps this name. No pipeline path calls it.
    """
    video = corpus.videos[spec.video_id]
    indices = clip_frame_indices(spec.center_frame, spec.clip_len, spec.frame_stride,
                                 video.num_frames)
    frames = corpus.video_frames(video)[indices]  # (L, c, h, w)
    return np.ascontiguousarray(frames.transpose(1, 0, 2, 3))


def clip_rows(corpus: Corpus, specs: list[ClipSpec]) -> np.ndarray:
    """The (B, L) global rows of the clips' frames in their split's frame store.

    Their ``take`` from ``corpus.split_frames(split)`` is time-major encoder
    input (B, L, frame_dim): clip b holds ``load_clip(corpus, specs[b])`` with
    its (c, h, w) axes flattened and time first, bit for bit.
    """
    if not specs:
        raise ValueError("no clips to gather")
    clip_len, stride = specs[0].clip_len, specs[0].frame_stride
    if any((s.clip_len, s.frame_stride) != (clip_len, stride) for s in specs):
        raise ValueError("clips in one batch must share clip_len and frame_stride")
    videos = [corpus.videos[s.video_id] for s in specs]
    if any(v.subset != videos[0].subset for v in videos):
        raise ValueError("clips in one batch must come from one split")
    centers = np.array([[s.center_frame] for s in specs])
    num_frames = np.array([[v.num_frames] for v in videos])
    starts = np.array([[corpus.frame_offset(v)] for v in videos])
    return starts + clip_frame_indices(centers, clip_len, stride, num_frames)


def segment_clip_pool(corpus: Corpus, split: str, *, mode: str,
                      clips_per_segment: int, clip_len: int, frame_stride: int,
                      rng: np.random.Generator | None = None
                      ) -> tuple[list[ClipSpec], list[ClipSpec]]:
    """Per-segment clips over a split, separated into (foreground, background)."""
    pools: dict[str, list[ClipSpec]] = {"foreground": [], "background": []}
    skipped = 0
    for video in corpus.subset_videos(split):
        for segment in corpus.segments(video.id):
            clips = sample_segment_clips(
                segment, video, mode=mode, n=clips_per_segment, rng=rng, clip_len=clip_len,
                frame_stride=frame_stride,
                class_index=(corpus.class_index(segment.class_label)
                             if segment.kind == "foreground" else None))
            pools[segment.kind].extend(clips)
            skipped += not clips
    if skipped and (split, skipped) not in _warned_splits:
        _warned_splits.add((split, skipped))
        log.warning("skipped %d sub-frame segments in split %r", skipped, split)
    return pools["foreground"], pools["background"]


def build_epoch(corpus: Corpus, split: str, epoch_index: int, seed: int, *,
                clips_per_segment: int = 5, clip_len: int = 16, frame_stride: int = 2,
                fg_only: bool = False, resample_each_epoch: bool = True
                ) -> list[ClipSpec]:
    """One training epoch of clips.

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
                  clip_len: int = 16, frame_stride: int = 2) -> list[ClipSpec]:
    """Deterministic evaluation clips: uniform per-segment centers, no rng."""
    fg, bg = segment_clip_pool(corpus, split, mode="test",
                               clips_per_segment=clips_per_segment,
                               clip_len=clip_len, frame_stride=frame_stride)
    return fg + bg
