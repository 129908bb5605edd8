"""Clip sampling: clip geometry, temporal jittering, and balanced epochs.

Clips are defined by a center frame; the frame indices fan out at a fixed
stride and clamp at the video edges (frame replication). Training draws clip
centers uniformly inside each region segment (temporal jittering) while test
sampling places them at fixed fractions, so evaluation paths are exactly
reproducible. A clip's kind and class index are its labels: foreground or
background for the region head, and the action class of a foreground clip.
Frames are used as the corpus stores them, with no resize or crop: the
manifest caps a frame side at ``corpus.MAX_FRAME_SIDE`` pixels.

Training and validation read whole splits many times and hold their clips as
one ``ClipSet``: global rows of the split's frame store, labels and video
indices, one array each. A batch is a slice of an epoch's ``ClipSet`` and one
``take`` from the store; an epoch holds indices, not frames. Global features
and dense extraction read one video's regular clip grid at a time
(``dense_clips``) through ``Corpus.frames_at``, which gathers from a filled
store and otherwise synthesizes only the rows their clips read.
``load_clip`` assembles a single clip the plain way and is kept as the
reference for both.
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
class ClipSet:
    """Clips of one split as rows of its frame store, with their labels, in clip order."""

    rows: np.ndarray  # (n, L); store.take(rows, axis=0) is the (n, L, frame_dim) input
    region_labels: np.ndarray  # (n,), 1 on foreground clips, else 0
    action_labels: np.ndarray  # (n,), a foreground clip's class index, -1 on background
    videos: np.ndarray  # (n,), each clip's ``Corpus.video_index``: its row of a GVF matrix

    def __len__(self) -> int:
        return len(self.videos)

    def __getitem__(self, index) -> ClipSet:
        """The clips at a slice or an index array, in that order."""
        return ClipSet(self.rows[index], self.region_labels[index], self.action_labels[index],
                       self.videos[index])

    def global_rows(self, gvf: np.ndarray | None) -> np.ndarray | None:
        """(n, F) rows of a (videos, F) global-feature matrix aligned with the
        clips; None without one."""
        return None if gvf is None else gvf.take(self.videos, axis=0)


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
                         mode: str, n: int, rng: np.random.Generator | None) -> np.ndarray:
    """The (n,) center frames of n clips inside a segment: uniform draws (train)
    or the midpoints of n equal slices (test). Degenerate segments yield none."""
    frame_range = segment_frame_range(segment, video.fps, video.num_frames)
    if frame_range is None:
        return np.zeros(0, np.int64)
    first, last = frame_range
    if mode == "train":
        return rng.integers(first, last + 1, size=n)
    if mode == "test":
        t = segment.t_start + (np.arange(n) + 0.5) / n * (segment.t_end - segment.t_start)
        return np.clip(np.floor(t * video.fps + 0.5).astype(np.int64), first, last)
    raise ValueError(f"unknown sampling mode {mode!r}")


def dense_clips(corpus: Corpus, video: VideoRecord, clip_len: int, frame_stride: int,
                *hops: int) -> tuple[np.ndarray, np.ndarray]:
    """Regular grids of clips, one every ``hop`` frames from frame 0 for each
    hop in turn, unlabeled: their (n,) center frames and their (n, L,
    frame_dim) frames, grid after grid, from one ``frames_at`` call."""
    if min(hops) < 1:
        raise ValueError("hop must be positive")
    centers = np.concatenate([np.arange(0, video.num_frames, hop) for hop in hops])
    indices = clip_frame_indices(centers[:, None], clip_len, frame_stride, video.num_frames)
    return centers, corpus.frames_at(video, indices).reshape(len(centers), clip_len, -1)


def load_clip(corpus: Corpus, video: VideoRecord, center_frame: int, clip_len: int,
              frame_stride: int) -> np.ndarray:
    """One clip tensor (c, L, h, w), assembled on its own.

    The reference that tests compare ``ClipSet`` rows and dense clips against;
    the benchmark's tracer also wraps this name. No pipeline path calls it.
    """
    indices = clip_frame_indices(center_frame, clip_len, frame_stride, video.num_frames)
    frames = corpus.video_frames(video)[indices]  # (L, c, h, w)
    return np.ascontiguousarray(frames.transpose(1, 0, 2, 3))


def segment_clip_pool(corpus: Corpus, split: str, *, mode: str,
                      clips_per_segment: int, clip_len: int, frame_stride: int,
                      rng: np.random.Generator | None = None) -> ClipSet:
    """Per-segment clips over a split: every foreground clip, then every background clip."""
    # per segment: its centers, and its (video index, frame count, store offset,
    # region label, action label), which each of its clips shares
    kinds: dict[str, list] = {"foreground": [], "background": []}
    skipped = 0
    for video in corpus.subset_videos(split):
        for segment in corpus.segments(video.id):
            centers = sample_segment_clips(segment, video, mode=mode, n=clips_per_segment,
                                           rng=rng)
            fg = segment.kind == "foreground"
            kinds[segment.kind].append((centers, (
                corpus.video_index(video.id), video.num_frames, corpus.frame_offset(video),
                int(fg), corpus.class_index(segment.class_label) if fg else -1)))
            skipped += not len(centers)
    if skipped and (split, skipped) not in _warned_splits:
        _warned_splits.add((split, skipped))
        log.warning("skipped %d sub-frame segments in split %r", skipped, split)
    segments = kinds["foreground"] + kinds["background"]
    centers = np.concatenate([np.zeros(0, np.int64)] + [c for c, _ in segments])
    columns = np.array([cols for _, cols in segments], np.int64).reshape(-1, 5)
    video, num_frames, start, region, action = np.repeat(
        columns.T, [len(c) for c, _ in segments], axis=1)
    rows = start[:, None] + clip_frame_indices(centers[:, None], clip_len, frame_stride,
                                               num_frames[:, None])
    return ClipSet(rows, region, action, video)


def build_epoch(corpus: Corpus, split: str, epoch_index: int, seed: int, *,
                clips_per_segment: int = 5, clip_len: int = 16, frame_stride: int = 2,
                fg_only: bool = False, resample_each_epoch: bool = True) -> ClipSet:
    """One training epoch of clips, in training order.

    Jittered centers and the majority-pool subsample are keyed by
    (seed, epoch_index), or by (seed, 0) when resampling is disabled; the
    epoch is balanced to the smaller of the foreground/background pools
    unless fg_only is set (classification-only training).
    """
    pool_key = epoch_index if resample_each_epoch else 0
    rng = rng_for(seed, "epoch", pool_key, split)
    pool = segment_clip_pool(corpus, split, mode="train", clips_per_segment=clips_per_segment,
                             clip_len=clip_len, frame_stride=frame_stride, rng=rng)
    fg, bg = np.flatnonzero(pool.region_labels == 1), np.flatnonzero(pool.region_labels == 0)
    if fg_only:
        if not len(fg):
            raise EpochError(f"split {split!r} has no foreground clips")
        keep = fg
    else:
        if not len(fg) or not len(bg):
            raise EpochError(f"split {split!r} needs both foreground and background clips "
                             f"(got {len(fg)} fg / {len(bg)} bg)")
        m = min(len(fg), len(bg))
        if len(fg) > m:
            fg = fg[np.sort(rng.permutation(len(fg))[:m])]
        if len(bg) > m:
            bg = bg[np.sort(rng.permutation(len(bg))[:m])]
        keep = np.concatenate([fg, bg])
    order = rng_for(seed, "epoch-order", epoch_index, split).permutation(len(keep))
    return pool[keep[order]]


def test_clip_set(corpus: Corpus, split: str, *, clips_per_segment: int = 5,
                  clip_len: int = 16, frame_stride: int = 2) -> ClipSet:
    """Deterministic evaluation clips: uniform per-segment centers, no rng."""
    return segment_clip_pool(corpus, split, mode="test", clips_per_segment=clips_per_segment,
                             clip_len=clip_len, frame_stride=frame_stride)
