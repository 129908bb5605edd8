"""Dense per-video feature extraction and the on-disk track format.

A feature track tiles a video with clips at a fixed hop (non-overlapping
receptive fields by default) and stores, per clip: the encoder feature, the
foreground probability from the region head (when the checkpoint has one),
and the action logits. Tracks are plain CSV with a comment header so they
stay greppable and diffable; floats round-trip exactly via shortest-decimal
serialization.

A video's clips are gathered with one ``Corpus.frames_at`` call. On a cold
corpus that synthesizes only the frame rows the clips read, not the whole
video: at the default hop a clip spans 31 frames but reads 16 of them, so
about half of each video. On a corpus whose split store already holds the
video (as after training or validation), it gathers from the store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from .corpus import Corpus, VideoRecord
from .decode import write_rows
from .pretrain import Checkpoint, checkpoint_global_feature, head_logits
from .sampler import clip_frame_indices, clip_span, dense_clip_specs


class TrackError(ValueError):
    """Track file is unreadable or inconsistent."""


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


@dataclass
class FeatureTrack:
    video_id: str
    clip_len: int
    frame_stride: int
    hop_frames: int
    fps: float
    num_frames: int
    checkpoint_id: str
    global_feature: np.ndarray  # (F,) for tsp; (0,) for modes without a global feature
    center_times: np.ndarray  # (n,) seconds
    features: np.ndarray  # (n, F)
    region_probs: np.ndarray | None  # (n,) foreground probability; None for tac
    action_logits: np.ndarray  # (n, C)

    def __post_init__(self):
        """The rules every track obeys, extracted or read from a file."""
        n, dim = self.features.shape
        if not 0 < self.fps < math.inf:
            raise ValueError(f"fps {self.fps!r} is not positive and finite")
        counts = (self.clip_len, self.frame_stride, self.hop_frames)
        if min(counts) < 1 or self.num_frames < min(n, 1):
            raise ValueError("clip_len, frame_stride, hop_frames and, unless there are no clips, "
                             "num_frames must be positive")
        if self.global_feature.shape[0] not in (0, dim):
            raise ValueError(f"gvf length {self.global_feature.shape[0]} is neither 0 nor "
                             f"feature_dim {dim}")
        if not all(np.isfinite(a).all() for a in (self.global_feature, self.features,
                                                  self.action_logits)):
            raise ValueError("gvf, features and logits must be finite")
        times = self.center_times
        if not ((0.0 <= times) & (times <= self.num_frames / self.fps)).all():
            raise ValueError("a clip's center time lies outside the video")
        probs = self.region_probs
        if probs is not None and not ((0.0 <= probs) & (probs <= 1.0)).all():
            raise ValueError("p_fg must lie in [0, 1]")

    def __len__(self) -> int:
        return self.features.shape[0]


def check_frame_shape(corpus: Corpus, ckpt: Checkpoint, corpus_name: str = "corpus",
                      ckpt_name: str = "checkpoint") -> None:
    """Raise TrackError unless the checkpoint's encoder reads the corpus's frames."""
    enc_cfg, synth = ckpt.encoder.config, corpus.synth
    want = f"{enc_cfg.channels_in}x{enc_cfg.height}x{enc_cfg.width}"
    have = want if synth is None else f"{synth.channels}x{synth.height}x{synth.width}"
    if want != have:
        raise TrackError(f"{ckpt_name} expects {want} frames, {corpus_name} has {have}")


def extract_track(corpus: Corpus, video: VideoRecord, ckpt: Checkpoint,
                  hop: int | None = None) -> FeatureTrack:
    """Tile one video with clips and run the checkpoint over them; the default
    hop tiles it with non-overlapping receptive fields."""
    cfg = ckpt.config
    if hop is None:
        hop = clip_span(cfg.clip_len, cfg.frame_stride)
    check_frame_shape(corpus, ckpt)

    tsp = ckpt.mode == "tsp"
    global_feat = checkpoint_global_feature(corpus, video.id, ckpt) if tsp else np.empty(0)
    centers = np.array([spec.center_frame for spec in
                        dense_clip_specs(video, cfg.clip_len, cfg.frame_stride, hop)])
    indices = clip_frame_indices(centers[:, None], cfg.clip_len, cfg.frame_stride,
                                 video.num_frames)
    clips = corpus.frames_at(video, indices).reshape(len(centers), cfg.clip_len, -1)
    feats = enc.forward_np_batch(ckpt.encoder, clips)
    gfeats = np.broadcast_to(global_feat, feats.shape) if tsp else None
    logits, region = head_logits(feats, gfeats, ckpt.heads, ckpt.mode)
    probs = None if region is None else softmax(region)[:, 1]
    return FeatureTrack(
        video_id=video.id, clip_len=cfg.clip_len, frame_stride=cfg.frame_stride,
        hop_frames=hop, fps=video.fps, num_frames=video.num_frames,
        checkpoint_id=ckpt.checkpoint_id, global_feature=global_feat,
        center_times=centers / video.fps,
        features=feats, region_probs=probs, action_logits=logits)


# ---------------------------------------------------------------------------
# track files


def write_track(track: FeatureTrack, path, flags_comment: str | None = None) -> None:
    n, dim = track.features.shape
    classes = track.action_logits.shape[1]
    header = [f"# video_id={track.video_id}", f"# clip_len={track.clip_len}",
              f"# frame_stride={track.frame_stride}", f"# hop_frames={track.hop_frames}",
              f"# fps={track.fps!r}", f"# num_frames={track.num_frames}",
              f"# feature_dim={dim}", f"# num_classes={classes}",
              f"# checkpoint_id={track.checkpoint_id}",
              "# gvf=" + ";".join(map(repr, track.global_feature.tolist()))]
    cols = (["t_center"] + [f"f_{j}" for j in range(dim)] + ["p_fg"]
            + [f"a_{j}" for j in range(classes)])
    rows = [[line] for line in header] + [cols]
    probs = [""] * n if track.region_probs is None else map(repr, track.region_probs.tolist())
    rows += ([repr(t), *map(repr, feat), p, *map(repr, logit)]
             for t, feat, p, logit in zip(track.center_times.tolist(), track.features.tolist(),
                                          probs, track.action_logits.tolist()))
    write_rows(path, flags_comment, rows, sep=",")


def read_track(path) -> FeatureTrack:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(lineno, line.rstrip("\n")) for lineno, line in enumerate(fh, start=1)]
    except UnicodeDecodeError as exc:
        raise TrackError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    header: dict[str, str] = {}
    for _, line in lines:
        if line.startswith("#") and "=" in line:
            key, value = line[1:].strip().split("=", 1)
            header[key.strip()] = value
    required = ("video_id", "clip_len", "frame_stride", "hop_frames", "fps",
                "num_frames", "feature_dim", "num_classes", "checkpoint_id", "gvf")
    missing = [k for k in required if k not in header]
    if missing:
        raise TrackError(f"{path}: missing header keys {missing}")
    # the column header row, then one row per clip
    table = [(lineno, line.split(",")) for lineno, line in lines if line and line[0] != "#"]
    if not table:
        raise TrackError(f"{path}: no column header row")
    (_, columns), rows = table[0], table[1:]

    try:
        counts = {k: int(header[k]) for k in ("feature_dim", "num_classes", "clip_len",
                                              "frame_stride", "hop_frames", "num_frames")}
        fps = float(header["fps"])
        global_feature = np.array(header["gvf"].split(";") if header["gvf"] else [],
                                  dtype=np.float64)
    except ValueError as exc:
        raise TrackError(f"{path}: bad header value ({exc})") from exc
    dim, classes = counts.pop("feature_dim"), counts.pop("num_classes")
    # the column count first: a huge feature_dim must not build a huge list
    if len(columns) != dim + classes + 2 or columns != (
            ["t_center"] + [f"f_{j}" for j in range(dim)] + ["p_fg"]
            + [f"a_{j}" for j in range(classes)]):
        raise TrackError(f"{path}: column header does not match feature_dim={dim}, "
                         f"num_classes={classes}")

    values = np.empty((len(rows), len(columns)))
    # an empty p_fg field marks a track without region scores, in every row
    has_probs = not rows or rows[0][1][1 + dim:2 + dim] != [""]
    for i, (lineno, fields) in enumerate(rows):
        try:
            if len(fields) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(fields)}")
            if (fields[1 + dim] != "") != has_probs:
                raise ValueError("p_fg is empty in some rows and not in others")
            values[i] = fields if has_probs else fields[:1 + dim] + ["nan"] + fields[2 + dim:]
        except ValueError as exc:
            raise TrackError(f"{path}: row {lineno}: {exc}") from exc
    try:
        return FeatureTrack(
            video_id=header["video_id"], **counts, fps=fps,
            checkpoint_id=header["checkpoint_id"], global_feature=global_feature,
            center_times=values[:, 0].copy(), features=values[:, 1:1 + dim].copy(),
            region_probs=values[:, 1 + dim].copy() if has_probs else None,
            action_logits=values[:, 2 + dim:].copy())
    except ValueError as exc:
        raise TrackError(f"{path}: {exc}") from exc
