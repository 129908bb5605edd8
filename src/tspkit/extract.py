"""Dense per-video feature extraction and the on-disk track format.

A feature track tiles a video with clips at a fixed hop (non-overlapping
receptive fields by default) and stores, per clip: the encoder feature, the
foreground probability from the region head (when the checkpoint has one),
and the action logits. Tracks are plain CSV with a comment header so they
stay greppable and diffable; floats round-trip exactly via shortest-decimal
serialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from .autodiff import softmax
from .corpus import Corpus, VideoRecord
from .pretrain import Checkpoint, checkpoint_global_feature, head_logits
from .sampler import ClipSpec, clip_batch, clip_span


class TrackError(ValueError):
    """Track file is unreadable or inconsistent."""


@dataclass
class FeatureTrack:
    video_id: str
    clip_len: int
    frame_stride: int
    hop_frames: int
    fps: float
    num_frames: int
    checkpoint_id: str
    global_feature: np.ndarray  # (F,)
    center_times: np.ndarray  # (n,) seconds
    features: np.ndarray  # (n, F)
    region_probs: np.ndarray | None  # (n,) foreground probability; None for tac
    action_logits: np.ndarray  # (n, C)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return self.action_logits.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]


def default_hop(clip_len: int, frame_stride: int) -> int:
    """Hop that tiles the video with non-overlapping receptive fields."""
    return clip_span(clip_len, frame_stride)


def extract_track(corpus: Corpus, video: VideoRecord, ckpt: Checkpoint,
                  hop: int | None = None) -> FeatureTrack:
    """Tile one video with clips and run the checkpoint over them."""
    cfg = ckpt.config
    if hop is None:
        hop = default_hop(cfg.clip_len, cfg.frame_stride)
    if hop < 1:
        raise ValueError("hop must be positive")
    if corpus.synth is not None and ckpt.encoder.config.channels_in != corpus.synth.channels:
        raise TrackError(f"checkpoint expects {ckpt.encoder.config.channels_in} channels, "
                         f"corpus has {corpus.synth.channels}")

    global_feat = checkpoint_global_feature(corpus, video.id, ckpt)
    centers = range(0, video.num_frames, hop)
    frames = clip_batch(corpus, [ClipSpec(video.id, c, cfg.clip_len, cfg.frame_stride,
                                          "background") for c in centers], "test")
    feats = enc.forward_np_batch(ckpt.encoder, frames)
    gfeats = np.broadcast_to(global_feat, feats.shape) if ckpt.mode == "tsp" else None
    logits, region = head_logits(feats, gfeats, ckpt.heads, ckpt.mode)
    probs = None if region is None else softmax(region)[:, 1]
    return FeatureTrack(
        video_id=video.id, clip_len=cfg.clip_len, frame_stride=cfg.frame_stride,
        hop_frames=hop, fps=video.fps, num_frames=video.num_frames,
        checkpoint_id=ckpt.checkpoint_id, global_feature=global_feat,
        center_times=np.array([c / video.fps for c in centers]),
        features=feats, region_probs=probs, action_logits=logits)


# ---------------------------------------------------------------------------
# track files


def write_track(track: FeatureTrack, path, flags_comment: str | None = None) -> None:
    n, dim = track.features.shape
    classes = track.action_logits.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        if flags_comment:
            fh.write(f"# flags={flags_comment}\n")
        fh.write(f"# video_id={track.video_id}\n")
        fh.write(f"# clip_len={track.clip_len}\n")
        fh.write(f"# frame_stride={track.frame_stride}\n")
        fh.write(f"# hop_frames={track.hop_frames}\n")
        fh.write(f"# fps={track.fps!r}\n")
        fh.write(f"# num_frames={track.num_frames}\n")
        fh.write(f"# feature_dim={dim}\n")
        fh.write(f"# num_classes={classes}\n")
        fh.write(f"# checkpoint_id={track.checkpoint_id}\n")
        fh.write("# gvf=" + ";".join(repr(float(v)) for v in track.global_feature) + "\n")
        cols = (["t_center"] + [f"f_{j}" for j in range(dim)] + ["p_fg"]
                + [f"a_{j}" for j in range(classes)])
        fh.write(",".join(cols) + "\n")
        for i in range(n):
            fields = [repr(float(track.center_times[i]))]
            fields += [repr(float(v)) for v in track.features[i]]
            fields.append("" if track.region_probs is None
                          else repr(float(track.region_probs[i])))
            fields += [repr(float(v)) for v in track.action_logits[i]]
            fh.write(",".join(fields) + "\n")


def read_track(path) -> FeatureTrack:
    header: dict[str, str] = {}
    rows: list[tuple[int, list[str]]] = []
    columns: list[str] | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise TrackError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                header[key.strip()] = value
            continue
        if columns is None:
            columns = line.split(",")
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise TrackError(f"{path}: row {lineno}: expected {len(columns)} fields, "
                             f"got {len(fields)}")
        rows.append((lineno, fields))

    required = ("video_id", "clip_len", "frame_stride", "hop_frames", "fps",
                "num_frames", "feature_dim", "num_classes", "checkpoint_id", "gvf")
    missing = [k for k in required if k not in header]
    if missing:
        raise TrackError(f"{path}: missing header keys {missing}")
    if columns is None:
        raise TrackError(f"{path}: no column header row")

    try:
        dim = int(header["feature_dim"])
        classes = int(header["num_classes"])
        counts = {k: int(header[k]) for k in ("clip_len", "frame_stride", "hop_frames",
                                              "num_frames")}
        fps = float(header["fps"])
        global_feature = np.array([float(v) for v in header["gvf"].split(";")]
                                  if header["gvf"] else [], dtype=np.float64)
    except ValueError as exc:
        raise TrackError(f"{path}: bad header value ({exc})") from exc
    expected_cols = (["t_center"] + [f"f_{j}" for j in range(dim)] + ["p_fg"]
                     + [f"a_{j}" for j in range(classes)])
    if columns != expected_cols:
        raise TrackError(f"{path}: column header does not match feature_dim={dim}, "
                         f"num_classes={classes}")

    if global_feature.shape[0] != dim:
        raise TrackError(f"{path}: gvf length {global_feature.shape[0]} != feature_dim {dim}")

    n = len(rows)
    center_times = np.empty(n)
    features = np.empty((n, dim))
    logits = np.empty((n, classes))
    probs = np.empty(n)
    has_probs = True  # an empty p_fg field marks a track without region scores
    for i, (lineno, fields) in enumerate(rows):
        try:
            center_times[i] = float(fields[0])
            features[i] = [float(v) for v in fields[1:1 + dim]]
            p = fields[1 + dim]
            if p == "":
                has_probs = False
            else:
                probs[i] = float(p)
            logits[i] = [float(v) for v in fields[2 + dim:]]
        except ValueError as exc:
            raise TrackError(f"{path}: row {lineno}: {exc}") from exc
    return FeatureTrack(
        video_id=header["video_id"], **counts, fps=fps,
        checkpoint_id=header["checkpoint_id"], global_feature=global_feature,
        center_times=center_times, features=features,
        region_probs=probs if has_probs else None,
        action_logits=logits)
