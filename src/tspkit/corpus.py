"""Untrimmed-video corpus: annotation schema, region labels, synthetic data.

A corpus is a class list plus a set of videos with temporal annotations, in
an ActivityNet-style JSON layout. Synthetic corpora additionally carry the
parameters needed to synthesize frames procedurally: every frame is a class
(or background) prototype vector plus seeded Gaussian noise, so a corpus of
hours of "video" stays a few kilobytes on disk and is reproducible bit for
bit from the manifest alone.

The noise of frame ``i`` of a video is keyed per frame, as part of the
manifest contract: it is ``rng_for(frame_seed, "frame-noise",
i).standard_normal(frame_dim)``, scaled by ``noise_sigma``. ``video_frames``
draws a whole video's noise at once with ``seeding.normal_rows``, which
yields the same bits.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field
from typing import get_type_hints

import numpy as np

from .seeding import normal_rows, rng_for

SCHEMA_VERSION = 1
SUBSETS = ("train", "valid", "test")
# frames needed by the default clip geometry (16 frames, stride 2)
DEFAULT_CLIP_SPAN = 31

_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


class ManifestError(ValueError):
    """Manifest file is unreadable or violates a schema invariant."""


class GenerationError(RuntimeError):
    """Synthetic generation could not satisfy the configuration."""


@dataclass(frozen=True)
class AnnotationInstance:
    label: str
    t_start: float
    t_end: float

    @property
    def length(self) -> float:
        return self.t_end - self.t_start


@dataclass
class VideoRecord:
    id: str
    subset: str
    duration_sec: float
    fps: float
    annotations: list[AnnotationInstance]
    frame_seed: int | None = None

    @property
    def num_frames(self) -> int:
        return int(math.floor(self.duration_sec * self.fps))


@dataclass(frozen=True)
class RegionSegment:
    t_start: float
    t_end: float
    kind: str  # "foreground" | "background"
    class_label: str | None = None

    @property
    def length(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class SynthInfo:
    """What frame synthesis needs beyond the annotations themselves."""

    master_seed: int
    noise_sigma: float
    background_mode: str  # "pure" | "hard"
    channels: int
    height: int
    width: int

    @property
    def frame_dim(self) -> int:
        return self.channels * self.height * self.width


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 8
    videos_per_subset: tuple[int, int, int] = (80, 40, 0)  # train, valid, test
    duration_range: tuple[float, float] = (120.0, 360.0)
    instances_per_video: tuple[int, int] = (1, 4)
    length_log_mu: float = 3.8
    length_log_sigma: float = 0.9
    channels: int = 16
    height: int = 1
    width: int = 1
    noise_sigma: float = 0.5
    background_mode: str = "hard"
    fps: float = 4.0

    def validate(self) -> None:
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if any(n < 0 for n in self.videos_per_subset):
            raise ValueError("video counts must be nonnegative")
        if not 0 < self.duration_range[0] <= self.duration_range[1]:
            raise ValueError("bad duration range")
        if not 0 <= self.instances_per_video[0] <= self.instances_per_video[1]:
            raise ValueError("bad instances_per_video range")
        if self.background_mode not in ("pure", "hard"):
            raise ValueError(f"unknown background mode {self.background_mode!r}")
        if min(self.channels, self.height, self.width) < 1 or self.fps <= 0:
            raise ValueError("bad frame geometry")
        if self.background_mode == "hard" and self.num_classes < 2:
            raise ValueError("hard background mode needs at least 2 classes")


class Corpus:
    """A manifest's classes and videos, plus caches filled lazily on first use.

    The manifest fields are not changed after construction, but the object is
    not immutable: the caches (segments, frames, prototypes) are dicts and
    attributes filled without a lock, so concurrent first uses may each
    compute the same entry. Every cached value is a pure function of the
    manifest, and the cached arrays are read-only.
    """

    def __init__(self, classes: list[str], videos: dict[str, VideoRecord],
                 synth: SynthInfo | None = None):
        self.classes = list(classes)
        self.videos = dict(sorted(videos.items()))
        self.synth = synth
        self._class_index = {name: i for i, name in enumerate(self.classes)}
        self._segment_cache: dict[str, list[RegionSegment]] = {}
        self._frame_cache: dict[str, np.ndarray] = {}
        self._prototypes: np.ndarray | None = None
        self._bg_prototypes: dict[str, np.ndarray] = {}

    def class_index(self, label: str) -> int:
        return self._class_index[label]

    def subset_videos(self, subset: str) -> list[VideoRecord]:
        return [v for v in self.videos.values() if v.subset == subset]

    def segments(self, video_id: str) -> list[RegionSegment]:
        segs = self._segment_cache.get(video_id)
        if segs is None:
            segs = derive_segments(self.videos[video_id])
            self._segment_cache[video_id] = segs
        return segs

    # -- procedural frames ------------------------------------------------

    def _require_synth(self) -> SynthInfo:
        if self.synth is None:
            raise ManifestError("corpus has no synthesis block; frames are unavailable")
        return self.synth

    @property
    def prototypes(self) -> np.ndarray:
        """(num_classes, frame_dim) unit-normal class prototypes."""
        if self._prototypes is None:
            info = self._require_synth()
            protos = np.stack([
                rng_for(info.master_seed, "class-prototype", c).standard_normal(info.frame_dim)
                for c in range(len(self.classes))
            ])
            protos.setflags(write=False)
            self._prototypes = protos
        return self._prototypes

    def background_prototype(self, video: VideoRecord) -> np.ndarray:
        proto = self._bg_prototypes.get(video.id)
        if proto is None:
            info = self._require_synth()
            if video.frame_seed is None:
                raise ManifestError(f"video {video.id!r} has no frame_seed")
            if info.background_mode == "pure":
                proto = rng_for(video.frame_seed, "background").standard_normal(info.frame_dim)
            else:  # hard: midpoint of two distinct class prototypes
                pair = rng_for(video.frame_seed, "background-pair").choice(
                    len(self.classes), size=2, replace=False)
                proto = (self.prototypes[pair[0]] + self.prototypes[pair[1]]) / 2.0
            proto.setflags(write=False)
            self._bg_prototypes[video.id] = proto
        return proto

    def _segment_prototype(self, video: VideoRecord, seg: RegionSegment) -> np.ndarray:
        if seg.kind == "foreground":
            return self.prototypes[self.class_index(seg.class_label)]
        return self.background_prototype(video)

    def frame(self, video: VideoRecord, frame_index: int) -> np.ndarray:
        """One frame, shape (channels, height, width): a writable copy of its cached row."""
        if not 0 <= frame_index < video.num_frames:
            raise ValueError(f"frame index {frame_index} out of range for {video.id!r} "
                             f"({video.num_frames} frames)")
        return self.video_frames(video)[frame_index].copy()

    def video_frames(self, video: VideoRecord) -> np.ndarray:
        """All frames of a video, shape (num_frames, channels, height, width); cached."""
        cached = self._frame_cache.get(video.id)
        if cached is None:
            info = self._require_synth()
            segs = self.segments(video.id)
            # segments partition [0, duration]; membership is half-open, and
            # a time past the last end falls in the last segment
            ends = np.array([seg.t_end for seg in segs])
            times = np.arange(video.num_frames) / video.fps
            seg_index = np.minimum(np.searchsorted(ends, times, side="right"), len(segs) - 1)
            used, inverse = np.unique(seg_index, return_inverse=True)
            cached = np.stack([self._segment_prototype(video, segs[j]) for j in used])[inverse]
            if info.noise_sigma > 0.0:
                cached += info.noise_sigma * normal_rows(
                    video.frame_seed, "frame-noise", count=video.num_frames, dim=info.frame_dim)
            cached = cached.reshape(-1, info.channels, info.height, info.width)
            cached.setflags(write=False)
            self._frame_cache[video.id] = cached
        return cached


def derive_segments(video: VideoRecord) -> list[RegionSegment]:
    """Partition [0, duration] into alternating background/foreground regions.

    Overlapping or touching annotations merge into one foreground interval
    whose label comes from the annotation overlapping it the most (ties to
    the earliest start).
    """
    anns = sorted(video.annotations, key=lambda a: (a.t_start, a.t_end))
    merged: list[tuple[float, float, list[AnnotationInstance]]] = []
    for ann in anns:
        if merged and ann.t_start <= merged[-1][1]:
            start, end, members = merged[-1]
            merged[-1] = (start, max(end, ann.t_end), members + [ann])
        else:
            merged.append((ann.t_start, ann.t_end, [ann]))

    segments: list[RegionSegment] = []
    cursor = 0.0
    for start, end, members in merged:
        if start > cursor:
            segments.append(RegionSegment(cursor, start, "background"))
        best = max(members, key=lambda a: (a.length, -a.t_start))
        segments.append(RegionSegment(start, end, "foreground", best.label))
        cursor = end
    if cursor < video.duration_sec:
        segments.append(RegionSegment(cursor, video.duration_sec, "background"))
    return segments


# ---------------------------------------------------------------------------
# manifest IO


def _validate_video(vid: str, rec: VideoRecord, classes: list[str]) -> None:
    if not _ID_RE.match(vid):
        raise ManifestError(f"video {vid!r}: id must match [A-Za-z0-9_.-]+")
    if rec.subset not in SUBSETS:
        raise ManifestError(f"video {vid!r}: unknown subset {rec.subset!r}")
    if not 0 < rec.duration_sec < math.inf:
        raise ManifestError(f"video {vid!r}: duration_sec must be positive and finite")
    if not 0 < rec.fps < math.inf:
        raise ManifestError(f"video {vid!r}: fps must be positive and finite")
    if rec.num_frames < 1:
        raise ManifestError(f"video {vid!r}: no frames (duration_sec * fps < 1)")
    class_set = set(classes)
    for ann in rec.annotations:
        if ann.label not in class_set:
            raise ManifestError(f"video {vid!r}: unknown label {ann.label!r}")
        if not (0.0 <= ann.t_start < ann.t_end <= rec.duration_sec):
            raise ManifestError(
                f"video {vid!r}: segment [{ann.t_start}, {ann.t_end}] outside "
                f"[0, {rec.duration_sec}]")


def corpus_from_dict(doc: dict) -> Corpus:
    if not isinstance(doc, dict):
        raise ManifestError("manifest root must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ManifestError(f"unsupported schema_version {doc.get('schema_version')!r}")
    classes = doc.get("classes")
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise ManifestError("classes must be a list of strings")
    if len(set(classes)) != len(classes):
        raise ManifestError("classes must be unique")

    synth = None
    if "synth" in doc:
        s = doc["synth"]
        try:  # each field's annotated type parses its value
            synth = SynthInfo(**{name: cast(s[name])
                                 for name, cast in get_type_hints(SynthInfo).items()})
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"bad synth block: {exc}") from exc
        if synth.background_mode not in ("pure", "hard"):
            raise ManifestError(f"bad synth block: unknown background mode "
                                f"{synth.background_mode!r}")
        if not 0.0 <= synth.noise_sigma < math.inf:
            raise ManifestError(f"bad synth block: noise_sigma {synth.noise_sigma!r} is not "
                                f"a finite nonnegative number")
        if min(synth.channels, synth.height, synth.width) < 1:
            raise ManifestError(f"bad synth block: frame geometry {synth.channels}x"
                                f"{synth.height}x{synth.width} has an axis below 1")

    videos = {}
    raw_videos = doc.get("videos")
    if not isinstance(raw_videos, dict):
        raise ManifestError("videos must be an object keyed by video id")
    for vid, raw in raw_videos.items():
        if not isinstance(raw, dict):
            raise ManifestError(f"video {vid!r}: record must be an object")
        try:
            anns = [AnnotationInstance(a["label"], float(a["segment"][0]), float(a["segment"][1]))
                    for a in raw.get("annotations", [])]
            rec = VideoRecord(
                id=vid,
                subset=raw["subset"],
                duration_sec=float(raw["duration_sec"]),
                fps=float(raw["fps"]),
                annotations=anns,
                frame_seed=int(raw["frame_seed"]) if "frame_seed" in raw else None,
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ManifestError(f"video {vid!r}: malformed record ({exc})") from exc
        _validate_video(vid, rec, classes)
        videos[vid] = rec
    return Corpus(classes, videos, synth)


def corpus_to_dict(corpus: Corpus) -> dict:
    doc: dict = {"schema_version": SCHEMA_VERSION, "classes": list(corpus.classes)}
    if corpus.synth is not None:
        doc["synth"] = asdict(corpus.synth)
    doc["videos"] = {
        vid: {
            "subset": rec.subset,
            "duration_sec": rec.duration_sec,
            "fps": rec.fps,
            **({"frame_seed": rec.frame_seed} if rec.frame_seed is not None else {}),
            "annotations": [
                {"label": a.label, "segment": [a.t_start, a.t_end]} for a in rec.annotations
            ],
        }
        for vid, rec in sorted(corpus.videos.items())
    }
    return doc


def load_manifest(path) -> Corpus:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
                            f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    try:
        return corpus_from_dict(doc)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def save_manifest(corpus: Corpus, path, invocation: str | None = None) -> None:
    """``invocation`` goes under the reserved "__invocation__" key, which readers skip."""
    doc = corpus_to_dict(corpus)
    if invocation is not None:
        doc["__invocation__"] = invocation
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# synthetic generation


def _draw_instances(rng: np.random.Generator, config: SynthConfig,
                    duration: float) -> list[tuple[float, float]]:
    lo, hi = config.instances_per_video
    count = int(rng.integers(lo, hi + 1))
    if count == 0:
        return []
    # lengths are log-normal, clamped so all instances fit in 90% of the video
    cap = 0.9 * duration / count
    if cap < 1.0 / config.fps:
        raise GenerationError(
            f"cannot place {count} instances in {duration:.1f}s at {config.fps} fps; "
            f"increase the duration range or reduce instances_per_video")
    lengths = np.minimum(rng.lognormal(config.length_log_mu, config.length_log_sigma,
                                       size=count), cap)
    # spread the leftover time into count+1 gaps
    gaps = rng.random(count + 1)
    gaps = gaps / gaps.sum() * (duration - float(lengths.sum()))
    segments = []
    cursor = 0.0
    for i in range(count):
        cursor += gaps[i]
        segments.append((cursor, cursor + float(lengths[i])))
        cursor += float(lengths[i])
    return segments


def generate_synthetic(config: SynthConfig, seed: int) -> Corpus:
    """Deterministic synthetic corpus: same (config, seed) -> identical manifest."""
    config.validate()
    classes = [f"act{c:02d}" for c in range(config.num_classes)]
    info = SynthInfo(
        master_seed=seed,
        noise_sigma=config.noise_sigma,
        background_mode=config.background_mode,
        channels=config.channels,
        height=config.height,
        width=config.width,
    )
    videos: dict[str, VideoRecord] = {}
    for subset, count in zip(SUBSETS, config.videos_per_subset):
        for k in range(count):
            vid = f"{subset}_{k:04d}"
            rng = rng_for(seed, "video", subset, k)
            duration = float(rng.uniform(*config.duration_range))
            spans = _draw_instances(rng, config, duration)
            anns = [
                AnnotationInstance(classes[int(rng.integers(config.num_classes))], t0, t1)
                for t0, t1 in spans
            ]
            frame_seed = int(rng.integers(0, 2**31 - 1))
            rec = VideoRecord(vid, subset, duration, config.fps, anns, frame_seed)
            _validate_video(vid, rec, classes)
            videos[vid] = rec
    return Corpus(classes, videos, info)
