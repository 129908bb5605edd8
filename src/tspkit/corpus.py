"""Untrimmed-video corpus: annotation schema, region labels, synthetic data.

A corpus is a class list plus a set of videos with temporal annotations, in
an ActivityNet-style JSON layout. Synthetic corpora additionally carry the
parameters needed to synthesize frames procedurally: every frame is a class
(or background) prototype vector plus seeded Gaussian noise, so a corpus of
hours of "video" stays a few kilobytes on disk and is reproducible bit for
bit from the manifest alone.

The noise of frame ``i`` of a video is keyed per frame, as part of the
manifest contract: it is ``rng_for(frame_seed, "frame-noise",
i).standard_normal(frame_dim)``, scaled by ``noise_sigma``. Because each
frame's noise depends on its own index only, a reader can synthesize any
subset of a video's rows and get the same bits as the whole video:
``video_frames`` and ``frames_at`` both draw the noise of the rows they need
at once with ``seeding.normal_rows``.

A frame side of at most ``MAX_FRAME_SIDE`` (112) pixels is part of the
contract too: frames reach the encoder as stored, with no resize or crop, so
generating or loading a corpus with larger frames fails. So are the caps of
``MAX_FRAME_VALUES`` values per frame (an RGB frame of that side) and of
``MAX_VIDEO_FRAMES`` frames per video.

A manifest is read through ``decode``: a JSON integer field (a seed, a frame
side, a channel count) takes an integer only, not a float or a bool, and a
number field any JSON number but a bool. ``SynthInfo`` and ``VideoRecord``
check their own rules when they are built, so generated and loaded corpora
obey the same; unknown keys are ignored except in the synth block.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from .decode import decode, decoder, load_json, number, save_json
from .seeding import normal_rows, rng_for

SCHEMA_VERSION = 1
SUBSETS = ("train", "valid", "test")
BACKGROUND_MODES = ("pure", "hard")
MAX_FRAME_SIDE = 112
MAX_FRAME_VALUES = 3 * MAX_FRAME_SIDE**2  # an RGB frame at the largest side
MAX_VIDEO_FRAMES = 2**20

_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


class ManifestError(ValueError):
    """Manifest file is unreadable or violates a schema invariant."""


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
    """A video's manifest entry; construction checks every rule a record obeys
    on its own (the class list is the corpus's)."""

    id: str
    subset: str
    duration_sec: float
    fps: float
    annotations: list[AnnotationInstance]
    frame_seed: int | None = None

    def __post_init__(self):
        if not _ID_RE.match(self.id):
            raise ValueError("id must match [A-Za-z0-9_.-]+")
        if self.subset not in SUBSETS:
            raise ValueError(f"unknown subset {self.subset!r}")
        for name in ("duration_sec", "fps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 1 <= self.duration_sec * self.fps < MAX_VIDEO_FRAMES + 1:
            raise ValueError(f"duration_sec * fps gives {self.duration_sec * self.fps!r} frames, "
                             f"not 1 to {MAX_VIDEO_FRAMES}")
        for ann in self.annotations:
            if not 0.0 <= ann.t_start < ann.t_end <= self.duration_sec:
                raise ValueError(f"segment [{ann.t_start}, {ann.t_end}] outside "
                                 f"[0, {self.duration_sec}]")

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
    """What frame synthesis needs beyond the annotations themselves. Construction
    checks every synth-block rule, so generated and loaded corpora obey the same."""

    master_seed: int
    noise_sigma: float
    background_mode: str  # one of BACKGROUND_MODES
    channels: int
    height: int
    width: int

    def __post_init__(self):
        if self.background_mode not in BACKGROUND_MODES:
            raise ValueError(f"unknown background mode {self.background_mode!r}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma {self.noise_sigma!r} is not a finite "
                             f"nonnegative number")
        if (self.channels < 1 or self.frame_dim > MAX_FRAME_VALUES
                or not (1 <= self.height <= MAX_FRAME_SIDE and 1 <= self.width <= MAX_FRAME_SIDE)):
            raise ValueError(f"frame geometry {self.channels}x{self.height}x{self.width} "
                             f"needs channels >= 1, sides in [1, {MAX_FRAME_SIDE}] and at most "
                             f"{MAX_FRAME_VALUES} values")

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

    def synth_info(self, seed: int) -> SynthInfo:
        """The synth block of a corpus generated from ``seed``; checks its rules."""
        return SynthInfo(seed, self.noise_sigma, self.background_mode,
                         self.channels, self.height, self.width)

    def __post_init__(self):
        self.synth_info(seed=0)
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if any(n < 0 for n in self.videos_per_subset):
            raise ValueError("video counts must be nonnegative")
        if not 0 < self.duration_range[0] <= self.duration_range[1]:
            raise ValueError("bad duration range")
        if not 0 <= self.instances_per_video[0] <= self.instances_per_video[1]:
            raise ValueError("bad instances_per_video range")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        frames = [d * self.fps for d in self.duration_range]  # VideoRecord's rule, at both ends
        if not 1 <= frames[0] <= frames[1] < MAX_VIDEO_FRAMES + 1:
            raise ValueError(f"duration_range * fps gives {frames[0]!r} to {frames[1]!r} "
                             f"frames, not 1 to {MAX_VIDEO_FRAMES}")
        most = self.instances_per_video[1]  # _draw_instances' length cap, at its least
        if most and 0.9 * self.duration_range[0] / most < 1.0 / self.fps:
            raise ValueError(f"cannot place {most} instances in the shortest duration "
                             f"{self.duration_range[0]!r}s at {self.fps!r} fps; increase the "
                             f"duration range or reduce instances_per_video")
        if not math.isfinite(self.length_log_mu):
            raise ValueError(f"length_log_mu {self.length_log_mu!r} is not finite")
        if not 0.0 <= self.length_log_sigma < math.inf:
            raise ValueError(f"length_log_sigma {self.length_log_sigma!r} is not a finite "
                             f"nonnegative number")
        _check_background_classes(self.background_mode, self.num_classes)


def _check_background_classes(background_mode: str, num_classes: int) -> None:
    """A hard background mixes two distinct class prototypes."""
    if background_mode == "hard" and num_classes < 2:
        raise ValueError("hard background mode needs at least 2 classes")


class Corpus:
    """A manifest's classes and videos, plus caches filled lazily on first use.

    The manifest fields are not changed after construction, but the object is
    not immutable: the caches (segments, frames, prototypes) are dicts and
    attributes filled without a lock, so concurrent first uses may each
    compute the same entry. Every cached value is a pure function of the
    manifest, and the cached arrays are read-only.

    The frame cache is one ``(frames, frame_dim)`` store per split, filled
    whole on first use by ``split_frames``; training and validation take clips
    from it by global rows, and ``video_frames`` is a view of it. ``frames_at``
    reads a filled store and otherwise synthesizes just the rows asked for
    without filling anything, which is what a single pass over a video needs.
    """

    def __init__(self, classes: list[str], videos: dict[str, VideoRecord],
                 synth: SynthInfo | None = None):
        self.classes = list(classes)
        self.videos = dict(sorted(videos.items()))
        self.synth = synth
        self._class_index = {name: i for i, name in enumerate(self.classes)}
        self._segment_cache: dict[str, list[RegionSegment]] = {}
        self._offsets: dict[str, int] = {}
        self._index = {video_id: i for i, video_id in enumerate(self.videos)}
        split_rows = dict.fromkeys(SUBSETS, 0)
        for video in self.videos.values():
            self._offsets[video.id] = split_rows[video.subset]
            split_rows[video.subset] += video.num_frames
        self._stores: dict[str, np.ndarray] = {}
        self._prototypes: np.ndarray | None = None
        self._bg_prototypes: dict[str, np.ndarray] = {}

    def class_index(self, label: str) -> int:
        return self._class_index[label]

    def video_index(self, video_id: str) -> int:
        """The video's position in ``videos``: its row in a per-video table."""
        return self._index[video_id]

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

    def frame_offset(self, video: VideoRecord) -> int:
        """The row of the video's first frame in its split's frame store."""
        return self._offsets[video.id]

    def split_frames(self, split: str) -> np.ndarray:
        """The split's frame store, shape (frames, frame_dim), read-only: video
        v's frame i is row ``frame_offset(v) + i``. Synthesized on first use."""
        store = self._stores.get(split)
        if store is None:
            videos = self.subset_videos(split)
            store = np.empty((sum(v.num_frames for v in videos), self._require_synth().frame_dim))
            for video in videos:
                start = self._offsets[video.id]
                store[start:start + video.num_frames] = self._synthesize_rows(
                    video, np.arange(video.num_frames)).reshape(video.num_frames, -1)
            store.setflags(write=False)
            store = self._stores.setdefault(split, store)
        return store

    def video_frames(self, video: VideoRecord) -> np.ndarray:
        """All frames of a video, shape (num_frames, channels, height, width): a
        read-only view of its rows of the split's frame store."""
        info = self._require_synth()
        start = self._offsets[video.id]
        return self.split_frames(video.subset)[start:start + video.num_frames].reshape(
            -1, info.channels, info.height, info.width)

    def frames_at(self, video: VideoRecord, indices) -> np.ndarray:
        """The frames at an integer index array of any shape, shape
        ``indices.shape + (channels, height, width)``; equal to
        ``video_frames(video)[indices]`` bit for bit.

        A video whose split store is filled is gathered from it; otherwise only
        the distinct rows asked for are synthesized, and the store is left unfilled.
        """
        indices = np.asarray(indices)
        if indices.size and not (0 <= indices.min() and indices.max() < video.num_frames):
            raise ValueError(f"frame indices out of range for {video.id!r} "
                             f"({video.num_frames} frames)")
        if video.subset in self._stores:
            return self.video_frames(video)[indices]
        rows, inverse = np.unique(indices, return_inverse=True)
        return self._synthesize_rows(video, rows)[inverse.reshape(indices.shape)]

    def _synthesize_rows(self, video: VideoRecord, rows: np.ndarray) -> np.ndarray:
        """Frames ``rows`` (a 1-D index array) of a video, shape (len(rows), c, h, w)."""
        info = self._require_synth()
        segs = self.segments(video.id)
        # segments partition [0, duration]; membership is half-open, and
        # a time past the last end falls in the last segment
        ends = np.array([seg.t_end for seg in segs])
        seg_index = np.minimum(np.searchsorted(ends, rows / video.fps, side="right"),
                               len(segs) - 1)
        used, inverse = np.unique(seg_index, return_inverse=True)
        frames = np.array([self._segment_prototype(video, segs[j]) for j in used]
                          ).reshape(-1, info.frame_dim)[inverse]
        if info.noise_sigma > 0.0:
            frames += info.noise_sigma * normal_rows(
                video.frame_seed, "frame-noise", rows=rows, dim=info.frame_dim)
        return frames.reshape(-1, info.channels, info.height, info.width)


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


# a manifest's video fields' decoders, bound once for its hundreds of records
_text, _segment, _objects, _seed = (decoder(tp) for tp in (
    str, tuple[float, float], list[dict], int | None))


def corpus_from_dict(doc: dict) -> Corpus:
    if not isinstance(doc, dict):
        raise ManifestError("manifest root must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ManifestError(f"unsupported schema_version {doc.get('schema_version')!r}")
    try:
        classes = decode(doc.get("classes"), list[str], "classes")
        raw_videos = decode(doc.get("videos"), dict[str, dict], "videos")
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    if len(set(classes)) != len(classes):
        raise ManifestError("classes must be unique")

    synth = None
    if "synth" in doc:
        try:
            synth = decode(doc["synth"], SynthInfo)
            _check_background_classes(synth.background_mode, len(classes))
        except ValueError as exc:
            raise ManifestError(f"bad synth block: {exc}") from exc

    videos = {}
    for vid, raw in raw_videos.items():
        try:
            anns = [AnnotationInstance(_text(a.get("label"), f"annotations[{i}].label"),
                                       *_segment(a.get("segment"), f"annotations[{i}].segment"))
                    for i, a in enumerate(_objects(raw.get("annotations", []), "annotations"))]
            rec = VideoRecord(
                vid, _text(raw.get("subset"), "subset"),
                number(raw.get("duration_sec"), "duration_sec"),
                number(raw.get("fps"), "fps"), anns,
                _seed(raw.get("frame_seed"), "frame_seed"))
            unknown = [a.label for a in anns if a.label not in classes]
            if unknown:
                raise ValueError(f"unknown label {unknown[0]!r}")
            if synth is not None and rec.frame_seed is None:
                raise ValueError("no frame_seed, which synthesized frames need")
        except ValueError as exc:
            raise ManifestError(f"video {vid!r}: {exc}") from exc
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
    doc = load_json(path, ManifestError)
    try:
        return corpus_from_dict(doc)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def save_manifest(corpus: Corpus, path, invocation: str | None = None) -> None:
    save_json(corpus_to_dict(corpus), path, invocation, indent=2)


# ---------------------------------------------------------------------------
# synthetic generation


def _draw_instances(rng: np.random.Generator, config: SynthConfig,
                    duration: float) -> list[tuple[float, float]]:
    lo, hi = config.instances_per_video
    count = int(rng.integers(lo, hi + 1))
    if count == 0:
        return []
    # lengths are log-normal, clamped so all instances fit in 90% of the video;
    # SynthConfig checks that the clamp is at least a frame
    lengths = np.minimum(rng.lognormal(config.length_log_mu, config.length_log_sigma,
                                       size=count), 0.9 * duration / count)
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
    classes = [f"act{c:02d}" for c in range(config.num_classes)]
    info = config.synth_info(seed)
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
            videos[vid] = VideoRecord(vid, subset, duration, config.fps, anns, frame_seed)
    return Corpus(classes, videos, info)
