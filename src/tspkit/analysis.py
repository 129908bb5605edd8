"""Feature-similarity analysis and multi-seed aggregation.

The similarity side quantifies how sharply a feature track separates action
content from its surrounding background: cosine similarity between all clip
pairs of a video, summarized as mean within-foreground, foreground-background,
and within-background similarity, with contrast = intra_fg - fg_bg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import VideoRecord, derive_segments
from .decode import write_rows
from .extract import FeatureTrack


@dataclass
class SimilarityMatrix:
    video_id: str
    values: np.ndarray  # (n, n), symmetric, in [-1, 1]
    center_times: np.ndarray  # (n,)


@dataclass
class ContrastStats:
    intra_fg: float | None
    fg_bg: float | None
    intra_bg: float | None

    @property
    def contrast(self) -> float | None:
        if self.intra_fg is None or self.fg_bg is None:
            return None
        return self.intra_fg - self.fg_bg


def cosine_matrix(track: FeatureTrack) -> SimilarityMatrix:
    """Pairwise cosine similarity between the track's clip features.

    Zero-norm rows get 0 off the diagonal and 1 on it, by convention.
    """
    feats = track.features
    if len(track) < 1:
        raise ValueError("track has no rows")
    norms = np.linalg.norm(feats, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = feats / safe[:, None]
    values = unit @ unit.T
    zero = norms == 0.0
    values[zero, :] = 0.0
    values[:, zero] = 0.0
    np.fill_diagonal(values, 1.0)
    np.clip(values, -1.0, 1.0, out=values)
    return SimilarityMatrix(track.video_id, values, track.center_times.copy())


def row_region_labels(track: FeatureTrack, video: VideoRecord) -> np.ndarray:
    """True where a clip center falls inside a merged foreground interval
    [t0, t1). The merged intervals are disjoint and in order, so their ends
    are one sorted list, and a center is inside one iff an odd number of
    ends are at or before it."""
    ends = np.array([t for s in derive_segments(video) if s.kind == "foreground"
                     for t in (s.t_start, s.t_end)], dtype=np.float64)
    return np.searchsorted(ends, track.center_times, side="right") % 2 == 1


def contrast_stats(track: FeatureTrack, video: VideoRecord) -> ContrastStats:
    """Mean cosine similarity over unordered within/between region pairs."""
    sim = cosine_matrix(track).values
    is_fg = row_region_labels(track, video)
    fg_idx = np.where(is_fg)[0]
    bg_idx = np.where(~is_fg)[0]

    def mean_pairs(rows, cols, same_group):
        if same_group:
            if len(rows) < 2:
                return None
            block = sim[np.ix_(rows, rows)]
            iu = np.triu_indices(len(rows), k=1)
            return float(block[iu].mean())
        if len(rows) == 0 or len(cols) == 0:
            return None
        return float(sim[np.ix_(rows, cols)].mean())

    return ContrastStats(
        intra_fg=mean_pairs(fg_idx, fg_idx, True),
        fg_bg=mean_pairs(fg_idx, bg_idx, False),
        intra_bg=mean_pairs(bg_idx, bg_idx, True),
    )


def export_pgm(matrix: SimilarityMatrix | np.ndarray, path) -> None:
    """8-bit binary PGM; -1 maps to 0, +1 maps to 255."""
    values = matrix.values if isinstance(matrix, SimilarityMatrix) else np.asarray(matrix)
    levels = np.floor((values + 1.0) / 2.0 * 255.0 + 0.5).astype(np.uint8)
    h, w = levels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())


def write_matrix_csv(matrix: SimilarityMatrix, path, flags_comment: str | None = None) -> None:
    rows = [matrix.center_times.tolist(), *matrix.values.tolist()]
    write_rows(path, flags_comment, (map(repr, row) for row in rows), sep=",")


# ---------------------------------------------------------------------------
# multi-seed aggregation


@dataclass(frozen=True)
class AggregateStat:
    mean: float
    std: float  # sample standard deviation (n-1); 0 by convention when n == 1
    n: int


def aggregate_runs(runs: list[dict[str, float]]) -> dict[str, AggregateStat]:
    """Per-metric mean and sample std over runs with identical metric keys."""
    if not runs:
        raise ValueError("need at least one run")
    keys = list(runs[0].keys())
    for i, run in enumerate(runs[1:], start=1):
        if set(run.keys()) != set(keys):
            missing = sorted(set(keys) ^ set(run.keys()))
            raise ValueError(f"run {i} metric keys differ: {missing}")
    out = {}
    for key in keys:
        values = [run[key] for run in runs]
        n = len(values)
        mean = sum(values) / n
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
        out[key] = AggregateStat(mean=mean, std=std, n=n)
    return out

