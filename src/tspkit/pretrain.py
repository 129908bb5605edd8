"""Two-head clip pretraining: global features, loss, schedule, trainer.

Three training modes share one loop:

* ``tsp``        - action head on foreground clips plus a temporal-region head
                   fed the clip feature concatenated with a frozen global
                   video feature (GVF).
* ``tsp_nogvf``  - same, but the region head sees the clip feature alone.
* ``tac``        - action head only, trained on foreground clips.

A video's GVF is a function of its frames and the checkpoint's frozen
``init_encoder`` alone: that encoder's clip features over the video's
non-overlapping dense clip grid (the grid ``extract`` tiles by default),
max- or mean-pooled (``video_global_feature``). It reads no annotation, so a
valid or unseen video gets its GVF as a training video does. A checkpoint
stores none: ``train`` computes the (videos, F) matrix its steps read
(``precompute_global_features``), and ``extract.extract_track`` and
``validate`` compute the rows they read; ``validate`` also takes the rows a
caller computed already, as ``bench`` takes its tracks'.

The per-clip loss is the weighted sum of the two head cross-entropies for
foreground clips and the region term alone for background clips. Optimization
is SGD with momentum, two learning-rate groups (encoder vs heads), a linear
warmup and stepwise decay, and a grid search over head learning rates with
model selection on mean validation accuracy of the heads.

A training step (``train_step``) records two ops on a tape: the encoder, and
``batch_loss_tensor``, which holds both heads and their weighted cross
entropies. Its backward sweep returns one flat gradient per parameter record,
the encoder's and the heads', bitwise those of the primitive-op composition
kept in ``tests/reference_tape.py``. The two records are the two
learning-rate groups, so the momentum update is three vector ops per record.
An epoch is one ``sampler.ClipSet``: its clips are rows of the train split's
frame store, and each clip's video is a row of one (videos, F) GVF matrix. A
step's batch is a slice of the epoch, whose frames and GVF rows are one
``take`` each. Validation takes and runs chunks of at most
``VALIDATION_CHUNK`` clips: one batch of a whole split does not fit in the
CPU caches and runs slower, with the same features.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .corpus import MAX_VIDEO_FRAMES, Corpus, VideoRecord
from .decode import decode, load_json, save_json, write_rows
from .sampler import ClipSet, build_epoch, clip_span, dense_clips, test_clip_set
from .seeding import rng_for
from .workers import fork_map

CHECKPOINT_SCHEMA_VERSION = 4
MODES = ("tsp", "tsp_nogvf", "tac")
POOLS = ("max", "avg")
INITS = ("tac", "random")  # "tac": warm-start from a classification-only run


class CheckpointError(ValueError):
    """Checkpoint file is unreadable or structurally inconsistent."""


@dataclass
class HeadParams(enc.ParamRecord):
    action_weight: np.ndarray  # (F, C)
    action_bias: np.ndarray  # (C,)
    region_weight: np.ndarray  # (2F, 2) or (F, 2) without the global feature
    region_bias: np.ndarray  # (2,)


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "tsp"
    global_pool: str = "max"
    encoder_lr: float = 1e-4
    head_lr_grid: tuple[float, ...] = (0.002, 0.004, 0.006, 0.008, 0.01)
    epochs: int = 8
    warmup_epochs: int = 2
    decay_epochs: tuple[int, ...] = (4, 6)
    decay_gamma: float = 0.01
    batch_size: int = 32
    momentum: float = 0.9
    seed: int = 0
    init: str = "tac"
    clips_per_segment: int = 5
    clip_len: int = 16
    frame_stride: int = 2
    embed_dim: int = 64
    blocks: int = 2
    action_loss_weight: float = 1.0
    region_loss_weight: float = 1.0
    resample_each_epoch: bool = True

    def __post_init__(self):
        enc.EncoderConfig(embed_dim=self.embed_dim, blocks=self.blocks)  # the encoder's rules
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.global_pool not in POOLS:
            raise ValueError(f"unknown pool {self.global_pool!r}")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")
        if self.epochs < 0 or self.batch_size < 1 or not self.head_lr_grid:
            raise ValueError("bad optimization config")
        # zero stays valid: encoder_lr=0 trains the heads on a frozen encoder
        if not all(0.0 <= v < math.inf for v in (self.encoder_lr, *self.head_lr_grid,
                                                 self.momentum, self.decay_gamma)):
            raise ValueError("encoder_lr, head_lr_grid, momentum and decay_gamma must be "
                             "finite and nonnegative")
        if min(self.clip_len, self.frame_stride, self.clips_per_segment) < 1:
            raise ValueError("clip_len, frame_stride and clips_per_segment must be positive")
        if clip_span(self.clip_len, self.frame_stride) > MAX_VIDEO_FRAMES:
            raise ValueError(f"a clip may span at most {MAX_VIDEO_FRAMES} frames")
        if self.epochs > 0:
            if not 0 <= self.warmup_epochs < self.epochs:
                raise ValueError("warmup_epochs must be < epochs")
            if any(not 0 <= d < self.epochs for d in self.decay_epochs):
                raise ValueError("decay epochs out of range")
        action, region = self.action_loss_weight, self.region_loss_weight
        if not (0.0 <= action < math.inf and 0.0 <= region < math.inf) or action == region == 0:
            raise ValueError("loss weights must be finite, nonnegative and not both zero")


@dataclass
class TrainLogRow:
    epoch: int
    head_lr: float
    mean_train_loss: float
    action_acc: float
    region_acc: float | None
    lr_multiplier: float
    diverged: bool = False


@dataclass
class SelectionRecord:
    head_lr: float
    epoch: int  # -1 means "initialization" (epochs == 0)
    score: float
    rows: list[TrainLogRow] = field(default_factory=list)


@dataclass
class Checkpoint:
    """A trained run. Its encoders read (channels, height, width) frames of
    ``frame_shape``, at the width and the depth ``config`` names."""
    config: TrainConfig
    frame_shape: tuple[int, int, int]
    encoder: enc.EncoderParams
    heads: HeadParams
    init_encoder: enc.EncoderParams
    selection: SelectionRecord

    @property
    def mode(self) -> str:
        return self.config.mode

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def checkpoint_id(self) -> str:
        """Hashes all a track depends on: the mode and the seed, then the whole
        config (clip geometry and GVF pool among it; the mode and the seed
        again), then the three parameter records' buffers. Not the frame
        shape: no output byte depends on the geometry of a flattened frame."""
        config = json.dumps(_to_json(self.config))
        return params_hash(self.encoder, self.heads, self.init_encoder,
                           prefix=f"{self.mode}{self.seed}{config}".encode())


def params_hash(*records: enc.ParamRecord, prefix: bytes = b"") -> str:
    """First 12 hex digits of the sha256 of ``prefix`` and the records' buffers:
    each record's array bytes in ``arrays()`` order."""
    digest = hashlib.sha256(prefix)
    for record in records:
        digest.update(record.flat)
    return digest.hexdigest()[:12]


def encoder_config_for(frame_shape: tuple[int, int, int], cfg: TrainConfig) -> enc.EncoderConfig:
    channels, height, width = frame_shape
    return enc.EncoderConfig(channels_in=channels, height=height, width=width,
                             embed_dim=cfg.embed_dim, blocks=cfg.blocks)


def head_shapes(feature_dim: int, num_classes: int, mode: str) -> list[tuple[int, ...]]:
    """The shape of each ``HeadParams`` array, in ``arrays()`` order."""
    if num_classes < 1:
        raise ValueError(f"heads need at least one class, got {num_classes}")
    region_in = feature_dim if mode == "tsp_nogvf" else 2 * feature_dim
    return [(feature_dim, num_classes), (num_classes,), (region_in, 2), (2,)]


def init_heads(feature_dim: int, num_classes: int, mode: str, seed: int) -> HeadParams:
    action, action_bias, region, region_bias = head_shapes(feature_dim, num_classes, mode)
    rng = rng_for(seed, "head-init", mode)
    return HeadParams(
        action_weight=rng.standard_normal(action) / math.sqrt(action[0]),
        action_bias=np.zeros(action_bias),
        region_weight=rng.standard_normal(region) / math.sqrt(region[0]),
        region_bias=np.zeros(region_bias),
    )


# ---------------------------------------------------------------------------
# global video features


def pool_features(features: np.ndarray | list[np.ndarray], pool: str) -> np.ndarray:
    """Max or mean over feature rows; exactly order-invariant either way."""
    stacked = np.stack(features)
    if pool == "max":
        return stacked.max(axis=0)
    if pool == "avg":
        return np.add.reduce(np.sort(stacked, axis=0), axis=0) / len(features)
    raise ValueError(f"unknown pool {pool!r}")


def video_global_feature(corpus: Corpus, video: VideoRecord, init_params: enc.EncoderParams,
                         cfg: TrainConfig, clips: np.ndarray | None = None) -> np.ndarray:
    """One video's global feature: the frozen init encoder's features over the
    video's non-overlapping dense clip grid, the one ``extract`` tiles by
    default, pooled by ``cfg.global_pool``. It reads the video's frames alone,
    no annotation. ``clips`` are that grid's frames when the caller has
    gathered them already; otherwise they are gathered here."""
    if clips is None:
        _, clips = dense_clips(corpus, video, cfg.clip_len, cfg.frame_stride,
                               clip_span(cfg.clip_len, cfg.frame_stride))
    return pool_features(enc.forward_np_batch(init_params, clips), cfg.global_pool)


def precompute_global_features(corpus: Corpus, init_params: enc.EncoderParams,
                               cfg: TrainConfig) -> np.ndarray:
    """The (videos, F) GVF matrix: each video's global feature, in corpus order."""
    return np.stack([video_global_feature(corpus, video, init_params, cfg)
                     for video in corpus.videos.values()])


# ---------------------------------------------------------------------------
# loss


def head_logits(feats: np.ndarray, global_feats: np.ndarray | None, heads: HeadParams,
                mode: str) -> tuple[np.ndarray, np.ndarray | None]:
    """(action, region) logits of (B, F) features, for inference; region is None
    for tac. global_feats is (B, F), aligned with feats (tsp mode only).

    Each row goes through its own contiguous (1, F) product, so a clip's logits
    are the bits of ``feat @ W + b`` for that clip alone, whatever batch (or
    memory layout) it comes in. The encoder's features are per clip as well
    (``encoder.forward_batch``), so neither depends on the batch a clip is in.
    """
    feats = np.ascontiguousarray(feats)
    action = (feats[:, None, :] @ heads.action_weight)[:, 0] + heads.action_bias
    if mode == "tac":
        return action, None
    region_in = feats if mode == "tsp_nogvf" else np.concatenate([feats, global_feats], axis=1)
    region = (region_in[:, None, :] @ heads.region_weight)[:, 0] + heads.region_bias
    return action, region


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.float64, np.ndarray]:
    """Sum of the rows' softmax cross entropies for (B, K) logits, and its gradient.

    ``labels`` are B indices below K: the sampler labels a foreground clip with
    ``Corpus.class_index`` of a class the manifest decoder checked."""
    rows = np.arange(logits.shape[0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1)
    grad = exps / sums[:, None]
    value = np.float64((np.log(sums) - shifted[rows, labels]).sum())
    grad[rows, labels] -= 1.0
    return value, grad


def batch_loss_tensor(tape: ad.Tape, enc_params: enc.EncoderParams, heads: HeadParams,
                      frames: np.ndarray, region_labels: np.ndarray,
                      action_labels: np.ndarray, global_feats: np.ndarray | None,
                      cfg: TrainConfig) -> np.float64:
    """Mean of the per-clip two-branch losses over one batch; records both ops.

    frames is (B, L, frame_dim); region_labels are 0 or 1; action_labels
    holds the class index for foreground rows (ignored elsewhere);
    global_feats is (B, F) rows aligned with the batch (tsp mode only).
    ``cfg`` gives the mode and the two heads' loss weights. It returns the
    loss, not a tensor: the name is kept for the benchmark's tracer
    (``perfbench/tracing.py``), which times this function by it.

    The encoder is the first op on ``tape`` and both heads with their
    weighted cross entropies are the second. Its backward returns the
    features' gradient, summed in the reference tape's order, action branch
    first, then region, and the heads' flat gradient, whose views start at
    zero: a head the batch does not reach (the region head in tac, the action
    head on an all-background batch) gets exact zeros.
    """
    batch, mode = frames.shape[0], cfg.mode
    if mode == "tsp" and global_feats is None:
        raise ValueError("tsp mode needs global features for the region head")
    feats = enc.forward_batch(enc_params, frames, tape)
    region = action = None  # (head input rows, CE gradient) of each branch reached
    if mode != "tac":
        region_in = (feats if mode == "tsp_nogvf" else
                     np.concatenate([feats, np.asarray(global_feats, np.float64)], axis=1))
        value, grad = _cross_entropy(region_in @ heads.region_weight + heads.region_bias,
                                     region_labels)
        total = value * cfg.region_loss_weight
        region = region_in, grad
        fg_rows = np.flatnonzero(region_labels == 1)
    if mode == "tac" or len(fg_rows):
        action_in = feats if mode == "tac" else feats[fg_rows]
        labels = action_labels if mode == "tac" else action_labels[fg_rows]
        value, grad = _cross_entropy(action_in @ heads.action_weight + heads.action_bias,
                                     labels)
        value = value * cfg.action_loss_weight
        total = value if region is None else total + value
        action = action_in, grad

    def backward(g):
        g = g * (1.0 / batch)
        g_heads = heads.view(np.zeros_like(heads.flat))
        g_feats = None
        if action is not None:
            action_in, grad = action
            g_logits = g * cfg.action_loss_weight * grad
            g_heads.action_weight[...] = action_in.T @ g_logits
            g_heads.action_bias[...] = g_logits.sum(axis=0)
            g_feats = g_logits @ heads.action_weight.T
            if mode != "tac":  # scatter the foreground rows back, from zero
                g_feats, g_fg = np.zeros_like(feats), g_feats
                g_feats[fg_rows] += g_fg
        if region is not None:
            region_in, grad = region
            g_logits = g * cfg.region_loss_weight * grad
            g_heads.region_weight[...] = region_in.T @ g_logits
            g_heads.region_bias[...] = g_logits.sum(axis=0)
            g_region = (g_logits @ heads.region_weight.T)[:, :feats.shape[1]]
            if g_feats is None:
                g_feats = g_region
            else:
                g_feats += g_region
        return g_feats, g_heads.flat

    tape.record(backward)
    return total * (1.0 / batch)


# ---------------------------------------------------------------------------
# schedule


def lr_at(step: int, steps_per_epoch: int, cfg: TrainConfig) -> float:
    """Learning-rate multiplier: linear ramp over the warmup steps, then a
    cumulative gamma factor from the start of each decay epoch."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    warm = cfg.warmup_epochs * steps_per_epoch
    mult = min(1.0, (step + 1) / warm) if warm > 0 else 1.0
    epoch = step // steps_per_epoch
    for d in cfg.decay_epochs:
        if epoch >= d:
            mult *= cfg.decay_gamma
    return mult


# ---------------------------------------------------------------------------
# validation


def _eval_clips(corpus: Corpus, split: str, cfg: TrainConfig) -> ClipSet:
    clips = test_clip_set(corpus, split, clips_per_segment=cfg.clips_per_segment,
                          clip_len=cfg.clip_len, frame_stride=cfg.frame_stride)
    if not len(clips):
        raise ValueError(f"split {split!r} has no clips")
    return clips


# Clips per validation forward and per take from the split's store. A whole
# split's clips at once (19,280 frames on the default corpus) make activations
# far larger than the CPU caches: at the bench shapes, 1,180 clips took 4.7 ms
# in one batch and 3.4 ms in chunks of this size (benches/bench_encoder.py,
# 2-core x86). A split is cut into equal chunks of at most this many clips, so
# no chunk is a small tail.
VALIDATION_CHUNK = 128


def clip_features(enc_params: enc.EncoderParams, store: np.ndarray,
                  rows: np.ndarray) -> np.ndarray:
    """Inference features of the clips at (B, L) ``rows`` of ``store``, in
    chunks of at most ``VALIDATION_CHUNK`` clips, each taken on its own."""
    chunks = np.array_split(rows, -(-len(rows) // VALIDATION_CHUNK))
    return np.concatenate([enc.forward_np_batch(enc_params, store.take(chunk, axis=0))
                           for chunk in chunks])


def _accuracy(enc_params: enc.EncoderParams, head_params: HeadParams, mode: str,
              gvf: np.ndarray | None, store: np.ndarray,
              clips: ClipSet) -> tuple[float, float | None]:
    feats = clip_features(enc_params, store, clips.rows)
    action_logits, region_logits = head_logits(feats, clips.global_rows(gvf),
                                               head_params, mode)
    fg = clips.region_labels == 1
    if fg.any():
        action_acc = float(np.mean(np.argmax(action_logits[fg], axis=1)
                                   == clips.action_labels[fg]))
    else:
        action_acc = 0.0
    if mode == "tac":
        return action_acc, None
    region_acc = float(np.mean(np.argmax(region_logits, axis=1) == clips.region_labels))
    return action_acc, region_acc


def validate(checkpoint: "Checkpoint", corpus: Corpus, split: str,
             global_features: dict[str, np.ndarray] | None = None) -> dict:
    """Clip accuracies of a checkpoint on a split; region_acc is None for tac.

    ``global_features`` maps each video id of the split to its global feature
    when the caller has computed them (a tsp track's ``global_feature``);
    without it a tsp checkpoint's are computed here."""
    clips = _eval_clips(corpus, split, checkpoint.config)
    gvf = None
    if checkpoint.mode == "tsp":  # the rows of the split's videos; no clip reads the rest
        gvf = np.zeros((len(corpus.videos), checkpoint.config.embed_dim))
        for video in corpus.subset_videos(split):
            gvf[corpus.video_index(video.id)] = (
                video_global_feature(corpus, video, checkpoint.init_encoder, checkpoint.config)
                if global_features is None else global_features[video.id])
    action_acc, region_acc = _accuracy(checkpoint.encoder, checkpoint.heads, checkpoint.mode,
                                       gvf, corpus.split_frames(split), clips)
    return {"action_acc": action_acc, "region_acc": region_acc}


# ---------------------------------------------------------------------------
# training


def _selection_score(action_acc: float, region_acc: float | None) -> float:
    if region_acc is None:  # tac
        return action_acc
    return 0.5 * (action_acc + region_acc)


@dataclass(frozen=True)
class _CellInputs:
    """What every grid cell of one ``train`` call shares, built before any cell runs."""

    cfg: TrainConfig
    init_encoder: enc.EncoderParams
    init_heads: HeadParams
    train_frames: np.ndarray
    valid_frames: np.ndarray
    epochs: list[ClipSet]  # one per epoch, in training order
    valid_clips: ClipSet
    gvf: np.ndarray | None  # (videos, F), rows in corpus order; tsp mode only


def train_step(cfg: TrainConfig, store: np.ndarray, gvf: np.ndarray | None,
               batch: ClipSet, groups: tuple[enc.EncoderParams, HeadParams],
               velocity: tuple[np.ndarray, np.ndarray], rates: list[float]) -> float:
    """One SGD step with momentum on ``batch``, in place; returns the batch loss.

    The batch's frames are one ``take`` from ``store`` and its GVF rows one
    from the ``gvf`` matrix. Each parameter record of ``groups`` gets one
    flat gradient from the tape's sweep and is one lr group, with its
    velocity buffer and its rate (lr times
    the schedule's multiplier): ``vel = momentum·vel + grad`` and
    ``flat -= rate·vel`` are three vector ops over the whole record, the
    per-element operations of a per-array update. A loss that is not finite
    updates nothing.
    """
    tape = ad.Tape()
    value = float(batch_loss_tensor(tape, *groups, store.take(batch.rows, axis=0),
                                    batch.region_labels, batch.action_labels,
                                    batch.global_rows(gvf), cfg))
    if math.isfinite(value):
        for params, grad, vel, rate in zip(groups, tape.backward(), velocity, rates):
            vel *= cfg.momentum
            vel += grad
            params.flat -= rate * vel
    return value


def _train_cell(inputs: _CellInputs, head_lr: float) -> tuple[list[TrainLogRow], tuple | None]:
    """One grid cell: its log rows, and its best (selection key, head_lr, epoch,
    encoder snapshot, heads snapshot), None if it diverged before any validation."""
    cfg, epochs, gvf = inputs.cfg, inputs.epochs, inputs.gvf
    rows: list[TrainLogRow] = []
    best = None

    def validate_and_select(epoch: int, enc_params: enc.EncoderParams,
                            head_params: HeadParams) -> tuple[float, float | None]:
        """Validation accuracies; the parameters are kept if they beat the cell's best so far."""
        nonlocal best
        accs = _accuracy(enc_params, head_params, cfg.mode, gvf,
                         inputs.valid_frames, inputs.valid_clips)
        key = (_selection_score(*accs), -head_lr, -epoch)  # ties: smaller lr, earlier epoch
        if best is None or key > best[0]:
            best = (key, head_lr, epoch, enc_params.copy(), head_params.copy())
        return accs

    enc_params = inputs.init_encoder.copy()
    head_params = inputs.init_heads.copy()
    groups = (enc_params, head_params)  # one lr group per record
    velocity = tuple(np.zeros_like(params.flat) for params in groups)
    group_lrs = (cfg.encoder_lr, head_lr)

    if cfg.epochs == 0:
        validate_and_select(-1, enc_params, head_params)
        return rows, best

    step = 0
    steps_per_epoch = -(-len(epochs[0]) // cfg.batch_size)
    for epoch, clips in enumerate(epochs):
        epoch_losses = []
        mult = 1.0
        for start in range(0, len(clips), cfg.batch_size):
            mult = lr_at(step, steps_per_epoch, cfg)
            loss_value = train_step(cfg, inputs.train_frames, gvf,
                                    clips[start:start + cfg.batch_size], groups, velocity,
                                    [lr * mult for lr in group_lrs])
            if not math.isfinite(loss_value):
                rows.append(TrainLogRow(epoch, head_lr, float("nan"), float("nan"),
                                        None, mult, diverged=True))
                return rows, best
            epoch_losses.append(loss_value)
            step += 1

        action_acc, region_acc = validate_and_select(epoch, enc_params, head_params)
        rows.append(TrainLogRow(epoch, head_lr, float(np.mean(epoch_losses)),
                                action_acc, region_acc, mult))
    return rows, best


def _train_cells(inputs: _CellInputs) -> list[tuple[list[TrainLogRow], tuple | None]]:
    """Every grid cell's result, in grid order, through ``fork_map``: workers
    inherit ``inputs``; only a head lr goes out and a result comes back."""
    return fork_map(_train_cell, inputs, inputs.cfg.head_lr_grid)


def train(corpus: Corpus, cfg: TrainConfig,
          init_encoder: enc.EncoderParams | None = None
          ) -> tuple[Checkpoint, list[TrainLogRow]]:
    """Full grid-searched training run; deterministic given (corpus, cfg).

    ``init_encoder`` short-circuits the warm-start stage so several runs can
    share one base encoder (the classification-only pretraining that stands in
    for a large-scale pretrained initialization). Its array shapes must be the
    ones the corpus's frame shape, ``cfg.embed_dim`` and ``cfg.blocks`` give,
    or a ValueError is raised before any input is built.

    The grid cells are independent. Once the frame stores, the epochs, the
    validation clips and the GVF matrix are built, the cells run through
    ``workers.fork_map`` (whose docstring gives the threading model). Rows are
    concatenated in grid order and the best selection key wins, the first cell
    in grid order on a tie, so the checkpoint and the rows are the same bytes
    at any worker count.
    """
    enc_cfg = encoder_config_for(corpus.require_synth().frame_shape, cfg)

    if init_encoder is not None:
        _check_record_shapes("init_encoder", init_encoder, enc.param_shapes(enc_cfg))
        init_enc = init_encoder.copy()
    elif cfg.init == "random":
        init_enc = enc.init_params(enc_cfg, cfg.seed)
    else:  # "tac": classification-only warm start trained from random init
        base_cfg = replace(cfg, mode="tac", init="random")
        base_ckpt, _ = train(corpus, base_cfg)
        init_enc = base_ckpt.encoder.copy()

    train_frames, valid_frames = corpus.split_frames("train"), corpus.split_frames("valid")

    # every grid cell trains on the same epochs (same seed), so build them once
    inputs = _CellInputs(
        cfg=cfg, init_encoder=init_enc,
        init_heads=init_heads(cfg.embed_dim, len(corpus.classes), cfg.mode, cfg.seed),
        train_frames=train_frames, valid_frames=valid_frames,
        valid_clips=_eval_clips(corpus, "valid", cfg),
        epochs=[build_epoch(corpus, "train", epoch, cfg.seed,
                            clips_per_segment=cfg.clips_per_segment, clip_len=cfg.clip_len,
                            frame_stride=cfg.frame_stride, fg_only=(cfg.mode == "tac"),
                            resample_each_epoch=cfg.resample_each_epoch)
                for epoch in range(cfg.epochs)],
        gvf=precompute_global_features(corpus, init_enc, cfg) if cfg.mode == "tsp" else None)
    results = _train_cells(inputs)

    rows = [row for cell_rows, _ in results for row in cell_rows]
    best = None  # a later cell must beat the key strictly, as within a cell
    for _, cell_best in results:
        if cell_best is not None and (best is None or cell_best[0] > best[0]):
            best = cell_best
    if best is None:
        raise RuntimeError("every grid cell diverged; nothing to select")

    (score, _, _), head_lr, epoch, enc_snap, head_snap = best
    selection = SelectionRecord(head_lr=head_lr, epoch=epoch, score=score, rows=rows)
    ckpt = Checkpoint(config=cfg, frame_shape=corpus.synth.frame_shape, encoder=enc_snap,
                      heads=head_snap, init_encoder=init_enc, selection=selection)
    return ckpt, rows


# ---------------------------------------------------------------------------
# checkpoint IO


def _to_json(obj):
    """Dataclasses as dicts, lists item by item, arrays as their shape and data
    (the form ``decode`` reads); unlike ``asdict``, nothing is deep-copied."""
    if is_dataclass(obj):
        return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, list):
        return [_to_json(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return {"shape": list(obj.shape), "data": obj.ravel().tolist()}
    return obj


def checkpoint_to_dict(ckpt: Checkpoint) -> dict:
    return {"schema_version": CHECKPOINT_SCHEMA_VERSION, **_to_json(ckpt),
            "checkpoint_id": ckpt.checkpoint_id}


def _check_shapes(ckpt: Checkpoint) -> None:
    """Raise ValueError unless each array has the shape that the frame shape,
    the config, the mode and the class count imply. The shapes are computed,
    not drawn, so no file can make this allocate anything."""
    encoder = enc.param_shapes(encoder_config_for(ckpt.frame_shape, ckpt.config))
    heads = head_shapes(ckpt.config.embed_dim, ckpt.heads.action_bias.size, ckpt.mode)
    for name, expected in (("encoder", encoder), ("init_encoder", encoder), ("heads", heads)):
        _check_record_shapes(name, getattr(ckpt, name), expected)


def _check_record_shapes(name: str, record: enc.ParamRecord,
                         expected: list[tuple[int, ...]]) -> None:
    found = [a.shape for a in record.arrays()]
    if found != expected:
        raise ValueError(f"{name} shapes {found}, expected {expected}")


def checkpoint_from_dict(doc: dict) -> Checkpoint:
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint root must be an object")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint schema_version {doc.get('schema_version')!r}")
    try:  # every other key is a field, so no fact can be stored twice
        ckpt = decode({key: value for key, value in doc.items()
                       if key not in ("schema_version", "checkpoint_id")}, Checkpoint)
        _check_shapes(ckpt)
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if doc.get("checkpoint_id") != ckpt.checkpoint_id:
        raise CheckpointError("checkpoint_id mismatch (file corrupt or edited)")
    return ckpt


def save_checkpoint(ckpt: Checkpoint, path, invocation: str | None = None) -> None:
    save_json(checkpoint_to_dict(ckpt), path, invocation)


def load_checkpoint(path) -> Checkpoint:
    doc = load_json(path, CheckpointError)
    try:
        return checkpoint_from_dict(doc)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def write_train_log(rows: list[TrainLogRow], path, flags_comment: str | None = None) -> None:
    header = ["epoch", "head_lr", "mean_train_loss", "action_acc", "region_acc", "lr_multiplier"]
    write_rows(path, flags_comment, [header] + [
        [str(r.epoch), repr(r.head_lr), repr(r.mean_train_loss), repr(r.action_acc),
         "n/a" if r.region_acc is None else repr(r.region_acc), repr(r.lr_multiplier)]
        for r in rows])
