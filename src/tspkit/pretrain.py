"""Two-head clip pretraining: global features, loss, schedule, trainer.

Three training modes share one loop:

* ``tsp``        - action head on foreground clips plus a temporal-region head
                   fed the clip feature concatenated with a frozen, precomputed
                   global video feature.
* ``tsp_nogvf``  - same, but the region head sees the clip feature alone.
* ``tac``        - action head only, trained on foreground clips.

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
Clips are rows of their split's frame store, and each clip's video is a row
of one (videos, F) GVF matrix: a step takes its batch and its GVF rows with
one ``take`` each, and validation takes and runs chunks of at most
``VALIDATION_CHUNK`` clips: one batch of a whole split does not fit in the
CPU caches and runs slower, with the same features.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .corpus import MAX_VIDEO_FRAMES, Corpus
from .decode import decode, load_json, save_json, write_rows
from .sampler import (ClipSpec, build_epoch, clip_frame_indices, clip_rows, clip_span,
                      dense_clip_specs, test_clip_set, video_segment_clips)
from .seeding import rng_for
from .workers import fork_map

CHECKPOINT_SCHEMA_VERSION = 1
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


@dataclass
class GlobalFeatureTable:
    """Frozen per-video pooled features; never updated by training."""

    features: dict[str, np.ndarray]
    pool: str  # one of POOLS
    source: str  # identifier of the encoder initialization that produced it

    def __post_init__(self):
        if self.features and not np.isfinite(np.concatenate(list(self.features.values()))).all():
            raise ValueError("global features must be finite")
        for arr in self.features.values():
            arr.setflags(write=False)


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
    gvf_dense_hop: int | None = None

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
        if self.gvf_dense_hop is not None and self.gvf_dense_hop < 1:
            raise ValueError(f"gvf_dense_hop must be positive, not {self.gvf_dense_hop}")
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
    mode: str
    config: TrainConfig
    encoder: enc.EncoderParams
    heads: HeadParams
    init_encoder: enc.EncoderParams
    global_features: GlobalFeatureTable | None
    selection: SelectionRecord
    seed: int
    schema_version: int = CHECKPOINT_SCHEMA_VERSION

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def checkpoint_id(self) -> str:
        return params_hash(self.encoder, self.heads, prefix=f"{self.mode}{self.seed}".encode())


def params_hash(*records: enc.ParamRecord, prefix: bytes = b"") -> str:
    """First 12 hex digits of the sha256 of ``prefix`` and the records' buffers:
    each record's array bytes in ``arrays()`` order."""
    digest = hashlib.sha256(prefix)
    for record in records:
        digest.update(record.flat)
    return digest.hexdigest()[:12]


def encoder_config_for(corpus: Corpus, cfg: TrainConfig) -> enc.EncoderConfig:
    if corpus.synth is None:
        raise ValueError("training needs a corpus with procedural frames")
    return enc.EncoderConfig(channels_in=corpus.synth.channels, height=corpus.synth.height,
                             width=corpus.synth.width, embed_dim=cfg.embed_dim, blocks=cfg.blocks)


def init_heads(feature_dim: int, num_classes: int, mode: str, seed: int) -> HeadParams:
    region_in = feature_dim if mode == "tsp_nogvf" else 2 * feature_dim
    rng = rng_for(seed, "head-init", mode)
    return HeadParams(
        action_weight=rng.standard_normal((feature_dim, num_classes)) / math.sqrt(feature_dim),
        action_bias=np.zeros(num_classes),
        region_weight=rng.standard_normal((region_in, 2)) / math.sqrt(region_in),
        region_bias=np.zeros(2),
    )


# ---------------------------------------------------------------------------
# global video features


def video_clip_specs(corpus: Corpus, video_id: str, cfg: TrainConfig) -> list[ClipSpec]:
    """The deterministic clip set a video's global feature pools over: test-mode
    per-segment clips, or a dense grid at ``cfg.gvf_dense_hop``."""
    video = corpus.videos[video_id]
    if cfg.gvf_dense_hop is not None:
        return dense_clip_specs(video, cfg.clip_len, cfg.frame_stride, cfg.gvf_dense_hop)
    segments = video_segment_clips(corpus, video, mode="test",
                                   clips_per_segment=cfg.clips_per_segment,
                                   clip_len=cfg.clip_len, frame_stride=cfg.frame_stride)
    return [spec for clips in segments for spec in clips]


def pool_features(features: list[np.ndarray], pool: str) -> np.ndarray:
    """Max or mean over feature rows; exactly order-invariant either way."""
    stacked = np.stack(features)
    if pool == "max":
        return stacked.max(axis=0)
    if pool == "avg":
        return np.add.reduce(np.sort(stacked, axis=0), axis=0) / len(features)
    raise ValueError(f"unknown pool {pool!r}")


def video_global_feature(corpus: Corpus, video_id: str, init_params: enc.EncoderParams,
                         cfg: TrainConfig) -> np.ndarray:
    """One video's global feature: encoder features pooled over its clip set,
    gathered by ``Corpus.frames_at``, so a video outside a filled split store
    (one missing from a checkpoint's table) fills nothing."""
    video = corpus.videos[video_id]
    specs = video_clip_specs(corpus, video_id, cfg)
    if not specs:
        raise ValueError(f"video {video_id!r} has no sampleable clips")
    centers = np.array([[spec.center_frame] for spec in specs])
    indices = clip_frame_indices(centers, cfg.clip_len, cfg.frame_stride, video.num_frames)
    frames = corpus.frames_at(video, indices).reshape(len(specs), cfg.clip_len, -1)
    return pool_features(list(enc.forward_np_batch(init_params, frames)), cfg.global_pool)


def precompute_global_features(corpus: Corpus, init_params: enc.EncoderParams,
                               cfg: TrainConfig) -> GlobalFeatureTable:
    """Pool encoder features over each video's deterministic clip set."""
    table = {video_id: video_global_feature(corpus, video_id, init_params, cfg)
             for video_id in corpus.videos}
    return GlobalFeatureTable(table, cfg.global_pool, params_hash(init_params))


def checkpoint_global_feature(corpus: Corpus, video_id: str, ckpt: "Checkpoint") -> np.ndarray:
    """A video's global feature under a checkpoint: its table entry, else
    recomputed from the frozen init encoder (videos outside the training corpus)."""
    table = ckpt.global_features
    if table is not None and video_id in table.features:
        return table.features[video_id]
    return video_global_feature(corpus, video_id, ckpt.init_encoder, ckpt.config)


# ---------------------------------------------------------------------------
# loss


def head_logits(feats: np.ndarray, global_feats: np.ndarray | None, heads: HeadParams,
                mode: str) -> tuple[np.ndarray, np.ndarray | None]:
    """(action, region) logits of (B, F) features, for inference; region is None
    for tac. global_feats is (B, F), aligned with feats (tsp mode only).

    Each row goes through its own contiguous (1, F) product, so a clip's logits
    are the bits of ``feat @ W + b`` for that clip alone, whatever batch (or
    memory layout) it comes in.
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

    ``labels`` are B indices below K; ``labeled_batch`` checks them where a
    batch is built, so a step does not."""
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
# labeled batches and validation


@dataclass(frozen=True)
class LabeledBatch:
    """Clips as rows of one split's frame store, with their labels, in clip order."""

    rows: np.ndarray  # (B, L); store.take(rows, axis=0) is the (B, L, frame_dim) input
    region_labels: np.ndarray  # (B,), 1 on foreground rows, else 0
    action_labels: np.ndarray  # (B,), a class index on foreground rows, -1 elsewhere
    videos: np.ndarray  # (B,), each clip's ``Corpus.video_index``: its row of a GVF matrix

    def global_rows(self, gvf: np.ndarray | None) -> np.ndarray | None:
        """(B, F) rows of a (videos, F) global-feature matrix aligned with the
        clips; None without one."""
        return None if gvf is None else gvf.take(self.videos, axis=0)


def labeled_batch(corpus: Corpus, specs: list[ClipSpec]) -> LabeledBatch:
    """Clips of one split as one batch of store rows, labeled by kind and class
    index. The labels are checked here, once per batch, for the loss's cross
    entropies: a foreground clip needs a class index below the class count."""
    region = np.array([int(spec.kind == "foreground") for spec in specs])
    action = np.array([-1 if spec.class_index is None else spec.class_index for spec in specs])
    fg_action = action[region == 1]
    if fg_action.size and not 0 <= fg_action.min() <= fg_action.max() < len(corpus.classes):
        raise ValueError(f"foreground clips need class indices below {len(corpus.classes)}")
    return LabeledBatch(clip_rows(corpus, specs), region, action,
                        np.array([corpus.video_index(spec.video_id) for spec in specs]))


def _eval_clips(corpus: Corpus, split: str, cfg: TrainConfig) -> LabeledBatch:
    specs = test_clip_set(corpus, split, clips_per_segment=cfg.clips_per_segment,
                          clip_len=cfg.clip_len, frame_stride=cfg.frame_stride)
    if not specs:
        raise ValueError(f"split {split!r} has no clips")
    return labeled_batch(corpus, specs)


# Clips per validation forward and per take from the split's store. A whole
# split's clips at once (19,280 frames on the default corpus) make activations
# far larger than the CPU caches: at the bench shapes, 1,180 clips took 8.3 ms
# in one batch and 4.3 ms in chunks of this size (benches/bench_encoder.py,
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
              clips: LabeledBatch) -> tuple[float, float | None]:
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


def validate(checkpoint: "Checkpoint", corpus: Corpus, split: str) -> dict:
    """Clip accuracies of a checkpoint on a split; region_acc is None for tac."""
    clips = _eval_clips(corpus, split, checkpoint.config)
    gvf = None
    if checkpoint.mode == "tsp":  # the rows of the split's videos; no clip reads the rest
        gvf = np.zeros((len(corpus.videos), checkpoint.encoder.config.feature_dim))
        video_ids = list(corpus.videos)
        for row in np.unique(clips.videos):
            gvf[row] = checkpoint_global_feature(corpus, video_ids[row], checkpoint)
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
    epochs: list[list[LabeledBatch]]
    valid_clips: LabeledBatch
    gvf: np.ndarray | None  # (videos, F), rows in corpus order; tsp mode only


def train_step(cfg: TrainConfig, store: np.ndarray, gvf: np.ndarray | None,
               batch: LabeledBatch, groups: tuple[enc.EncoderParams, HeadParams],
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
    steps_per_epoch = len(epochs[0])
    for epoch, batches in enumerate(epochs):
        epoch_losses = []
        mult = 1.0
        for batch in batches:
            mult = lr_at(step, steps_per_epoch, cfg)
            loss_value = train_step(cfg, inputs.train_frames, gvf, batch, groups, velocity,
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
    for a large-scale pretrained initialization).

    The grid cells are independent. Once the frame stores, the epochs, the
    validation clips and the GVF table are built, the cells run through
    ``workers.fork_map`` (whose docstring gives the threading model). Rows are
    concatenated in grid order and the best selection key wins, the first cell
    in grid order on a tie, so the checkpoint and the rows are the same bytes
    at any worker count.
    """
    enc_cfg = encoder_config_for(corpus, cfg)

    if init_encoder is not None:
        init_enc = init_encoder.copy()
    elif cfg.init == "random":
        init_enc = enc.init_params(enc_cfg, cfg.seed)
    else:  # "tac": classification-only warm start trained from random init
        base_cfg = replace(cfg, mode="tac", init="random")
        base_ckpt, _ = train(corpus, base_cfg)
        init_enc = base_ckpt.encoder.copy()

    train_frames, valid_frames = corpus.split_frames("train"), corpus.split_frames("valid")
    table = precompute_global_features(corpus, init_enc, cfg) if cfg.mode == "tsp" else None

    def build_batches(epoch: int) -> list[LabeledBatch]:
        specs = build_epoch(
            corpus, "train", epoch, cfg.seed,
            clips_per_segment=cfg.clips_per_segment, clip_len=cfg.clip_len,
            frame_stride=cfg.frame_stride, fg_only=(cfg.mode == "tac"),
            resample_each_epoch=cfg.resample_each_epoch)
        return [labeled_batch(corpus, specs[start:start + cfg.batch_size])
                for start in range(0, len(specs), cfg.batch_size)]

    # every grid cell trains on the same epochs (same seed), so build them once
    inputs = _CellInputs(
        cfg=cfg, init_encoder=init_enc,
        init_heads=init_heads(enc_cfg.feature_dim, len(corpus.classes), cfg.mode, cfg.seed),
        train_frames=train_frames, valid_frames=valid_frames,
        valid_clips=_eval_clips(corpus, "valid", cfg),
        epochs=[build_batches(epoch) for epoch in range(cfg.epochs)],
        gvf=None if table is None else np.stack([table.features[v] for v in corpus.videos]))
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
    ckpt = Checkpoint(mode=cfg.mode, config=cfg, encoder=enc_snap, heads=head_snap,
                      init_encoder=init_enc, global_features=table, selection=selection,
                      seed=cfg.seed)
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
    table = ckpt.global_features
    return {
        "schema_version": ckpt.schema_version,
        "mode": ckpt.mode,
        "seed": ckpt.seed,
        "config": _to_json(ckpt.config),
        "encoder": _to_json(ckpt.encoder),
        "heads": _to_json(ckpt.heads),
        "init_encoder": _to_json(ckpt.init_encoder),
        "global_features": None if table is None else {
            "pool": table.pool,
            "source": table.source,
            "features": {vid: arr.tolist() for vid, arr in sorted(table.features.items())},
        },
        "selection": _to_json(ckpt.selection),
        "checkpoint_id": ckpt.checkpoint_id,
    }


def _check_shapes(ckpt: Checkpoint) -> None:
    """Raise ValueError unless each array has the shape its config, mode and class count imply."""
    cfg, feature_dim = ckpt.encoder.config, ckpt.encoder.config.feature_dim
    # init_params allocates what the config asks for, so first bound it by the file
    if (len(ckpt.encoder.blocks), ckpt.encoder.stem_weight.shape) != (
            cfg.blocks, (cfg.embed_dim, cfg.frame_dim)):
        raise ValueError(f"encoder blocks and stem do not match its config {cfg}")
    def layout(record):
        return getattr(record, "config", None), [a.shape for a in record.arrays()]

    encoder = layout(enc.init_params(cfg, 0))
    heads = layout(init_heads(feature_dim, ckpt.heads.action_bias.size, ckpt.mode, 0))
    for name, expected in (("encoder", encoder), ("init_encoder", encoder), ("heads", heads)):
        found = layout(getattr(ckpt, name))
        if found != expected:
            raise ValueError(f"{name} config and shapes {found}, expected {expected}")
    table = ckpt.global_features
    for vid, row in ({} if table is None else table.features).items():
        if row.shape != (feature_dim,):
            raise ValueError(f"global feature {vid!r} has shape {row.shape}, not ({feature_dim},)")


def checkpoint_from_dict(doc: dict) -> Checkpoint:
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint root must be an object")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint schema_version {doc.get('schema_version')!r}")
    try:  # other top-level keys, "checkpoint_id" among them, are not fields
        ckpt = decode({f.name: doc[f.name] for f in fields(Checkpoint) if f.name in doc},
                      Checkpoint)
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
