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
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .corpus import Corpus
from .sampler import (ClipLabels, ClipSpec, build_epoch, clip_batch, sample_segment_clips,
                      test_clip_set, transformed_shape)
from .seeding import rng_for

CHECKPOINT_SCHEMA_VERSION = 1
MODES = ("tsp", "tsp_nogvf", "tac")


class CheckpointError(ValueError):
    """Checkpoint file is unreadable or structurally inconsistent."""


@dataclass
class HeadParams(enc.ParamRecord):
    action_weight: np.ndarray  # (F, C)
    action_bias: np.ndarray  # (C,)
    region_weight: np.ndarray  # (2F, 2) or (F, 2) without the global feature
    region_bias: np.ndarray  # (2,)


@dataclass(frozen=True)
class LossWeights:
    action: float = 1.0
    region: float = 1.0

    def validate(self) -> None:
        if self.action < 0 or self.region < 0 or (self.action == 0 and self.region == 0):
            raise ValueError("loss weights must be nonnegative and not both zero")


@dataclass
class GlobalFeatureTable:
    """Frozen per-video pooled features; never updated by training."""

    features: dict[str, np.ndarray]
    pool: str  # "max" | "avg"
    source: str  # identifier of the encoder initialization that produced it

    def __post_init__(self):
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
    init: str = "tac"  # "tac": warm-start from a classification-only run; "random"
    clips_per_segment: int = 5
    clip_len: int = 16
    frame_stride: int = 2
    embed_dim: int = 64
    blocks: int = 2
    action_loss_weight: float = 1.0
    region_loss_weight: float = 1.0
    resample_each_epoch: bool = True
    gvf_dense_hop: int | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.global_pool not in ("max", "avg"):
            raise ValueError(f"unknown pool {self.global_pool!r}")
        if self.init not in ("tac", "random"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.epochs < 0 or self.batch_size < 1 or not self.head_lr_grid:
            raise ValueError("bad optimization config")
        if self.epochs > 0:
            if not 0 <= self.warmup_epochs < self.epochs:
                raise ValueError("warmup_epochs must be < epochs")
            if any(not 0 <= d < self.epochs for d in self.decay_epochs):
                raise ValueError("decay epochs out of range")
        LossWeights(self.action_loss_weight, self.region_loss_weight).validate()

    @property
    def loss_weights(self) -> LossWeights:
        return LossWeights(self.action_loss_weight, self.region_loss_weight)


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

    @property
    def checkpoint_id(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.mode.encode())
        digest.update(str(self.seed).encode())
        for arr in self.encoder.arrays() + self.heads.arrays():
            digest.update(arr.tobytes())
        return digest.hexdigest()[:12]


def params_hash(params: enc.EncoderParams) -> str:
    digest = hashlib.sha256()
    for arr in params.arrays():
        digest.update(arr.tobytes())
    return digest.hexdigest()[:12]


def encoder_config_for(corpus: Corpus, cfg: TrainConfig) -> enc.EncoderConfig:
    if corpus.synth is None:
        raise ValueError("training needs a corpus with procedural frames")
    h, w = transformed_shape(corpus.synth.height, corpus.synth.width)
    return enc.EncoderConfig(channels_in=corpus.synth.channels, height=h, width=w,
                             embed_dim=cfg.embed_dim, blocks=cfg.blocks)


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


def video_clip_specs(corpus: Corpus, video_id: str, *, clips_per_segment: int,
                     clip_len: int, frame_stride: int,
                     dense_hop: int | None = None) -> list[ClipSpec]:
    """Deterministic clip set covering one video (test-mode sampling, or a
    dense regular grid when dense_hop is given)."""
    video = corpus.videos[video_id]
    if dense_hop is not None:
        centers = range(0, video.num_frames, dense_hop)
        return [ClipSpec(video_id, c, clip_len, frame_stride, "background") for c in centers]
    specs: list[ClipSpec] = []
    for segment in corpus.segments(video_id):
        class_index = (corpus.class_index(segment.class_label)
                       if segment.kind == "foreground" else None)
        specs.extend(sample_segment_clips(
            segment, video, mode="test", n=clips_per_segment, rng=None,
            clip_len=clip_len, frame_stride=frame_stride, class_index=class_index))
    return specs


def pool_features(features: list[np.ndarray], pool: str) -> np.ndarray:
    """Max or mean over feature rows; exactly order-invariant either way."""
    stacked = np.stack(features)
    if pool == "max":
        return stacked.max(axis=0)
    if pool == "avg":
        return np.add.reduce(np.sort(stacked, axis=0), axis=0) / len(features)
    raise ValueError(f"unknown pool {pool!r}")


def video_global_feature(corpus: Corpus, video_id: str, init_params: enc.EncoderParams,
                         pool: str, *, clips_per_segment: int, clip_len: int,
                         frame_stride: int, dense_hop: int | None = None) -> np.ndarray:
    """One video's global feature: encoder features pooled over its clip set."""
    specs = video_clip_specs(corpus, video_id, clips_per_segment=clips_per_segment,
                             clip_len=clip_len, frame_stride=frame_stride, dense_hop=dense_hop)
    if not specs:
        raise ValueError(f"video {video_id!r} has no sampleable clips")
    frames = clip_batch(corpus, specs, "test")
    return pool_features(list(enc.forward_np_batch(init_params, frames)), pool)


def precompute_global_features(corpus: Corpus, init_params: enc.EncoderParams,
                               pool: str = "max", *, clips_per_segment: int = 5,
                               clip_len: int = 16, frame_stride: int = 2,
                               dense_hop: int | None = None) -> GlobalFeatureTable:
    """Pool encoder features over each video's deterministic clip set."""
    table = {video_id: video_global_feature(
                 corpus, video_id, init_params, pool, clips_per_segment=clips_per_segment,
                 clip_len=clip_len, frame_stride=frame_stride, dense_hop=dense_hop)
             for video_id in corpus.videos}
    return GlobalFeatureTable(table, pool, params_hash(init_params))


def checkpoint_global_feature(corpus: Corpus, video_id: str, ckpt: "Checkpoint") -> np.ndarray:
    """A video's global feature under a checkpoint: its table entry, else
    recomputed from the frozen init encoder (videos outside the training corpus)."""
    table = ckpt.global_features
    if table is not None and video_id in table.features:
        return table.features[video_id]
    cfg = ckpt.config
    return video_global_feature(corpus, video_id, ckpt.init_encoder, cfg.global_pool,
                                clips_per_segment=cfg.clips_per_segment,
                                clip_len=cfg.clip_len, frame_stride=cfg.frame_stride,
                                dense_hop=cfg.gvf_dense_hop)


# ---------------------------------------------------------------------------
# loss


def head_logits(feats: np.ndarray, global_feats: np.ndarray | None, heads: HeadParams,
                mode: str) -> tuple[np.ndarray, np.ndarray | None]:
    """(action, region) logits of (B, F) features without a tape; region is None
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


def batch_loss_tensor(tape: ad.Tape, enc_leaves: enc.EncoderParams,
                      head_leaves: HeadParams, frames: np.ndarray,
                      region_labels: np.ndarray, action_labels: np.ndarray,
                      global_feats: np.ndarray | None, weights: LossWeights,
                      mode: str) -> ad.Tensor:
    """Mean of the per-clip two-branch losses over one batch, on the tape.

    The two parameter records hold tensors on ``tape``. frames is
    (B, L, frame_dim); action_labels holds the class index for foreground rows
    (ignored elsewhere); global_feats is (B, F) rows aligned with the batch
    (tsp mode only).
    """
    batch = frames.shape[0]
    feats = enc.forward_batch(tape, enc_leaves, frames)
    terms: list[ad.Tensor] = []
    if mode == "tac":
        logits = ad.linear_rows(feats, head_leaves.action_weight, head_leaves.action_bias)
        terms.append(ad.scale(ad.cross_entropy_sum(logits, action_labels), weights.action))
    else:
        if mode == "tsp":
            if global_feats is None:
                raise ValueError("tsp mode needs global features for the region head")
            region_in = ad.hstack_rows(feats, tape.tensor(global_feats))
        else:
            region_in = feats
        region_logits = ad.linear_rows(region_in, head_leaves.region_weight,
                                       head_leaves.region_bias)
        terms.append(ad.scale(ad.cross_entropy_sum(region_logits, region_labels),
                              weights.region))
        fg_rows = np.flatnonzero(region_labels == 1)
        if len(fg_rows):
            fg_feats = ad.take_rows(feats, fg_rows)
            fg_logits = ad.linear_rows(fg_feats, head_leaves.action_weight,
                                       head_leaves.action_bias)
            terms.append(ad.scale(ad.cross_entropy_sum(fg_logits, action_labels[fg_rows]),
                                  weights.action))
    total = terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])
    return ad.scale(total, 1.0 / batch)


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
    """Clips gathered as encoder input, with their labels, in clip order."""

    frames: np.ndarray  # (B, L, frame_dim)
    region_labels: np.ndarray  # (B,)
    action_labels: np.ndarray  # (B,), -1 on background rows
    video_ids: list[str]

    def global_rows(self, features: Mapping[str, np.ndarray] | None) -> np.ndarray | None:
        """(B, F) global features aligned with the clips; None without a table."""
        return None if features is None else np.stack([features[v] for v in self.video_ids])


def labeled_batch(corpus: Corpus, items: list[tuple[ClipSpec, ClipLabels]], mode: str,
                  rng: np.random.Generator | None = None) -> LabeledBatch:
    """(spec, labels) items gathered into one batch; rng draws the train-mode crops."""
    specs = [spec for spec, _ in items]
    return LabeledBatch(
        clip_batch(corpus, specs, mode, rng),
        np.array([labels.region for _, labels in items]),
        np.array([-1 if labels.action is None else labels.action for _, labels in items]),
        [spec.video_id for spec in specs])


def _eval_clips(corpus: Corpus, split: str, cfg: TrainConfig) -> LabeledBatch:
    items = test_clip_set(corpus, split, clips_per_segment=cfg.clips_per_segment,
                          clip_len=cfg.clip_len, frame_stride=cfg.frame_stride)
    if not items:
        raise ValueError(f"split {split!r} has no clips")
    return labeled_batch(corpus, items, "test")


def _accuracy(enc_params: enc.EncoderParams, head_params: HeadParams, mode: str,
              global_features: Mapping[str, np.ndarray] | None,
              clips: LabeledBatch) -> tuple[float, float | None]:
    feats = enc.forward_np_batch(enc_params, clips.frames)
    action_logits, region_logits = head_logits(feats, clips.global_rows(global_features),
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
    global_features = None
    if checkpoint.mode == "tsp":
        global_features = {vid: checkpoint_global_feature(corpus, vid, checkpoint)
                           for vid in dict.fromkeys(clips.video_ids)}
    action_acc, region_acc = _accuracy(checkpoint.encoder, checkpoint.heads,
                                       checkpoint.mode, global_features, clips)
    return {"action_acc": action_acc, "region_acc": region_acc}


# ---------------------------------------------------------------------------
# training


def _selection_score(action_acc: float, region_acc: float | None, mode: str) -> float:
    if mode == "tac" or region_acc is None:
        return action_acc
    return 0.5 * (action_acc + region_acc)


def train(corpus: Corpus, cfg: TrainConfig,
          init_encoder: enc.EncoderParams | None = None
          ) -> tuple[Checkpoint, list[TrainLogRow]]:
    """Full grid-searched training run; deterministic given (corpus, cfg).

    ``init_encoder`` short-circuits the warm-start stage so several runs can
    share one base encoder (the classification-only pretraining that stands in
    for a large-scale pretrained initialization).
    """
    cfg.validate()
    enc_cfg = encoder_config_for(corpus, cfg)

    if init_encoder is not None:
        init_enc = init_encoder.copy()
    elif cfg.init == "random":
        init_enc = enc.init_params(enc_cfg, cfg.seed)
    else:  # "tac": classification-only warm start trained from random init
        base_cfg = replace(cfg, mode="tac", init="random")
        base_ckpt, _ = train(corpus, base_cfg)
        init_enc = base_ckpt.encoder.copy()

    table = None
    if cfg.mode == "tsp":
        table = precompute_global_features(
            corpus, init_enc, cfg.global_pool, clips_per_segment=cfg.clips_per_segment,
            clip_len=cfg.clip_len, frame_stride=cfg.frame_stride,
            dense_hop=cfg.gvf_dense_hop)

    table_features = None if table is None else table.features
    num_classes = len(corpus.classes)
    weights = cfg.loss_weights
    valid_clips = _eval_clips(corpus, "valid", cfg)

    def build_batches(epoch: int) -> list[LabeledBatch]:
        items = build_epoch(
            corpus, "train", epoch, cfg.seed,
            clips_per_segment=cfg.clips_per_segment, clip_len=cfg.clip_len,
            frame_stride=cfg.frame_stride, fg_only=(cfg.mode == "tac"),
            resample_each_epoch=cfg.resample_each_epoch)
        aug_rng = rng_for(cfg.seed, "augment", epoch)
        return [labeled_batch(corpus, items[start:start + cfg.batch_size], "train", aug_rng)
                for start in range(0, len(items), cfg.batch_size)]

    # every grid cell trains on the same epochs (same seed), so build them once
    epochs = [build_batches(epoch) for epoch in range(cfg.epochs)]

    rows: list[TrainLogRow] = []
    candidates = []  # (score, head_lr, epoch, encoder snapshot, heads snapshot)

    for head_lr in cfg.head_lr_grid:
        enc_params = init_enc.copy()
        head_params = init_heads(enc_cfg.feature_dim, num_classes, cfg.mode, cfg.seed)
        group_arrays = (enc_params.arrays(), head_params.arrays())
        velocity = tuple([np.zeros_like(a) for a in group] for group in group_arrays)
        group_lrs = (cfg.encoder_lr, head_lr)

        if cfg.epochs == 0:
            action_acc, region_acc = _accuracy(enc_params, head_params, cfg.mode,
                                               table_features, valid_clips)
            score = _selection_score(action_acc, region_acc, cfg.mode)
            candidates.append((score, head_lr, -1, enc_params.copy(), head_params.copy()))
            continue

        step = 0
        steps_per_epoch = len(epochs[0])
        diverged = False
        for epoch, batches in enumerate(epochs):
            epoch_losses = []
            mult = 1.0
            for batch in batches:
                mult = lr_at(step, steps_per_epoch, cfg)

                tape = ad.Tape()
                enc_leaves, head_leaves = (params.map(lambda a: tape.tensor(a, True))
                                           for params in (enc_params, head_params))
                batch_loss = batch_loss_tensor(tape, enc_leaves, head_leaves, batch.frames,
                                               batch.region_labels, batch.action_labels,
                                               batch.global_rows(table_features),
                                               weights, cfg.mode)
                loss_value = batch_loss.item()
                if not math.isfinite(loss_value):
                    diverged = True
                    break
                epoch_losses.append(loss_value)
                grads = tape.backward(batch_loss)

                leaf_groups = (enc_leaves.arrays(), head_leaves.arrays())
                for arrays, leaves, vels, lr in zip(group_arrays, leaf_groups,
                                                    velocity, group_lrs):
                    eff = lr * mult
                    for arr, leaf, vel in zip(arrays, leaves, vels):
                        vel *= cfg.momentum
                        vel += grads[leaf.node_id]
                        arr -= eff * vel
                step += 1

            if diverged:
                rows.append(TrainLogRow(epoch, head_lr, float("nan"), float("nan"),
                                        None, mult, diverged=True))
                break

            action_acc, region_acc = _accuracy(enc_params, head_params, cfg.mode,
                                               table_features, valid_clips)
            rows.append(TrainLogRow(epoch, head_lr, float(np.mean(epoch_losses)),
                                    action_acc, region_acc, mult))
            score = _selection_score(action_acc, region_acc, cfg.mode)
            candidates.append((score, head_lr, epoch, enc_params.copy(),
                               head_params.copy()))

    if not candidates:
        raise RuntimeError("every grid cell diverged; nothing to select")

    # ties resolve to the smaller head lr, then the earlier epoch
    score, head_lr, epoch, enc_snap, head_snap = max(
        candidates, key=lambda c: (c[0], -c[1], -c[2]))

    selection = SelectionRecord(head_lr=head_lr, epoch=epoch, score=score, rows=rows)
    ckpt = Checkpoint(mode=cfg.mode, config=cfg, encoder=enc_snap, heads=head_snap,
                      init_encoder=init_enc, global_features=table, selection=selection,
                      seed=cfg.seed)
    return ckpt, rows


# ---------------------------------------------------------------------------
# checkpoint IO


def _array_to_json(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": arr.ravel().tolist()}


def _array_from_json(doc: dict) -> np.ndarray:
    return np.asarray(doc["data"], dtype=np.float64).reshape(doc["shape"])


def _encoder_to_json(params: enc.EncoderParams) -> dict:
    return asdict(params.map(_array_to_json))


def _encoder_from_json(doc: dict) -> enc.EncoderParams:
    return enc.EncoderParams(**{**doc, "config": enc.EncoderConfig(**doc["config"]),
                                "blocks": [enc.BlockParams(**b) for b in doc["blocks"]]}
                             ).map(_array_from_json)


def config_from_dict(doc: dict) -> TrainConfig:
    doc = dict(doc)
    doc["head_lr_grid"] = tuple(doc["head_lr_grid"])
    doc["decay_epochs"] = tuple(doc["decay_epochs"])
    return TrainConfig(**doc)


def checkpoint_to_dict(ckpt: Checkpoint) -> dict:
    table = ckpt.global_features
    return {
        "schema_version": ckpt.schema_version,
        "mode": ckpt.mode,
        "seed": ckpt.seed,
        "config": asdict(ckpt.config),
        "encoder": _encoder_to_json(ckpt.encoder),
        "heads": asdict(ckpt.heads.map(_array_to_json)),
        "init_encoder": _encoder_to_json(ckpt.init_encoder),
        "global_features": None if table is None else {
            "pool": table.pool,
            "source": table.source,
            "features": {vid: arr.tolist() for vid, arr in sorted(table.features.items())},
        },
        "selection": asdict(ckpt.selection),
        "checkpoint_id": ckpt.checkpoint_id,
    }


def checkpoint_from_dict(doc: dict) -> Checkpoint:
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint root must be an object")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint schema_version {doc.get('schema_version')!r}")
    try:
        heads = HeadParams(**doc["heads"]).map(_array_from_json)
        gf = doc["global_features"]
        table = None
        if gf is not None:
            table = GlobalFeatureTable(
                {vid: np.asarray(v, dtype=np.float64) for vid, v in gf["features"].items()},
                gf["pool"], gf["source"])
        sel = doc["selection"]
        selection = SelectionRecord(**{**sel, "rows": [TrainLogRow(**r) for r in sel["rows"]]})
        ckpt = Checkpoint(
            mode=doc["mode"],
            config=config_from_dict(doc["config"]),
            encoder=_encoder_from_json(doc["encoder"]),
            heads=heads,
            init_encoder=_encoder_from_json(doc["init_encoder"]),
            global_features=table,
            selection=selection,
            seed=doc["seed"],
            schema_version=doc["schema_version"],
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if doc.get("checkpoint_id") != ckpt.checkpoint_id:
        raise CheckpointError("checkpoint_id mismatch (file corrupt or edited)")
    return ckpt


def save_checkpoint(ckpt: Checkpoint, path, invocation: str | None = None) -> None:
    """``invocation`` goes under the reserved "__invocation__" key, which readers skip."""
    doc = checkpoint_to_dict(ckpt)
    if invocation is not None:
        doc["__invocation__"] = invocation
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not valid JSON ({exc.msg} at line {exc.lineno})") from exc
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    try:
        return checkpoint_from_dict(doc)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def write_train_log(rows: list[TrainLogRow], path, header_comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("epoch\thead_lr\tmean_train_loss\taction_acc\tregion_acc\tlr_multiplier\n")
        for r in rows:
            region = "n/a" if r.region_acc is None else repr(r.region_acc)
            fh.write(f"{r.epoch}\t{r.head_lr!r}\t{r.mean_train_loss!r}\t{r.action_acc!r}\t"
                     f"{region}\t{r.lr_multiplier!r}\n")
