"""Micro clip encoder: per-frame affine stem + residual temporal conv blocks.

The factorized shape mirrors the usual spatial/temporal decomposition at toy
scale: frames are flattened and mixed by one affine layer (the "spatial"
half), then width-3 temporal convolutions exchange information across the
clip, and mean pooling over time yields the clip feature.

There is one forward pass, ``forward_batch``, over a batch of clips on a tape.
Its parameters are an ``EncoderParams`` record whose arrays are tape leaves,
``params.map(lambda a: tape.tensor(a, True))``; inference runs the same
function on a tape whose leaves need no gradient.
Clips are time-major, (B, L, frame_dim): one flattened frame per row, as
``sampler.clip_batch`` gathers them, and every layer is one matmul over all
the batch's frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .seeding import rng_for


@dataclass(frozen=True)
class EncoderConfig:
    channels_in: int = 16
    height: int = 1
    width: int = 1
    embed_dim: int = 64
    blocks: int = 2

    @property
    def frame_dim(self) -> int:
        return self.channels_in * self.height * self.width

    @property
    def feature_dim(self) -> int:
        return self.embed_dim

    def validate(self) -> None:
        if min(self.channels_in, self.height, self.width, self.embed_dim) < 1:
            raise ValueError("encoder dimensions must be positive")
        if self.blocks < 0:
            raise ValueError("blocks must be nonnegative")


class ParamRecord:
    """A dataclass of parameter arrays; everything else derives from ``map``.

    ``map(fn)`` returns the same record with ``fn`` applied to every array, in
    ``arrays()`` order. Tape leaves are ``map(lambda a: tape.tensor(a, True))``,
    a copy is ``map(np.copy)``, and a checkpoint stores the record with each
    array mapped to its JSON form. By default every field is an array.
    """

    def map(self, fn):
        return type(self)(*[fn(getattr(self, f.name)) for f in fields(self)])

    def arrays(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        self.map(out.append)
        return out

    def copy(self):
        return self.map(np.copy)


@dataclass
class BlockParams(ParamRecord):
    conv1_kernel: np.ndarray  # (d, d, 3)
    conv1_bias: np.ndarray  # (d,)
    conv2_kernel: np.ndarray
    conv2_bias: np.ndarray


@dataclass
class EncoderParams(ParamRecord):
    config: EncoderConfig
    stem_weight: np.ndarray  # (d, frame_dim)
    stem_bias: np.ndarray  # (d,)
    blocks: list[BlockParams] = field(default_factory=list)

    def map(self, fn) -> "EncoderParams":
        return EncoderParams(self.config, fn(self.stem_weight), fn(self.stem_bias),
                             [b.map(fn) for b in self.blocks])


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """He-scaled normal weights, zero biases, deterministic per seed."""
    config.validate()
    d = config.embed_dim
    rng = rng_for(seed, "encoder-init")
    stem_w = rng.standard_normal((d, config.frame_dim)) * np.sqrt(2.0 / config.frame_dim)
    blocks = []
    conv_std = np.sqrt(2.0 / (d * 3))
    for _ in range(config.blocks):
        blocks.append(BlockParams(
            conv1_kernel=rng.standard_normal((d, d, 3)) * conv_std,
            conv1_bias=np.zeros(d),
            conv2_kernel=rng.standard_normal((d, d, 3)) * conv_std,
            conv2_bias=np.zeros(d),
        ))
    return EncoderParams(config, stem_w, np.zeros(d), blocks)


def param_count(config: EncoderConfig) -> int:
    d = config.embed_dim
    stem = d * config.frame_dim + d
    per_block = 2 * (d * d * 3 + d)
    return stem + config.blocks * per_block


def forward_batch(tape: ad.Tape, leaves: EncoderParams, frames: np.ndarray) -> ad.Tensor:
    """Differentiable forward pass: frames (B, L, frame_dim) -> (B, F) features.

    ``leaves`` is an ``EncoderParams`` whose arrays are tensors on ``tape``.
    """
    if frames.ndim != 3 or frames.shape[2] != leaves.config.frame_dim:
        raise ad.ShapeError(f"encoder expects (B, L, {leaves.config.frame_dim}) frames, "
                            f"got {frames.shape}")
    x = tape.tensor(frames)
    h = ad.relu(ad.affine_frames(x, leaves.stem_weight, leaves.stem_bias))
    for blk in leaves.blocks:
        inner = ad.relu(ad.conv1d_same(h, blk.conv1_kernel, blk.conv1_bias))
        inner = ad.conv1d_same(inner, blk.conv2_kernel, blk.conv2_bias)
        h = ad.relu(ad.add(inner, h))
    return ad.mean_over_time(h)


def forward_np_batch(params: EncoderParams, frames: np.ndarray) -> np.ndarray:
    """Inference forward: ``forward_batch`` on a throwaway tape.

    The leaves need no gradient, so the tape keeps no backward record and the
    result is the differentiable pass's value by construction.
    """
    tape = ad.Tape()
    return forward_batch(tape, params.map(tape.tensor), frames).data


def forward_np(params: EncoderParams, frames: np.ndarray) -> np.ndarray:
    """One clip, (frame_dim, L) -> (F,): a batch of one through ``forward_np_batch``.

    The library no longer calls it. It stays because ``perfbench/tracing.py``
    looks this name up, and can go with the next change to the benchmark.
    """
    return forward_np_batch(params, frames.T[None])[0]

