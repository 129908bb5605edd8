"""Micro clip encoder: per-frame affine stem + residual temporal conv blocks.

The factorized shape mirrors the usual spatial/temporal decomposition at toy
scale: frames are flattened and mixed by one affine layer (the "spatial"
half), then width-3 temporal convolutions exchange information across the
clip, and mean pooling over time yields the clip feature.

There is one forward pass, ``forward_batch``, over a batch of clips on a tape.
Inference runs the same function on a tape whose leaves need no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class BlockParams:
    conv1_kernel: np.ndarray  # (d, d, 3)
    conv1_bias: np.ndarray  # (d,)
    conv2_kernel: np.ndarray
    conv2_bias: np.ndarray


@dataclass
class EncoderParams:
    config: EncoderConfig
    stem_weight: np.ndarray  # (d, frame_dim)
    stem_bias: np.ndarray  # (d,)
    blocks: list[BlockParams] = field(default_factory=list)

    def arrays(self) -> list[np.ndarray]:
        out = [self.stem_weight, self.stem_bias]
        for b in self.blocks:
            out += [b.conv1_kernel, b.conv1_bias, b.conv2_kernel, b.conv2_bias]
        return out

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.config,
            self.stem_weight.copy(),
            self.stem_bias.copy(),
            [BlockParams(b.conv1_kernel.copy(), b.conv1_bias.copy(),
                         b.conv2_kernel.copy(), b.conv2_bias.copy())
             for b in self.blocks],
        )


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


def forward_batch(tape: ad.Tape, leaves: "EncoderLeaves", frames: np.ndarray) -> ad.Tensor:
    """Differentiable forward pass: frames (B, frame_dim, L) -> (B, F) features."""
    if frames.ndim != 3 or frames.shape[1] != leaves.config.frame_dim:
        raise ad.ShapeError(f"encoder expects (B, {leaves.config.frame_dim}, L) frames, "
                            f"got {frames.shape}")
    x = tape.tensor(frames)
    h = ad.relu(ad.stem_affine(leaves.stem_weight, x, leaves.stem_bias))
    for blk in leaves.blocks:
        inner = ad.relu(ad.conv1d_same_batch(h, blk[0], blk[1]))
        inner = ad.conv1d_same_batch(inner, blk[2], blk[3])
        h = ad.relu(ad.add(inner, h))
    return ad.mean_over_time_batch(h)


def forward_np_batch(params: EncoderParams, frames: np.ndarray) -> np.ndarray:
    """Inference forward: ``forward_batch`` on a throwaway tape.

    The leaves need no gradient, so the tape keeps no backward record and the
    result is the differentiable pass's value by construction.
    """
    tape = ad.Tape()
    return forward_batch(tape, EncoderLeaves(tape, params, requires_grad=False), frames).data


def forward_np(params: EncoderParams, frames: np.ndarray) -> np.ndarray:
    """One clip, (frame_dim, L) -> (F,): a batch of one through ``forward_np_batch``.

    The library no longer calls it. It stays because ``perfbench/tracing.py``
    looks this name up, and can go with the next change to the benchmark.
    """
    return forward_np_batch(params, frames[None])[0]


class EncoderLeaves:
    """Encoder parameters registered as requires_grad leaves on one tape."""

    def __init__(self, tape: ad.Tape, params: EncoderParams, requires_grad: bool = True):
        self.config = params.config
        self.stem_weight = tape.tensor(params.stem_weight, requires_grad)
        self.stem_bias = tape.tensor(params.stem_bias, requires_grad)
        self.blocks = [
            (tape.tensor(b.conv1_kernel, requires_grad), tape.tensor(b.conv1_bias, requires_grad),
             tape.tensor(b.conv2_kernel, requires_grad), tape.tensor(b.conv2_bias, requires_grad))
            for b in params.blocks
        ]

    def tensors(self) -> list[ad.Tensor]:
        out = [self.stem_weight, self.stem_bias]
        for blk in self.blocks:
            out.extend(blk)
        return out
