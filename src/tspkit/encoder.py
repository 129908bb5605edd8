"""Micro clip encoder: per-frame affine stem + residual temporal conv blocks.

The factorized shape mirrors the usual spatial/temporal decomposition at toy
scale: frames are flattened and mixed by one affine layer (the "spatial"
half), then width-3 temporal convolutions exchange information across the
clip, and mean pooling over time yields the clip feature.

There is one forward pass, ``forward_batch``, over a batch of clips. Its
parameters are an ``EncoderParams`` record, whose arrays are views of one
flat buffer. Given a tape, it records its backward, the first of a training
step's two ops (the second is ``pretrain.batch_loss_tensor``'s two-head
loss); inference passes none and keeps no activation. Clips are time-major,
(B, L, frame_dim): one flattened frame per row, as a ``take`` of
``sampler.clip_rows`` from a split's frame store gathers them.

Each layer is one matmul over all the batch's frames; a temporal conv
multiplies a window matrix holding each frame's previous, own and next
frame. The hand-derived backward repeats the numpy operations of the
primitive ops it replaced (affine, conv, ReLU, residual add, time mean), on
the same operand layouts, and writes each array's gradient into its view of
one flat gradient, so features and gradients are bitwise those of the
primitive composition in ``tests/reference_tape.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .seeding import rng_for


class ShapeError(ValueError):
    """Frames whose shape does not fit the encoder's configuration."""


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

    def __post_init__(self):
        if min(self.channels_in, self.height, self.width, self.embed_dim) < 1:
            raise ValueError("encoder dimensions must be positive")
        if self.blocks < 0:
            raise ValueError("blocks must be nonnegative")


class ParamRecord:
    """A dataclass of parameter arrays laid end to end in one float64 buffer.

    ``flat`` is the buffer and each array field is a view into it, in
    ``arrays()`` order: the record's own arrays in field order, then those of
    its sub-records. Constructing a record copies its arrays into a new
    buffer; ``view(buffer)`` lays the same shapes over another one without a
    copy, so ``copy()`` is one ``np.copy`` and a gradient or an update is one
    vector over the whole record. A training step's sweep returns one flat
    gradient per record, and a checkpoint stores the views by field name.
    """

    def __post_init__(self):
        layout, offset = [], 0  # (name, start, stop, shape) of each own array, in order
        for name in self._array_fields():
            shape = np.shape(getattr(self, name))
            size = math.prod(shape)
            layout.append((name, offset, offset + size, shape))
            offset += size
        self._layout = tuple(layout)
        self._bind(np.concatenate([np.asarray(a, dtype=np.float64).ravel()
                                   for a in self.arrays()]))

    def _array_fields(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self))

    def _bind(self, flat: np.ndarray) -> int:
        """Make each array a view of ``flat`` at its place; the entries used."""
        self.flat = flat
        stop = 0
        for name, start, stop, shape in self._layout:
            view = flat[start:stop]
            setattr(self, name, view if len(shape) == 1 else view.reshape(shape))
        return stop

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self._array_fields()]

    def view(self, flat: np.ndarray):
        """A record of this one's shapes whose arrays are views of ``flat``."""
        record = object.__new__(type(self))
        record.__dict__.update(self.__dict__)
        record._bind(flat)
        return record

    def copy(self):
        return self.view(self.flat.copy())

    def __reduce__(self):  # pickled as its fields; unpickling packs a new buffer
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


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

    def _array_fields(self) -> tuple[str, ...]:
        return ("stem_weight", "stem_bias")

    def _bind(self, flat: np.ndarray) -> int:
        offset = super()._bind(flat)
        blocks = []
        for blk in self.blocks:
            blocks.append(blk.view(flat[offset:offset + blk.flat.size]))
            offset += blk.flat.size
        self.blocks = blocks
        return offset

    def arrays(self) -> list[np.ndarray]:
        return super().arrays() + [a for blk in self.blocks for a in blk.arrays()]


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """He-scaled normal weights, zero biases, deterministic per seed."""
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


# Bias and time sums reduce a contiguous (B, d, L) copy, and weight gradients
# multiply a contiguous (d, B·L) gradient copy: the operands the channel-major
# encoder gave numpy, so both round as the golden digests in the tests pin.
def _channel_major(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.transpose(0, 2, 1))


def _windows(x: np.ndarray) -> np.ndarray:
    """(B, L, d) -> (B·L, 3d): each frame's previous, own and next frame, zero past the ends."""
    batch, length, d = x.shape
    windows = np.empty((batch, length, 3 * d))
    windows[:, :1, :d] = 0.0
    windows[:, 1:, :d] = x[:, :-1]
    windows[:, :, d:2 * d] = x
    windows[:, :-1, 2 * d:] = x[:, 1:]
    windows[:, -1:, 2 * d:] = 0.0
    return windows.reshape(batch * length, 3 * d)


def _unwindow(g_windows: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """The (B, L, d) gradient of ``_windows``' input, summed from zero in window order."""
    batch, length, d = shape
    g_windows = g_windows.reshape(batch, length, 3 * d)
    gx = np.zeros(shape)
    gx[:, :-1] += g_windows[:, 1:, :d]
    gx += g_windows[:, :, d:2 * d]
    gx[:, 1:] += g_windows[:, :-1, 2 * d:]
    return gx


def _flat_kernel(kernel: np.ndarray) -> np.ndarray:
    """(d_out, d_in, 3) -> (d_out, 3·d_in), matching ``_windows``' column order."""
    d_out, d_in, _ = kernel.shape
    return kernel.transpose(0, 2, 1).reshape(d_out, 3 * d_in)


def _kernel_grad(g2d: np.ndarray, windows: np.ndarray) -> np.ndarray:
    d_out = g2d.shape[1]
    gk = np.ascontiguousarray(g2d.T) @ windows
    return gk.reshape(d_out, 3, -1).transpose(0, 2, 1)


def forward_batch(params: EncoderParams, frames: np.ndarray,
                  tape: ad.Tape | None = None) -> np.ndarray:
    """Forward pass: frames (B, L, frame_dim) -> (B, F) features.

    With a ``tape``, it records a backward from the features' gradient to
    ``(None, the gradient of params.flat)``. Each ReLU overwrites its input,
    and its output's sign gives the backward mask the input's would. The
    backward runs the primitive ops' numpy operations in reverse order and
    writes each array's gradient into its view of one flat gradient buffer.
    """
    config = params.config
    if frames.ndim != 3 or frames.shape[2] != config.frame_dim:
        raise ShapeError(f"encoder expects (B, L, {config.frame_dim}) frames, "
                         f"got {frames.shape}")
    batch, length, _ = frames.shape
    shape = (batch, length, config.embed_dim)
    x2d = np.asarray(frames, dtype=np.float64).reshape(batch * length, -1)
    h = x2d @ params.stem_weight.T
    h += params.stem_bias
    np.maximum(h, 0.0, out=h)
    stem_out = h = h.reshape(shape)
    saved = []  # per block, for a backward: both window matrices and flat kernels, both ReLU outputs
    for blk in params.blocks:
        windows1, kernel1 = _windows(h), _flat_kernel(blk.conv1_kernel)
        inner = windows1 @ kernel1.T
        if tape is None:  # inference frees it before the next window matrix
            windows1 = None
        inner += blk.conv1_bias
        np.maximum(inner, 0.0, out=inner)
        inner = inner.reshape(shape)
        windows2, kernel2 = _windows(inner), _flat_kernel(blk.conv2_kernel)
        out = windows2 @ kernel2.T
        out += blk.conv2_bias
        out = out.reshape(shape)
        out += h
        np.maximum(out, 0.0, out=out)
        if tape is not None:
            saved.append((windows1, kernel1, inner, windows2, kernel2, out))
        h = out

    def backward(g):
        grad = params.view(np.empty_like(params.flat))  # every view is written below
        gh = g[:, None, :] / length  # (B, 1, d): the products below broadcast it over time
        for blk, (windows1, kernel1, inner, windows2, kernel2, out) in zip(
                reversed(grad.blocks), reversed(saved)):
            g_sum = gh * (out > 0.0)
            g2d = g_sum.reshape(batch * length, -1)
            blk.conv2_kernel[...] = _kernel_grad(g2d, windows2)
            blk.conv2_bias[...] = _channel_major(g_sum).sum(axis=(0, 2))
            g_inner = _unwindow(g2d @ kernel2, shape) * (inner > 0.0)
            g2d = g_inner.reshape(batch * length, -1)
            blk.conv1_kernel[...] = _kernel_grad(g2d, windows1)
            blk.conv1_bias[...] = _channel_major(g_inner).sum(axis=(0, 2))
            gh = g_sum + _unwindow(g2d @ kernel1, shape)  # residual path plus conv path
        g_stem = gh * (stem_out > 0.0)
        g2d = g_stem.reshape(batch * length, -1)
        grad.stem_weight[...] = np.ascontiguousarray(g2d.T) @ x2d
        grad.stem_bias[...] = _channel_major(g_stem).sum(axis=(0, 2))
        return None, grad.flat

    if tape is not None:
        tape.record(backward)
    return _channel_major(h).mean(axis=2)


def forward_np_batch(params: EncoderParams, frames: np.ndarray) -> np.ndarray:
    """Inference forward: ``forward_batch`` without a tape. Validation, GVF and
    extraction call it, so the benchmark's tracer times them apart from training."""
    return forward_batch(params, frames)


def forward_np(params: EncoderParams, frames: np.ndarray) -> np.ndarray:
    """One clip, (frame_dim, L) -> (F,): a batch of one through ``forward_np_batch``.

    The library no longer calls it. It stays because ``perfbench/tracing.py``
    looks this name up, and can go with the next change to the benchmark.
    """
    return forward_np_batch(params, frames.T[None])[0]
