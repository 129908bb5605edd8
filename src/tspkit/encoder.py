"""Micro clip encoder: per-frame affine stem + residual temporal conv blocks.

The factorized shape mirrors the usual spatial/temporal decomposition at toy
scale: frames are flattened and mixed by one affine layer (the "spatial"
half), then width-3 temporal convolutions exchange information across the
clip, and mean pooling over time yields the clip feature.

There is one forward pass, ``forward_batch``, over a batch of clips. Its
parameters are an ``EncoderParams`` record, whose arrays are views of one
flat buffer: the stem's weight and bias, then each conv's kernel and bias
with every block's stacked on a leading axis, so a record has the same six
arrays at any depth and nothing else: their shapes give the width, the
frame size and the depth. Given a tape, it records its backward, the first of
a training step's two ops (the second is ``pretrain.batch_loss_tensor``'s
two-head loss); inference passes none and keeps no activation. Clips are
time-major, (B, L, frame_dim): one flattened frame per row, as a ``take`` of
a ``sampler.ClipSet``'s rows from a split's frame store gathers them.

Each forward product is stacked per clip, (B, L, K) @ (K, d), so a clip's
feature is the same bits in any batch. A temporal conv multiplies a window
matrix (each frame's previous, own and next frame) by the kernel's stacked
taps. The backward multiplies over all B·L frames at once: a weight gradient
is one product of a layer's inputs and output gradient, a bias gradient
``ones(B·L) @`` the latter, and a conv's input gradient its output gradient's
window matrix times the taps in reverse order. Features and gradients are
bitwise those of ``tests/reference_tape.py``, whose primitive ops use the
same numpy operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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

    def __post_init__(self):
        if min(self.channels_in, self.height, self.width, self.embed_dim) < 1:
            raise ValueError("encoder dimensions must be positive")
        if self.blocks < 0:
            raise ValueError("blocks must be nonnegative")


class ParamRecord:
    """A dataclass of parameter arrays laid end to end in one float64 buffer.

    Every field is an array. ``flat`` is the buffer and each field is a view
    into it, in field order, which is ``arrays()`` order. Constructing a
    record copies its arrays into a new buffer; ``view(buffer)`` lays the same
    shapes over another one without a copy, so ``copy()`` is one ``np.copy``
    and a gradient or an update is one vector over the whole record. A
    training step's sweep returns one flat gradient per record, and a
    checkpoint stores the views by field name.
    """

    def __post_init__(self):
        layout, offset = [], 0  # (name, start, stop, shape) of each array, in order
        for f in fields(self):
            shape = np.shape(getattr(self, f.name))
            size = math.prod(shape)
            layout.append((f.name, offset, offset + size, shape))
            offset += size
        self._layout = tuple(layout)
        self._bind(np.concatenate([np.asarray(a, dtype=np.float64).ravel()
                                   for a in self.arrays()]))

    def _bind(self, flat: np.ndarray) -> None:
        """Make each array a view of ``flat`` at its place."""
        self.flat = flat
        for name, start, stop, shape in self._layout:
            view = flat[start:stop]
            setattr(self, name, view if len(shape) == 1 else view.reshape(shape))

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name, *_ in self._layout]

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
class EncoderParams(ParamRecord):
    """The stem, then each conv array of every block stacked on a leading
    block axis (row ``i`` is block ``i``'s), and no field but these arrays."""
    stem_weight: np.ndarray  # (d, frame_dim)
    stem_bias: np.ndarray  # (d,)
    conv1_kernel: np.ndarray  # (blocks, d, d, 3)
    conv1_bias: np.ndarray  # (blocks, d)
    conv2_kernel: np.ndarray  # (blocks, d, d, 3)
    conv2_bias: np.ndarray  # (blocks, d)


def param_shapes(config: EncoderConfig) -> list[tuple[int, ...]]:
    """The shape of each ``EncoderParams`` array under ``config``, in ``arrays()`` order."""
    d, blocks = config.embed_dim, config.blocks
    return [(d, config.frame_dim), (d,), (blocks, d, d, 3), (blocks, d),
            (blocks, d, d, 3), (blocks, d)]


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """He-scaled normal weights, zero biases, deterministic per seed. The
    kernels are drawn block by block, each block's conv1 before its conv2."""
    d = config.embed_dim
    rng = rng_for(seed, "encoder-init")
    stem_w = rng.standard_normal((d, config.frame_dim)) * np.sqrt(2.0 / config.frame_dim)
    kernels = rng.standard_normal((config.blocks, 2, d, d, 3)) * np.sqrt(2.0 / (d * 3))
    biases = np.zeros((config.blocks, d))
    return EncoderParams(stem_w, np.zeros(d), kernels[:, 0], biases,
                         kernels[:, 1], biases)


def param_count(config: EncoderConfig) -> int:
    return sum(math.prod(shape) for shape in param_shapes(config))


def _windows(x: np.ndarray) -> np.ndarray:
    """(B, L, d) -> (B, L, 3d): each frame's previous, own and next frame, zero past the ends."""
    batch, length, d = x.shape
    windows = np.empty((batch, length, 3 * d))
    windows[:, :1, :d] = 0.0
    windows[:, 1:, :d] = x[:, :-1]
    windows[:, :, d:2 * d] = x
    windows[:, :-1, 2 * d:] = x[:, 1:]
    windows[:, -1:, 2 * d:] = 0.0
    return windows


def _taps(kernel: np.ndarray) -> np.ndarray:
    """(d_out, d_in, 3) -> (3·d_in, d_out): the previous, own and next taps,
    each transposed, matching ``_windows``' column order. The kernel's
    gradient is the same stack, written back through ``kernel.T``."""
    return kernel.T.reshape(-1, kernel.shape[0])


def _reversed_taps(kernel: np.ndarray) -> np.ndarray:
    """(d_out, d_in, 3) -> (3·d_out, d_in): the next, own and previous taps. A
    frame's input gradient gathers the output gradients of the frames before,
    at and after it, so ``_windows(g) @ _reversed_taps(kernel)`` is it."""
    return kernel[:, :, ::-1].transpose(2, 0, 1).reshape(-1, kernel.shape[1])


def forward_batch(params: EncoderParams, frames: np.ndarray,
                  tape: ad.Tape | None = None) -> np.ndarray:
    """Forward pass: frames (B, L, frame_dim) -> (B, F) features.

    Each product is a stacked (B, L, K) @ (K, d) matmul, one product per clip,
    so a clip's feature is the same bits in any batch. With a ``tape``, it
    records a backward from the features' gradient to ``(None, the gradient
    of params.flat)``. Each ReLU overwrites its input, and its output's sign
    gives the backward mask the input's would. The backward writes each
    array's gradient into its view of one flat gradient buffer.
    """
    d, frame_dim = params.stem_weight.shape
    if frames.ndim != 3 or frames.shape[2] != frame_dim:
        raise ShapeError(f"encoder expects (B, L, {frame_dim}) frames, "
                         f"got {frames.shape}")
    batch, length, _ = frames.shape
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    h = frames @ np.ascontiguousarray(params.stem_weight.T)
    h += params.stem_bias
    stem_out = h = np.maximum(h, 0.0, out=h)
    saved = []  # per block, for a backward: both window matrices, both ReLU outputs
    for kernel1, bias1, kernel2, bias2 in zip(params.conv1_kernel, params.conv1_bias,
                                              params.conv2_kernel, params.conv2_bias):
        windows1 = _windows(h)
        inner = windows1 @ _taps(kernel1)
        if tape is None:  # inference frees it before the next window matrix
            windows1 = None
        inner += bias1
        np.maximum(inner, 0.0, out=inner)
        windows2 = _windows(inner)
        out = windows2 @ _taps(kernel2)
        out += bias2
        out += h
        np.maximum(out, 0.0, out=out)
        if tape is not None:
            saved.append((windows1, inner, windows2, out))
        h = out

    def backward(g):
        grad = params.view(np.empty_like(params.flat))  # every view is written below
        rows = batch * length
        ones = np.ones(rows)  # each bias gradient is one (B·L) @ (B·L, d) product

        def conv_grads(g_out, windows, kernel, grad_kernel, grad_bias):
            """Write a conv's kernel and bias gradients; return its input's."""
            g2d = g_out.reshape(rows, d)
            grad_kernel.T[...] = (windows.reshape(rows, -1).T @ g2d).reshape(3, d, d)
            grad_bias[...] = ones @ g2d
            g_in = _windows(g_out).reshape(rows, -1) @ _reversed_taps(kernel)
            return g_in.reshape(g_out.shape)

        gh = g[:, None, :] / length  # (B, 1, d): the mask below broadcasts it over time
        for i in reversed(range(len(saved))):  # row i of each stacked array is block i's
            windows1, inner, windows2, out = saved[i]
            g_sum = gh * (out > 0.0)
            g_inner = conv_grads(g_sum, windows2, params.conv2_kernel[i], grad.conv2_kernel[i],
                                 grad.conv2_bias[i])
            g_inner *= inner > 0.0
            gh = g_sum + conv_grads(g_inner, windows1, params.conv1_kernel[i],
                                    grad.conv1_kernel[i], grad.conv1_bias[i])
        g2d = (gh * (stem_out > 0.0)).reshape(rows, d)
        grad.stem_weight[...] = g2d.T @ frames.reshape(rows, -1)
        grad.stem_bias[...] = ones @ g2d
        return None, grad.flat

    if tape is not None:
        tape.record(backward)
    # the mean reduces a contiguous (B, d, L) copy, which numpy sums pairwise, so
    # a time-constant 16-frame clip's feature is its frames' activation exactly
    return np.ascontiguousarray(h.transpose(0, 2, 1)).mean(axis=2)


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
