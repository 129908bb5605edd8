"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small. A ``Tape`` records every primitive applied
to tensors created on it, in execution order, so the record list is already
topologically sorted; ``Tape.backward`` walks it once in reverse and returns
a gradient for every leaf that asked for one. Only the primitives needed by
the clip encoder and the two-head loss are provided, all in 64-bit floats.

The model ops work over a leading batch axis, and a batch of one is the
per-sample case. An op whose inputs all have requires_grad false keeps no
backward record, so a tape built from such leaves is a plain numpy forward
pass; that is how the encoder's inference path runs.

A tape and the tensors living on it belong to a single thread. Independent
tapes can run concurrently; parameter value arrays are plain ndarrays and can
be shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested primitive."""


class Tensor:
    """A node on a tape: a float64 ndarray plus grad bookkeeping."""

    __slots__ = ("data", "requires_grad", "tape", "node_id")

    def __init__(self, data, requires_grad, tape, node_id):
        self.data = data
        self.requires_grad = requires_grad
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}, id={self.node_id})"


class Tape:
    """Ordered record of primitive ops; gradients accumulate per node id."""

    def __init__(self):
        self._records = []  # (out_id, requires_grad, backward closure)
        self._leaves = []
        self._num_nodes = 0

    def tensor(self, data, requires_grad: bool = False) -> Tensor:
        """Create a leaf over ``data`` as float64, without a copy if it already is.

        No op writes into a leaf's array, so a leaf may share it with the
        caller; the caller must not change it while the tape is in use.
        """
        arr = np.asarray(data, dtype=np.float64)
        t = self._node(arr, requires_grad)
        self._leaves.append(t)
        return t

    def _node(self, arr, requires_grad):
        t = Tensor(arr, requires_grad, self, self._num_nodes)
        self._num_nodes += 1
        return t

    def _record(self, out: Tensor, backward) -> None:
        if out.requires_grad:
            self._records.append((out.node_id, backward))

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Reverse sweep from a scalar loss.

        Returns a map node_id -> gradient array covering every requires_grad
        leaf on this tape; leaves the loss does not reach get exact zeros.
        """
        if loss.tape is not self:
            raise ValueError("loss tensor does not live on this tape")
        if loss.data.shape != ():
            raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        grads: dict[int, np.ndarray] = {loss.node_id: np.ones((), dtype=np.float64)}

        def accumulate(t: Tensor, g: np.ndarray) -> None:
            if not t.requires_grad:
                return
            acc = grads.get(t.node_id)
            if acc is None:
                # own a copy: closures may hand the same array to several inputs
                grads[t.node_id] = np.array(g, dtype=np.float64)
            else:
                acc += g

        for out_id, backward_fn in reversed(self._records):
            g = grads.get(out_id)
            if g is not None:
                backward_fn(g, accumulate)

        out = {}
        for leaf in self._leaves:
            if leaf.requires_grad:
                g = grads.get(leaf.node_id)
                out[leaf.node_id] = g if g is not None else np.zeros_like(leaf.data)
        return out


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


def reshape_slice(x: Tensor, start: int, shape: tuple[int, ...]) -> Tensor:
    """View a window of a flat vector as an array of the given shape."""
    tape = x.tape
    if x.data.ndim != 1:
        raise ShapeError(f"reshape_slice: expected a flat vector, got {x.data.shape}")
    size = int(np.prod(shape)) if shape else 1
    if start < 0 or start + size > x.data.shape[0]:
        raise ShapeError(f"reshape_slice: window [{start}, {start + size}) exceeds "
                         f"vector of length {x.data.shape[0]}")
    out = tape._node(x.data[start:start + size].reshape(shape).copy(), x.requires_grad)

    def backward(g, accumulate):
        full = np.zeros_like(x.data)
        full[start:start + size] = g.ravel()
        accumulate(x, full)

    tape._record(out, backward)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of equal-shape tensors."""
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
    out = tape._node(a.data + b.data, a.requires_grad or b.requires_grad)

    def backward(g, accumulate):
        accumulate(a, g)
        accumulate(b, g)

    tape._record(out, backward)
    return out


def relu(x: Tensor) -> Tensor:
    tape = x.tape
    out = tape._node(np.maximum(x.data, 0.0), x.requires_grad)

    def backward(g, accumulate):
        accumulate(x, g * (x.data > 0.0))

    tape._record(out, backward)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis of a plain array (no tape)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a python constant (not differentiated through)."""
    tape = x.tape
    out = tape._node(x.data * factor, x.requires_grad)

    def backward(g, accumulate):
        accumulate(x, g * factor)

    tape._record(out, backward)
    return out


# ---------------------------------------------------------------------------
# batched model ops
#
# Every op takes a leading batch axis, so a training step records a handful of
# nodes whatever its batch size. Activations are time-major, (B, L, d), so each
# layer is one 2-D matmul over all B·L frames. Weight gradients multiply a
# contiguous (d, B·L) gradient copy, and bias and time sums reduce a contiguous
# (B, d, L) copy: the operands a channel-major pass gives numpy, so both round alike.


def _channel_major(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.transpose(0, 2, 1))


def affine_frames(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Per-frame affine over a batch: x (B,L,K) @ w (d,K).T + bias (d,) -> (B,L,d)."""
    tape = _same_tape(x, w, bias)
    if x.data.ndim != 3 or w.data.ndim != 2 or w.data.shape[1] != x.data.shape[2]:
        raise ShapeError(f"affine_frames: incompatible shapes {x.data.shape} x {w.data.shape}")
    if bias.data.shape != (w.data.shape[0],):
        raise ShapeError(f"affine_frames: bias {bias.data.shape} vs d={w.data.shape[0]}")
    batch, length, k = x.data.shape
    x2d = x.data.reshape(batch * length, k)
    out = tape._node((x2d @ w.data.T + bias.data).reshape(batch, length, -1),
                     w.requires_grad or x.requires_grad or bias.requires_grad)

    def backward(g, accumulate):
        g2d = g.reshape(batch * length, -1)
        if w.requires_grad:
            accumulate(w, np.ascontiguousarray(g2d.T) @ x2d)
        if x.requires_grad:
            accumulate(x, (g2d @ w.data).reshape(x.data.shape))
        if bias.requires_grad:
            accumulate(bias, _channel_major(g).sum(axis=(0, 2)))

    tape._record(out, backward)
    return out


def conv1d_same(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Width-3 temporal convolution with zero padding 1; length is preserved.

    x is (B, L, d_in), kernel (d_out, d_in, 3), bias (d_out,); out (B, L, d_out).
    Each frame's row of the (B·L, 3·d_in) window matrix holds its previous,
    own and next frame (zeros past the clip ends), so the convolution is one
    product with the flattened kernel.
    """
    tape = _same_tape(x, kernel, bias)
    if kernel.data.ndim != 3 or kernel.data.shape[2] != 3:
        raise ShapeError(f"conv1d_same: kernel must be (d_out,d_in,3), got "
                         f"{kernel.data.shape}")
    d_out, d_in, _ = kernel.data.shape
    if x.data.ndim != 3 or x.data.shape[2] != d_in:
        raise ShapeError(f"conv1d_same: input {x.data.shape} vs kernel {kernel.data.shape}")
    batch, length, _ = x.data.shape
    windows = np.zeros((batch, length, 3 * d_in))
    windows[:, 1:, :d_in] = x.data[:, :-1]
    windows[:, :, d_in:2 * d_in] = x.data
    windows[:, :-1, 2 * d_in:] = x.data[:, 1:]
    windows = windows.reshape(batch * length, 3 * d_in)
    kernel_flat = kernel.data.transpose(0, 2, 1).reshape(d_out, 3 * d_in)
    out = tape._node((windows @ kernel_flat.T + bias.data).reshape(batch, length, d_out),
                     x.requires_grad or kernel.requires_grad or bias.requires_grad)

    def backward(g, accumulate):
        g2d = g.reshape(batch * length, d_out)
        if kernel.requires_grad:
            gk = np.ascontiguousarray(g2d.T) @ windows
            accumulate(kernel, gk.reshape(d_out, 3, d_in).transpose(0, 2, 1))
        if bias.requires_grad:
            accumulate(bias, _channel_major(g).sum(axis=(0, 2)))
        if x.requires_grad:
            g_windows = (g2d @ kernel_flat).reshape(batch, length, 3 * d_in)
            gx = np.zeros_like(x.data)  # summed in window order, from zero
            gx[:, :-1] += g_windows[:, 1:, :d_in]
            gx += g_windows[:, :, d_in:2 * d_in]
            gx[:, 1:] += g_windows[:, :-1, 2 * d_in:]
            accumulate(x, gx)

    tape._record(out, backward)
    return out


def mean_over_time(x: Tensor) -> Tensor:
    """(B,L,d) -> (B,d) time average."""
    tape = x.tape
    if x.data.ndim != 3 or x.data.shape[1] < 1:
        raise ShapeError(f"mean_over_time: expected (B,L,d) with L >= 1, got {x.data.shape}")
    length = x.data.shape[1]
    out = tape._node(_channel_major(x.data).mean(axis=2), x.requires_grad)

    def backward(g, accumulate):
        accumulate(x, np.repeat(g[:, None, :] / length, length, axis=1))

    tape._record(out, backward)
    return out


def hstack_rows(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate row-wise: (B,p) ++ (B,q) -> (B,p+q)."""
    tape = _same_tape(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"hstack_rows: incompatible shapes {a.data.shape} and {b.data.shape}")
    p = a.data.shape[1]
    out = tape._node(np.concatenate([a.data, b.data], axis=1),
                     a.requires_grad or b.requires_grad)

    def backward(g, accumulate):
        if a.requires_grad:
            accumulate(a, g[:, :p])
        if b.requires_grad:
            accumulate(b, g[:, p:])

    tape._record(out, backward)
    return out


def linear_rows(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Row-wise affine: x (B,F) @ w (F,C) + bias (C,)."""
    tape = _same_tape(x, w, bias)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear_rows: incompatible shapes {x.data.shape} x {w.data.shape}")
    if bias.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear_rows: bias {bias.data.shape} vs C={w.data.shape[1]}")
    out = tape._node(x.data @ w.data + bias.data,
                     x.requires_grad or w.requires_grad or bias.requires_grad)

    def backward(g, accumulate):
        if x.requires_grad:
            accumulate(x, g @ w.data.T)
        if w.requires_grad:
            accumulate(w, x.data.T @ g)
        if bias.requires_grad:
            accumulate(bias, g.sum(axis=0))

    tape._record(out, backward)
    return out


def take_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of a (B,F) tensor; gradient scatter-adds back."""
    tape = x.tape
    if x.data.ndim != 2:
        raise ShapeError(f"take_rows: expected (B,F), got {x.data.shape}")
    idx = np.asarray(indices, dtype=int)
    out = tape._node(x.data[idx], x.requires_grad)

    def backward(g, accumulate):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        accumulate(x, full)

    tape._record(out, backward)
    return out


def cross_entropy_sum(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Sum of per-row softmax cross entropies for (B,K) logits."""
    tape = logits.tape
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_sum: expected (B,K), got {logits.data.shape}")
    labels = np.asarray(labels, dtype=int)
    batch, k = logits.data.shape
    if labels.shape != (batch,) or (batch and (labels.min() < 0 or labels.max() >= k)):
        raise ValueError(f"labels must be {batch} indices below {k}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1)
    probs = exps / sums[:, None]
    values = np.log(sums) - shifted[np.arange(batch), labels]
    out = tape._node(np.float64(values.sum()), logits.requires_grad)

    def backward(g, accumulate):
        grad = probs.copy()
        grad[np.arange(batch), labels] -= 1.0
        accumulate(logits, g * grad)

    tape._record(out, backward)
    return out


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_err: float
    h: float
    coords_checked: int
    worst_coord: int


def gradient_check(build, x0: np.ndarray, coords: int = 100, h: float = 1e-6,
                   seed: int = 0) -> GradCheckResult:
    """Compare tape gradients against central finite differences.

    ``build(x)`` must construct a scalar loss from the parameter vector ``x``
    on a fresh tape and return ``(loss, leaf)`` where ``leaf`` is the tape
    tensor holding ``x`` with requires_grad set. ``coords`` coordinates are
    sampled without replacement (all of them if the vector is smaller). The
    caller should pick a probe point away from relu kinks.

    Relative error per coordinate uses max(|analytic|, |numeric|, 1e-3) as
    the denominator, so coordinates whose gradient is far below the working
    scale are compared absolutely instead of amplifying rounding noise.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    loss, leaf = build(x0)
    if not leaf.requires_grad:
        raise ValueError("build must return a requires_grad leaf")
    analytic = loss.tape.backward(loss)[leaf.node_id].ravel()

    rng = np.random.default_rng(seed)
    dim = x0.size
    if coords >= dim:
        picked = np.arange(dim)
    else:
        picked = rng.choice(dim, size=coords, replace=False)

    max_rel = 0.0
    worst = int(picked[0]) if len(picked) else -1
    for j in picked:
        xp = x0.copy()
        xp[j] += h
        xm = x0.copy()
        xm[j] -= h
        numeric = (build(xp)[0].item() - build(xm)[0].item()) / (2.0 * h)
        a = analytic[j]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
        if rel > max_rel:
            max_rel = rel
            worst = int(j)
    return GradCheckResult(max_rel_err=max_rel, h=h, coords_checked=len(picked), worst_coord=worst)
