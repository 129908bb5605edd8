"""The primitive-op tape: bit-exact reference for the encoder and loss ops.

``Tape`` is a general reverse-mode engine. It records each op applied to
tensors created on it, in execution order, so the record list is already
topologically sorted; ``Tape.backward`` walks it once in reverse and returns
a gradient for every leaf that asked for one. An op is ``Tape.apply``: a
value computed in numpy, the tensors it was computed from, and a
hand-derived backward that hands each input its gradient. An op none of
whose inputs requires grad keeps no backward record.

Each op below is one ``Tape.apply`` node, as the library's ops were before a
training step became two fused ops. Composed by ``forward_batch`` and
``batch_loss_tensor`` below, they give the loss value and gradients that
``encoder.forward_batch`` and ``pretrain.batch_loss_tensor`` must reproduce
byte for byte, and the finite-difference checks in ``test_autodiff`` pin the
ops themselves.

The library's backward returns one flat gradient per parameter record; the
reference keeps one leaf per array (``array_leaves``), and one per block row
of each of the encoder's stacked block arrays (``leaf_arrays``), so its
gradients are in the record's buffer order: laid end to end they are the
flat gradient the library's ops write.

Activations are time-major, (B, L, d). Each forward product is a stacked
(B, L, K) @ (K, d) matmul, one product per clip. A weight gradient is one
product of the (B·L, d) gradient and the (B·L, K) inputs, one of them a
transposed view; a bias gradient is ``ones(B·L) @`` the gradient; the time
mean reduces a contiguous (B, d, L) copy.
"""

import numpy as np

from tspkit import encoder as enc
from tspkit.encoder import ShapeError


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
    """Ordered record of ops; gradients accumulate per node id."""

    def __init__(self):
        self._records = []  # (out_id, backward closure); None once swept
        self._leaves = []
        self._num_nodes = 0

    def tensor(self, data, requires_grad: bool = False) -> Tensor:
        """Create a leaf over ``data`` as float64, without a copy if it already is.

        No op writes into a leaf's array, so a leaf may share it with the
        caller; the caller must not change it while the tape is in use.
        """
        t = self._node(np.asarray(data, dtype=np.float64), requires_grad)
        self._leaves.append(t)
        return t

    def apply(self, value, inputs, backward) -> Tensor:
        """A tensor holding ``value``, computed from the tensors ``inputs``.

        It requires grad if any input does, and only then is
        ``backward(g, accumulate)`` kept: given the output's gradient ``g``, it
        calls ``accumulate(t, grad_t)`` for each input ``t`` the output depends
        on. ``accumulate`` ignores inputs that need no gradient and copies the
        first gradient it receives, so a backward may hand over views.
        """
        for t in inputs:
            if t.tape is not self:
                raise ValueError("operands live on different tapes")
        out = self._node(value, any(t.requires_grad for t in inputs))
        if out.requires_grad:
            self._records.append((out.node_id, backward))
        return out

    def _node(self, arr, requires_grad):
        if self._records is None:
            raise ValueError("this tape was swept by backward; record on a new tape")
        t = Tensor(arr, requires_grad, self, self._num_nodes)
        self._num_nodes += 1
        return t

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Reverse sweep from a scalar loss, once per tape.

        Returns a map node_id -> gradient array covering every requires_grad
        leaf on this tape; leaves the loss does not reach get exact zeros.
        The sweep then releases the records and leaves, and the tape accepts
        no further op or sweep.
        """
        if loss.tape is not self:
            raise ValueError("loss tensor does not live on this tape")
        if self._records is None:
            raise ValueError("this tape was already swept by backward")
        if loss.data.shape != ():
            raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        records, leaves = self._records, self._leaves
        self._records = self._leaves = None
        grads: dict[int, np.ndarray] = {loss.node_id: np.ones((), dtype=np.float64)}

        def accumulate(t: Tensor, g: np.ndarray) -> None:
            if not t.requires_grad:
                return
            acc = grads.get(t.node_id)
            if acc is None:
                # own a copy: a backward may hand the same array to several inputs
                grads[t.node_id] = np.array(g, dtype=np.float64)
            else:
                acc += g

        for out_id, backward_fn in reversed(records):
            g = grads.get(out_id)
            if g is not None:
                backward_fn(g, accumulate)

        out = {}
        for leaf in leaves:
            if leaf.requires_grad:
                g = grads.get(leaf.node_id)
                out[leaf.node_id] = g if g is not None else np.zeros_like(leaf.data)
        return out


def add(a, b):
    """Elementwise sum of equal-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")

    def backward(g, accumulate):
        accumulate(a, g)
        accumulate(b, g)

    return a.tape.apply(a.data + b.data, (a, b), backward)


def relu(x):
    def backward(g, accumulate):
        accumulate(x, g * (x.data > 0.0))

    return x.tape.apply(np.maximum(x.data, 0.0), (x,), backward)


def scale(x, factor):
    """Multiply by a python constant (not differentiated through)."""
    def backward(g, accumulate):
        accumulate(x, g * factor)

    return x.tape.apply(x.data * factor, (x,), backward)


def affine_frames(x, w, bias):
    """Per-frame affine over a batch: x (B,L,K) @ w (d,K).T + bias (d,) -> (B,L,d)."""
    if x.data.ndim != 3 or w.data.ndim != 2 or w.data.shape[1] != x.data.shape[2]:
        raise ShapeError(f"affine_frames: incompatible shapes {x.data.shape} x {w.data.shape}")
    if bias.data.shape != (w.data.shape[0],):
        raise ShapeError(f"affine_frames: bias {bias.data.shape} vs d={w.data.shape[0]}")
    batch, length, k = x.data.shape

    def backward(g, accumulate):
        g2d = g.reshape(batch * length, -1)
        if w.requires_grad:
            accumulate(w, g2d.T @ x.data.reshape(batch * length, k))
        if x.requires_grad:
            accumulate(x, g @ w.data)
        if bias.requires_grad:
            accumulate(bias, np.ones(batch * length) @ g2d)

    return x.tape.apply(x.data @ np.ascontiguousarray(w.data.T) + bias.data, (x, w, bias),
                        backward)


def _windows(x):
    """(B, L, d) -> (B, L, 3d): each frame's previous, own and next frame, zeros past the ends."""
    batch, length, d = x.shape
    windows = np.zeros((batch, length, 3 * d))
    windows[:, 1:, :d] = x[:, :-1]
    windows[:, :, d:2 * d] = x
    windows[:, :-1, 2 * d:] = x[:, 1:]
    return windows


def conv1d_same(x, kernel, bias):
    """Width-3 temporal convolution with zero padding 1; length is preserved.

    x is (B, L, d_in), kernel (d_out, d_in, 3), bias (d_out,); out (B, L, d_out).
    Each frame's row of the (B, L, 3·d_in) window matrix holds its previous,
    own and next frame (zeros past the clip ends), so the convolution is one
    product with the three taps stacked as (3·d_in, d_out). The input
    gradient is the output gradient's window matrix times the taps in
    reverse order, stacked as (3·d_out, d_in).
    """
    if kernel.data.ndim != 3 or kernel.data.shape[2] != 3:
        raise ShapeError(f"conv1d_same: kernel must be (d_out,d_in,3), got "
                         f"{kernel.data.shape}")
    d_out, d_in, _ = kernel.data.shape
    if x.data.ndim != 3 or x.data.shape[2] != d_in:
        raise ShapeError(f"conv1d_same: input {x.data.shape} vs kernel {kernel.data.shape}")
    batch, length, _ = x.data.shape
    windows = _windows(x.data)
    taps = kernel.data.transpose(2, 1, 0).reshape(3 * d_in, d_out)

    def backward(g, accumulate):
        g2d = g.reshape(batch * length, d_out)
        if kernel.requires_grad:
            gk = windows.reshape(batch * length, 3 * d_in).T @ g2d  # (3·d_in, d_out)
            accumulate(kernel, gk.reshape(3, d_in, d_out).T)
        if bias.requires_grad:
            accumulate(bias, np.ones(batch * length) @ g2d)
        if x.requires_grad:
            reversed_taps = kernel.data[:, :, ::-1].transpose(2, 0, 1).reshape(3 * d_out, d_in)
            g_windows = _windows(g).reshape(batch * length, 3 * d_out)
            accumulate(x, (g_windows @ reversed_taps).reshape(x.data.shape))

    return x.tape.apply(windows @ taps + bias.data, (x, kernel, bias), backward)


def mean_over_time(x):
    """(B,L,d) -> (B,d) time average."""
    if x.data.ndim != 3 or x.data.shape[1] < 1:
        raise ShapeError(f"mean_over_time: expected (B,L,d) with L >= 1, got {x.data.shape}")
    length = x.data.shape[1]

    def backward(g, accumulate):
        accumulate(x, np.repeat(g[:, None, :] / length, length, axis=1))

    return x.tape.apply(np.ascontiguousarray(x.data.transpose(0, 2, 1)).mean(axis=2), (x,),
                        backward)


def hstack_rows(a, b):
    """Concatenate row-wise: (B,p) ++ (B,q) -> (B,p+q)."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"hstack_rows: incompatible shapes {a.data.shape} and {b.data.shape}")
    p = a.data.shape[1]

    def backward(g, accumulate):
        accumulate(a, g[:, :p])
        accumulate(b, g[:, p:])

    return a.tape.apply(np.concatenate([a.data, b.data], axis=1), (a, b), backward)


def linear_rows(x, w, bias):
    """Row-wise affine: x (B,F) @ w (F,C) + bias (C,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear_rows: incompatible shapes {x.data.shape} x {w.data.shape}")
    if bias.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear_rows: bias {bias.data.shape} vs C={w.data.shape[1]}")

    def backward(g, accumulate):
        if x.requires_grad:
            accumulate(x, g @ w.data.T)
        if w.requires_grad:
            accumulate(w, x.data.T @ g)
        if bias.requires_grad:
            accumulate(bias, g.sum(axis=0))

    return x.tape.apply(x.data @ w.data + bias.data, (x, w, bias), backward)


def take_rows(x, indices):
    """Gather rows of a (B,F) tensor; gradient scatter-adds back."""
    if x.data.ndim != 2:
        raise ShapeError(f"take_rows: expected (B,F), got {x.data.shape}")
    idx = np.asarray(indices, dtype=int)

    def backward(g, accumulate):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        accumulate(x, full)

    return x.tape.apply(x.data[idx], (x,), backward)


def cross_entropy_sum(logits, labels):
    """Sum of per-row softmax cross entropies for (B,K) logits."""
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

    def backward(g, accumulate):
        grad = probs.copy()
        grad[np.arange(batch), labels] -= 1.0
        accumulate(logits, g * grad)

    return logits.tape.apply(np.float64(values.sum()), (logits,), backward)


def leaf_arrays(record):
    """A parameter record's arrays in ``arrays()`` order, each of the
    encoder's stacked block arrays split into its block rows: views that,
    laid end to end, are the record's buffer."""
    if not isinstance(record, enc.EncoderParams):
        return record.arrays()
    stem_weight, stem_bias, *stacked = record.arrays()
    return [stem_weight, stem_bias, *(row for array in stacked for row in array)]


def array_leaves(tape, record, requires_grad=True):
    """One leaf per array of ``leaf_arrays(record)``, in its order."""
    return [tape.tensor(a, requires_grad) for a in leaf_arrays(record)]


def forward_batch(tape, enc_leaves, frames):
    """``encoder.forward_batch`` as a composition of primitive ops, over the
    encoder's ``array_leaves``: the stem's weight and bias, then the block
    rows of the conv1 kernel, the conv1 bias, the conv2 kernel and the conv2
    bias."""
    x = tape.tensor(frames)
    stem_weight, stem_bias, *stacked = enc_leaves
    blocks = len(stacked) // 4
    per_array = [stacked[i * blocks:(i + 1) * blocks] for i in range(4)]
    h = relu(affine_frames(x, stem_weight, stem_bias))
    for conv1_kernel, conv1_bias, conv2_kernel, conv2_bias in zip(*per_array):
        inner = relu(conv1d_same(h, conv1_kernel, conv1_bias))
        inner = conv1d_same(inner, conv2_kernel, conv2_bias)
        h = relu(add(inner, h))
    return mean_over_time(h)


def batch_loss_tensor(tape, enc_leaves, head_leaves, frames, region_labels, action_labels,
                      global_feats, cfg):
    """``pretrain.batch_loss_tensor`` as a composition of primitive ops, over
    the encoder's and the heads' ``array_leaves``."""
    batch, mode = frames.shape[0], cfg.mode
    action_weight, action_bias, region_weight, region_bias = head_leaves
    feats = forward_batch(tape, enc_leaves, frames)
    terms = []
    if mode == "tac":
        logits = linear_rows(feats, action_weight, action_bias)
        terms.append(scale(cross_entropy_sum(logits, action_labels), cfg.action_loss_weight))
    else:
        region_in = (hstack_rows(feats, tape.tensor(global_feats)) if mode == "tsp"
                     else feats)
        region_logits = linear_rows(region_in, region_weight, region_bias)
        terms.append(scale(cross_entropy_sum(region_logits, region_labels),
                           cfg.region_loss_weight))
        fg_rows = np.flatnonzero(region_labels == 1)
        if len(fg_rows):
            fg_logits = linear_rows(take_rows(feats, fg_rows), action_weight, action_bias)
            terms.append(scale(cross_entropy_sum(fg_logits, action_labels[fg_rows]),
                               cfg.action_loss_weight))
    total = terms[0] if len(terms) == 1 else add(terms[0], terms[1])
    return scale(total, 1.0 / batch)


def forward_np_batch(params: enc.EncoderParams, frames):
    """Inference through the reference forward, on a throwaway tape."""
    tape = Tape()
    return forward_batch(tape, array_leaves(tape, params, False), frames).data


def momentum_step(arrays, grads, velocity, rate, momentum):
    """SGD with momentum one array at a time, as the trainer ran it before
    each parameter record became one buffer: ``vel = momentum·vel + grad``,
    then ``arr -= rate·vel``, in place."""
    for arr, grad, vel in zip(arrays, grads, velocity):
        vel *= momentum
        vel += grad
        arr -= rate * vel
