"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small. A ``Tape`` records each op applied to
tensors created on it, in execution order, so the record list is already
topologically sorted; ``Tape.backward`` walks it once in reverse and returns
a gradient for every leaf that asked for one. An op is ``Tape.apply``: a
value computed in numpy, the tensors it was computed from, and a hand-derived
backward that hands each input its gradient. An op none of whose inputs
requires grad keeps no backward record, so a tape built from such leaves is a
plain numpy forward pass; that is how the encoder's inference path runs.

A training step is two leaves and two ops. Each parameter record (the
encoder's, the heads') is one leaf over its flat buffer, and its gradient is
one flat array, whose views are the gradients of the record's arrays. The
ops are the whole clip encoder (``encoder.forward_batch``) and the two-head
loss with its weighted cross entropies (``pretrain.batch_loss_tensor``). Each
backward repeats, on the same operand layouts, the numpy operations a tape of
primitive ops (affine, conv, ReLU, add, time mean, row ops, cross entropy)
over one leaf per array would run, so the step's loss and gradients are
bitwise those of the primitive composition. That composition lives on in
``tests/reference_tape.py`` as the reference the tests compare against.

``backward`` sweeps a tape once and then releases its records, which hold the
step's activations, and its leaves, so they are freed when the step's last
reference goes; a second sweep raises ``ValueError``. A tape and the tensors
living on it belong to a single thread. Independent tapes can run
concurrently; parameter value arrays are plain ndarrays and can be shared
read-only.
"""

from __future__ import annotations

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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis of a plain array (no tape)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)
