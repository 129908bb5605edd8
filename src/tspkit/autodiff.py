"""The backward sweep of a training step.

A training step is two ops: the clip encoder (``encoder.forward_batch``) and
the two-head loss (``pretrain.batch_loss_tensor``). Given a ``Tape``, each
records a hand-derived backward that maps its output's gradient to its
input's (``None`` for the encoder, whose input is the frames) and to the flat
gradient of its parameter record. The step's loss and gradients are bitwise
those of the primitive-op tape kept in ``tests/reference_tape.py``.
"""

from __future__ import annotations


class Tape:
    """The recorded backwards of one training step, swept once."""

    def __init__(self):
        self._backwards = []

    def record(self, backward) -> None:
        """Append an op's ``backward(g) -> (input gradient, record gradient)``."""
        if self._backwards is None:
            raise ValueError("this tape was swept by backward; record on a new tape")
        self._backwards.append(backward)

    def backward(self, g=1.0) -> list:
        """Run the ops' backwards in reverse from the last op's output gradient
        ``g``, each handing its input gradient to the op before it; returns
        each op's record gradient, in op order.

        The tape then drops the backwards, which hold the step's activations;
        a second sweep, or a record after this one, raises ``ValueError``.
        """
        if self._backwards is None:
            raise ValueError("this tape was already swept by backward")
        backwards, self._backwards = self._backwards, None
        grads = []
        for op_backward in reversed(backwards):
            g, grad = op_backward(g)
            grads.append(grad)
        return grads[::-1]
