"""Gradient-check helpers: the two-head loss as a function of one flat vector.

The parameter records are laid end to end in ``arrays()`` order; ``map`` over a
template record puts each ``reshape_slice`` view of the flat leaf back into its
field.
"""

import numpy as np

from tspkit import autodiff as ad
from tspkit import encoder as enc
from tspkit import pretrain as pt


def flatten_params(enc_params: enc.EncoderParams, head_params: pt.HeadParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in enc_params.arrays() + head_params.arrays()])


def two_head_loss_builder(enc_cfg: enc.EncoderConfig, num_classes: int, mode: str,
                          frames: np.ndarray, region_labels: np.ndarray,
                          action_labels: np.ndarray, global_feats: np.ndarray | None = None,
                          weights: pt.LossWeights = pt.LossWeights()):
    """A ``build(vec) -> (loss, leaf)`` closure over flattened parameters.

    The loss is ``batch_loss_tensor`` of one batch, with every encoder and head
    parameter a ``reshape_slice`` view of the single leaf holding ``vec``.
    """
    templates = (enc.init_params(enc_cfg, seed=0),
                 pt.init_heads(enc_cfg.feature_dim, num_classes, mode, seed=0))
    shapes = [a.shape for t in templates for a in t.arrays()]

    def build(vec: np.ndarray):
        tape = ad.Tape()
        leaf = tape.tensor(vec, requires_grad=True)
        parts = []
        offset = 0
        for shape in shapes:
            size = int(np.prod(shape))
            parts.append(ad.reshape_slice(leaf, offset, shape))
            offset += size
        if offset != vec.size:
            raise ValueError(f"parameter vector has {vec.size} entries, expected {offset}")

        views = iter(parts)
        enc_view, head_view = (t.map(lambda _: next(views)) for t in templates)
        loss = pt.batch_loss_tensor(tape, enc_view, head_view, frames, region_labels,
                                    action_labels, global_feats, weights, mode)
        return loss, leaf

    return build
