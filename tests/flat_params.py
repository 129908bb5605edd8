"""Gradient-check helpers: the two-head loss as a function of one flat vector."""

from types import SimpleNamespace

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
    d = enc_cfg.embed_dim
    region_in = d if mode == "tsp_nogvf" else 2 * d
    shapes = [(d, enc_cfg.frame_dim), (d,)]
    for _ in range(enc_cfg.blocks):
        shapes += [(d, d, 3), (d,), (d, d, 3), (d,)]
    shapes += [(d, num_classes), (num_classes,), (region_in, 2), (2,)]

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

        enc_view = SimpleNamespace(
            config=enc_cfg, stem_weight=parts[0], stem_bias=parts[1],
            blocks=[tuple(parts[2 + 4 * i: 6 + 4 * i]) for i in range(enc_cfg.blocks)])
        head_view = SimpleNamespace(
            action_weight=parts[-4], action_bias=parts[-3],
            region_weight=parts[-2], region_bias=parts[-1])
        loss = pt.batch_loss_tensor(tape, enc_view, head_view, frames, region_labels,
                                    action_labels, global_feats, weights, mode)
        return loss, leaf

    return build
