"""Gradient-check helpers: finite differences, and the two-head loss as a
function of one flat vector.

The vector is the encoder's flat buffer followed by the heads'. Each record's
leaf is a ``reshape_slice`` window of the vector's leaf, and a template record
``view``s that window's data, so the loss runs on the one-leaf-per-record API
of a training step.
"""

from dataclasses import dataclass

import numpy as np

from tspkit import autodiff as ad
from tspkit import encoder as enc
from tspkit import pretrain as pt


def reshape_slice(x: ad.Tensor, start: int, shape: tuple[int, ...]) -> ad.Tensor:
    """View a window of a flat vector as an array of the given shape."""
    tape = x.tape
    if x.data.ndim != 1:
        raise ad.ShapeError(f"reshape_slice: expected a flat vector, got {x.data.shape}")
    size = int(np.prod(shape)) if shape else 1
    if start < 0 or start + size > x.data.shape[0]:
        raise ad.ShapeError(f"reshape_slice: window [{start}, {start + size}) exceeds "
                            f"vector of length {x.data.shape[0]}")

    def backward(g, accumulate):
        full = np.zeros_like(x.data)
        full[start:start + size] = g.ravel()
        accumulate(x, full)

    return tape.apply(x.data[start:start + size].reshape(shape).copy(), (x,), backward)


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


def flatten_params(enc_params: enc.EncoderParams, head_params: pt.HeadParams) -> np.ndarray:
    return np.concatenate([enc_params.flat, head_params.flat])


def two_head_loss_builder(enc_cfg: enc.EncoderConfig, num_classes: int, mode: str,
                          frames: np.ndarray, region_labels: np.ndarray,
                          action_labels: np.ndarray, global_feats: np.ndarray | None = None):
    """A ``build(vec) -> (loss, leaf)`` closure over flattened parameters.

    The loss is ``batch_loss_tensor`` of one batch at unit loss weights, with
    the encoder's and the heads' leaves ``reshape_slice`` windows of the single
    leaf holding ``vec``.
    """
    cfg = pt.TrainConfig(mode=mode)
    enc_template = enc.init_params(enc_cfg, seed=0)
    head_template = pt.init_heads(enc_cfg.feature_dim, num_classes, mode, seed=0)
    enc_size, head_size = enc_template.flat.size, head_template.flat.size

    def build(vec: np.ndarray):
        if vec.size != enc_size + head_size:
            raise ValueError(f"parameter vector has {vec.size} entries, "
                             f"expected {enc_size + head_size}")
        tape = ad.Tape()
        leaf = tape.tensor(vec, requires_grad=True)
        enc_leaf = reshape_slice(leaf, 0, (enc_size,))
        head_leaf = reshape_slice(leaf, enc_size, (head_size,))
        loss = pt.batch_loss_tensor(tape, enc_template.view(enc_leaf.data), enc_leaf,
                                    head_template.view(head_leaf.data), head_leaf, frames,
                                    region_labels, action_labels, global_feats, cfg)
        return loss, leaf

    return build
