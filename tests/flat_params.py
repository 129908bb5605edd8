"""Gradient-check helpers: finite differences, and the two-head loss as a
function of one flat vector.

The vector is the encoder's flat buffer followed by the heads'. Template
records ``view`` its two windows, so the loss runs on the records a training
step uses, and its gradient is the step's two flat gradients laid end to end.
"""

from dataclasses import dataclass

import numpy as np

from tspkit import autodiff as ad
from tspkit import encoder as enc
from tspkit import pretrain as pt


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_err: float
    h: float
    coords_checked: int
    worst_coord: int


def gradient_check(build, x0: np.ndarray, coords: int = 100, h: float = 1e-6,
                   seed: int = 0) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    ``build(x)`` must run a scalar loss at the parameter vector ``x`` and
    return ``(loss, grad)``: the loss and its gradient with respect to ``x``,
    flat. ``coords`` coordinates are sampled without replacement (all of them
    if the vector is smaller). The caller should pick a probe point away from
    relu kinks.

    Relative error per coordinate uses max(|analytic|, |numeric|, 1e-3) as
    the denominator, so coordinates whose gradient is far below the working
    scale are compared absolutely instead of amplifying rounding noise.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    _, analytic = build(x0)
    if analytic.shape != x0.shape:
        raise ValueError(f"build returned a gradient of shape {analytic.shape}, "
                         f"expected {x0.shape}")

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
        numeric = (float(build(xp)[0]) - float(build(xm)[0])) / (2.0 * h)
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
    """A ``build(vec) -> (loss, grad)`` closure over flattened parameters.

    The loss is ``batch_loss_tensor`` of one batch at unit loss weights, over
    records that view the two windows of ``vec``; the gradient is the two
    flat gradients its tape's sweep returns, concatenated.
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
        loss = pt.batch_loss_tensor(tape, enc_template.view(vec[:enc_size]),
                                    head_template.view(vec[enc_size:]), frames,
                                    region_labels, action_labels, global_feats, cfg)
        return loss, np.concatenate(tape.backward())

    return build
