"""Segmentation and depth losses as standalone numerical functions.

These are provided for any future trainable variant and are not wired into
an optimizer here. Focal and Huber return analytic gradients that tests
verify against central finite differences; the Lovasz-softmax value is the
Lovasz extension of the per-class Jaccard error.
"""

from __future__ import annotations

import numpy as np

from .gaussians import softmax


class UndefinedLossError(ValueError):
    """Every item was ignored or invalid; the mean loss is undefined."""


def _kept(logits, targets, ignore_index):
    """Checked float logits, the rows whose targets are not ``ignore_index``,
    those rows' targets and their softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError("logits must be (n_items, num_classes)")
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:1]:
        raise ValueError(f"targets must hold one entry per logits row ({logits.shape[0]}), "
                         f"got shape {targets.shape}")
    valid = np.ones(targets.shape, dtype=bool) if ignore_index is None else targets != ignore_index
    kept = targets[valid]
    if kept.size and (kept.min() < 0 or kept.max() >= logits.shape[1]):
        raise ValueError("targets must lie in [0, num_classes) or equal ignore_index")
    if kept.size == 0:
        raise UndefinedLossError("all items ignored")
    rows = np.flatnonzero(valid)
    return logits, rows, kept, softmax(logits[rows])


def focal_loss(logits, targets, gamma: float = 2.0, ignore_index=None):
    """Mean of -(1 - p_t)^gamma * log(p_t) plus its gradient w.r.t. logits.

    gamma = 0 reduces exactly to mean cross-entropy. Ignored items contribute
    nothing to the value and have zero gradient rows.
    """
    if not 0 <= gamma < np.inf:   # NaN fails both comparisons
        raise ValueError("gamma must be finite and >= 0")
    logits, rows, kept, p = _kept(logits, targets, ignore_index)
    pt = p[np.arange(rows.size), kept]
    one_minus = 1.0 - pt
    log_pt = np.log(pt)
    value = float(np.mean(-(one_minus ** gamma) * log_pt))

    # d/dz_k of -(1-pt)^g log(pt) via pt's softmax Jacobian:
    #   [g (1-pt)^(g-1) log(pt) pt - (1-pt)^g] * (onehot_k - p_k)
    # The first term is evaluated only where 1-pt > 0; its limit there is 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        lead = np.where(
            one_minus > 0.0,
            gamma * one_minus ** (gamma - 1.0) * log_pt * pt,
            0.0,
        )
    coeff = lead - one_minus ** gamma
    onehot = np.zeros_like(p)
    onehot[np.arange(rows.size), kept] = 1.0
    grad = np.zeros_like(logits)
    grad[rows] = coeff[:, None] * (onehot - p) / rows.size
    return value, grad


def _lovasz_grad(gt_sorted):
    """Discrete gradient of the Jaccard error along a sorted margin order."""
    gts = gt_sorted.sum()
    intersection = gts - np.cumsum(gt_sorted)
    union = gts + np.cumsum(1.0 - gt_sorted)
    jaccard = 1.0 - intersection / union
    jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def lovasz_softmax(logits, targets, ignore_index=None) -> float:
    """Lovasz extension of the Jaccard error on softmax prediction errors.

    For each class present in the targets, the absolute errors
    |1{target == c} - p_c| are sorted descending and dotted with the Jaccard
    gradient vector; classes absent from the targets are skipped and the
    result is the mean over the present ones. Always in [0, 1].
    """
    _, _, kept, p = _kept(logits, targets, ignore_index)
    losses = []
    for c in np.unique(kept):
        fg = (kept == c).astype(np.float64)
        errors = np.abs(fg - p[:, c])
        order = np.argsort(-errors, kind="stable")
        losses.append(float(np.dot(errors[order], _lovasz_grad(fg[order]))))
    return float(np.mean(losses))


def huber_depth(pred, target, delta: float = 1.0):
    """Mean Huber loss on depth residuals plus its gradient w.r.t. pred.

    Residuals r = pred - target score 0.5 r^2 inside |r| <= delta and
    delta * (|r| - delta / 2) outside. Non-finite or <= 0 target entries are
    ignored, matching the invalid-pixel convention of depth maps.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError("pred and target must have equal shapes")
    if not delta > 0:
        raise ValueError("delta must be > 0")
    valid = np.isfinite(target) & (target > 0.0)
    n = int(np.count_nonzero(valid))
    if n == 0:
        raise UndefinedLossError("no valid target entries")
    if not np.all(np.isfinite(pred[valid])):
        raise ValueError("pred must be finite where target is valid")

    r = pred[valid] - target[valid]
    a = np.abs(r)
    quad = a <= delta
    per_item = np.where(quad, 0.5 * r * r, delta * (a - 0.5 * delta))
    value = float(per_item.mean())

    grad = np.zeros_like(pred)
    grad_valid = np.where(quad, r, delta * np.sign(r)) / n
    grad[valid] = grad_valid
    return value, grad
