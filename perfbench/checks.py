"""Output checks. Each returns a list of problems; an empty list passes.

An operation whose checks report a problem, or whose call raised, counts
as failed.
"""

from __future__ import annotations

import numpy as np

# Per-frame IoU floor against the exact oracle, the threshold acceptance
# criterion 08 fixes for single-view reconstruction.
MONO_IOU_FLOOR = 0.90


def grid(pred, spec) -> list:
    problems = []
    labels, scores = np.asarray(pred.labels), np.asarray(pred.scores)
    if pred.spec != spec or labels.shape != spec.dims or scores.shape != spec.dims:
        problems.append("grid shape or spec differs from the requested grid")
    elif labels.min() < 0 or labels.max() >= spec.num_classes:
        problems.append(f"labels outside [0, {spec.num_classes})")
    if not (np.all(np.isfinite(scores)) and scores.min() >= 0.0 and scores.max() <= 1.0):
        problems.append("scores outside [0, 1]")
    return problems


def mono_iou(report) -> list:
    if not report.iou >= MONO_IOU_FLOOR:
        return [f"frustum-masked IoU {report.iou:.4f} below {MONO_IOU_FLOOR}"]
    return []


def bank(bank, frames: int) -> list:
    n = len(bank)
    problems = []
    shapes = (bank.means.shape, bank.scales.shape, bank.rotations.shape,
              bank.opacities.shape, bank.logits.shape)
    if shapes != ((n, 3), (n, 3), (n, 4), (n,), (n, bank.num_classes)):
        problems.append(f"bank arrays disagree on the member count: {shapes}")
    elif not (np.all(np.isfinite(bank.means)) and np.all(bank.opacities >= 0)
              and np.all(bank.opacities <= 1)):
        problems.append("bank means not finite or opacities outside [0, 1]")
    if bank.frame_count != frames:
        problems.append(f"bank fused {bank.frame_count} frames, {frames} were pulled")
    return problems


def fusion_stats(stats, incoming: int) -> list:
    if stats.matched + stats.inserted != incoming:
        return [f"matched {stats.matched} + inserted {stats.inserted} != incoming {incoming}"]
    return []


def same_result(pred, bank_size, ref_labels, ref_bank_size) -> list:
    """The result equals a reference result for the same inputs, labels bit
    for bit (ref_bank_size None when there is no bank)."""
    problems = []
    if not np.array_equal(pred.labels, ref_labels):
        problems.append("labels differ from the reference result")
    if bank_size != ref_bank_size:
        problems.append(f"bank size {bank_size} differs from the reference {ref_bank_size}")
    return problems
