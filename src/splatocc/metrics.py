"""Frustum-masked IoU / mIoU between predicted and ground-truth grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraModel
from .splatting import GridSpec, OccupancyGrid

DEFAULT_NEAR = 0.01
DEFAULT_FAR = 10.0

# Voxel centers projected per block, so frustum_mask's temporaries stay a few
# MB on scene grids; rows of a matrix product do not depend on the block.
_MASK_BLOCK = 65536

# Semantic class ids 1..11 plus 0 = empty.
CLASS_NAMES = (
    "empty", "ceiling", "floor", "wall", "window", "chair", "bed",
    "sofa", "table", "tvs", "furniture", "objects",
)


class UndefinedMetricError(ValueError):
    """No class has any support; the mean IoU is undefined, not zero."""


@dataclass
class ConfusionCounts:
    """Per-class and binary occupied/empty confusion totals.

    Index 0 of the per-class arrays is the empty class and stays zero; the
    geometric (binary) counts treat any nonzero label as occupied.
    """

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    occupied_tp: int
    occupied_fp: int
    occupied_fn: int
    evaluated: int

    @property
    def num_classes(self) -> int:
        return self.tp.size

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        if other.num_classes != self.num_classes:
            raise ValueError("cannot merge counts with different class counts")
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn,
            self.occupied_tp + other.occupied_tp,
            self.occupied_fp + other.occupied_fp,
            self.occupied_fn + other.occupied_fn,
            self.evaluated + other.evaluated,
        )


def frustum_mask(spec: GridSpec, cam: CameraModel, near: float = DEFAULT_NEAR,
                 far: float = DEFAULT_FAR) -> np.ndarray:
    """Boolean mask of voxels whose center projects inside the image with a
    ray distance in [near, far]; shape spec.dims."""
    if not 0 < near < far:
        raise ValueError("need 0 < near < far")
    centers = spec.voxel_centers()
    ok = np.empty(len(centers), dtype=bool)
    for start in range(0, len(centers), _MASK_BLOCK):
        local = (centers[start:start + _MASK_BLOCK] - cam.pose.translation) @ cam.pose.rotation
        z = local[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = cam.fx * local[..., 0] / z + cam.cx
            v = cam.fy * local[..., 1] / z + cam.cy
        dist = np.linalg.norm(local, axis=-1)
        ok[start:start + _MASK_BLOCK] = (
            (z > 0)
            & (u >= 0) & (u < cam.width)
            & (v >= 0) & (v < cam.height)
            & (dist >= near) & (dist <= far)
        )
    return ok.reshape(spec.dims)


def confusion(pred: OccupancyGrid, gt: OccupancyGrid, mask=None) -> ConfusionCounts:
    """Tally confusion counts over masked voxels (mask None = everything)."""
    if pred.spec != gt.spec:
        raise ValueError("prediction and ground truth use different grid specs")
    if mask is None:
        mask = np.ones(pred.spec.dims, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != pred.spec.dims:
        raise ValueError("mask shape must match spec.dims")

    p = pred.labels[mask].astype(np.int64)
    g = gt.labels[mask].astype(np.int64)
    nc = pred.spec.num_classes
    matrix = np.bincount(g * nc + p, minlength=nc * nc).reshape(nc, nc)
    tp = np.diag(matrix).copy()
    fp = matrix.sum(axis=0) - tp
    fn = matrix.sum(axis=1) - tp
    tp[0] = fp[0] = fn[0] = 0

    # Row 0 / column 0 are the empty class, so the binary counts are blocks.
    return ConfusionCounts(
        tp=tp, fp=fp, fn=fn,
        occupied_tp=int(matrix[1:, 1:].sum()),
        occupied_fp=int(matrix[0, 1:].sum()),
        occupied_fn=int(matrix[1:, 0].sum()),
        evaluated=int(matrix.sum()),
    )


@dataclass
class MetricReport:
    """Binary occupied IoU, per-class IoU (NaN where a class is absent from
    both grids), and the mean over present classes."""

    iou: float
    per_class: np.ndarray
    miou: float

    def lines(self) -> list:
        out = []
        for k, value in enumerate(self.per_class, start=1):
            name = CLASS_NAMES[k] if k < len(CLASS_NAMES) else f"class_{k}"
            shown = "absent" if np.isnan(value) else f"{value:.4f}"
            out.append(f"{name} = {shown}")
        out.append(f"iou = {self.iou:.4f}")
        out.append(f"miou = {self.miou:.4f}")
        return out


def iou_miou(counts: ConfusionCounts) -> MetricReport:
    """Per-class IoU = TP / (TP + FP + FN); classes with no support in either
    grid are excluded from the mean rather than scored 0 or 1."""
    denom = counts.tp + counts.fp + counts.fn
    support = denom[1:] > 0
    if not np.any(support) and counts.occupied_tp + counts.occupied_fp + counts.occupied_fn == 0:
        raise UndefinedMetricError("no class has support in either grid")
    per_class = np.full(counts.num_classes - 1, np.nan)
    with np.errstate(invalid="ignore"):
        per_class[support] = counts.tp[1:][support] / denom[1:][support]
    miou = float(per_class[support].mean()) if np.any(support) else float("nan")
    occ_denom = counts.occupied_tp + counts.occupied_fp + counts.occupied_fn
    iou = counts.occupied_tp / occ_denom if occ_denom else float("nan")
    return MetricReport(iou=float(iou), per_class=per_class, miou=miou)
