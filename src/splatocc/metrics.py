"""Frustum-masked IoU / mIoU between predicted and ground-truth grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraModel, _project
from .splatting import GridSpec, OccupancyGrid

# Semantic class ids 1..11 plus 0 = empty.
CLASS_NAMES = (
    "empty", "ceiling", "floor", "wall", "window", "chair", "bed",
    "sofa", "table", "tvs", "furniture", "objects",
)


class UndefinedMetricError(ValueError):
    """No class has any support; the mean IoU is undefined, not zero."""


@dataclass
class ConfusionCounts:
    """(C, C) confusion matrix, ground truth in rows and prediction in columns.

    Every total is read off it. Index 0 of the per-class totals is the empty
    class and stays zero; the binary totals count any nonzero label as occupied.
    """

    matrix: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def tp(self) -> np.ndarray:
        return np.concatenate(([0], np.diag(self.matrix)[1:]))

    @property
    def fp(self) -> np.ndarray:
        return np.concatenate(([0], self.matrix[:, 1:].sum(axis=0))) - self.tp

    @property
    def fn(self) -> np.ndarray:
        return np.concatenate(([0], self.matrix[1:].sum(axis=1))) - self.tp

    @property
    def occupied_tp(self) -> int:
        return int(self.matrix[1:, 1:].sum())

    @property
    def occupied_fp(self) -> int:
        return int(self.matrix[0, 1:].sum())

    @property
    def occupied_fn(self) -> int:
        return int(self.matrix[1:, 0].sum())

    @property
    def evaluated(self) -> int:
        return int(self.matrix.sum())

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        if other.num_classes != self.num_classes:
            raise ValueError("cannot merge counts with different class counts")
        return ConfusionCounts(self.matrix + other.matrix)


def frustum_mask(spec: GridSpec, cam: CameraModel, near: float = 0.01,
                 far: float = 10.0) -> np.ndarray:
    """Boolean mask of voxels whose center projects inside the image with a
    ray distance in [near, far]; shape spec.dims."""
    if not 0 < near < far:
        raise ValueError("need 0 < near < far")
    # Coordinate j, sum_i (c_i - t_i) R[i, j], added in axis order with no BLAS call, so
    # the mask does not depend on the BLAS kernel; only the last add is grid-sized.
    dx, dy, dz = (c - t for c, t in zip(np.ix_(*spec.center_axes()), cam.pose.translation))
    rot = cam.pose.rotation
    x, y, z = ((dx * rot[0, j] + dy * rot[1, j]) + dz * rot[2, j] for j in range(3))
    u, v, dist = _project(cam, x, y, z)
    return ((z > 0) & (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
            & (dist >= near) & (dist <= far))


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
    return ConfusionCounts(np.bincount(g * nc + p, minlength=nc * nc).reshape(nc, nc))


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
    occ_denom = counts.occupied_tp + counts.occupied_fp + counts.occupied_fn
    if not np.any(support) and occ_denom == 0:
        raise UndefinedMetricError("no class has support in either grid")
    per_class = np.full(counts.num_classes - 1, np.nan)
    per_class[support] = counts.tp[1:][support] / denom[1:][support]
    miou = float(per_class[support].mean()) if np.any(support) else float("nan")
    iou = counts.occupied_tp / occ_denom if occ_denom else float("nan")
    return MetricReport(iou=float(iou), per_class=per_class, miou=miou)
