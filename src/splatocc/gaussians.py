"""Anisotropic 3D Gaussian primitives carrying semantic class logits.

Each primitive is an ellipsoidal kernel: mean position (m), per-axis
standard deviations (m), a unit-quaternion orientation, an opacity in
[0, 1], and a vector of class logits. Primitives only exist as packed
arrays (:class:`GaussianSet`, one row each) so splatting and fusion stay
vectorized; a single primitive is a one-row set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quaternions
from .sampling import SampleBatch

SCALE_FLOOR = 1e-4
DEFAULT_PRUNE_TAU = 0.01
CAMERA_FRAME = "camera"
WORLD_FRAME = "world"

# Implied covariance condition number above which evaluation refuses to run.
_CONDITION_LIMIT = 1e12


class DegenerateGaussianError(ValueError):
    """Raised when a covariance is too ill-conditioned to evaluate."""


class GaussianSet:
    """Packed, immutable collection of primitives sharing one class count.

    One primitive given as plain vectors (a 3-vector mean, a scalar
    opacity, ...) becomes a one-row set. Scales are floored at SCALE_FLOOR
    and quaternions normalized on construction. ``frame`` tags whether
    means/rotations live in camera or world coordinates; splatting and
    fusion require world frame.
    """

    __slots__ = ("means", "scales", "rotations", "opacities", "logits", "frame")

    def __init__(self, means, scales, rotations, opacities, logits, frame=CAMERA_FRAME):
        if frame not in (CAMERA_FRAME, WORLD_FRAME):
            raise ValueError(f"unknown frame tag {frame!r}")
        means = np.atleast_2d(np.asarray(means, dtype=np.float64))
        scales = np.atleast_2d(np.asarray(scales, dtype=np.float64))
        rotations = np.atleast_2d(np.asarray(rotations, dtype=np.float64))
        opacities = np.atleast_1d(np.asarray(opacities, dtype=np.float64))
        logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
        n = means.shape[0]
        if means.shape != (n, 3):
            raise ValueError("means must have shape (n, 3)")
        if scales.shape != (n, 3) or rotations.shape != (n, 4):
            raise ValueError("scales must be (n, 3) and rotations (n, 4)")
        if opacities.shape != (n,) or logits.shape[0] != n or logits.shape[1] < 2:
            raise ValueError("opacities must be (n,) and logits (n, num_classes >= 2)")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(logits))):
            raise ValueError("means and logits must be finite")
        if np.any(~np.isfinite(opacities)) or np.any(opacities < 0) or np.any(opacities > 1):
            raise ValueError("opacities must lie in [0, 1]")
        if n:
            if not np.all(np.isfinite(scales)) or np.any(scales <= 0.0):
                raise ValueError("scales must be finite and > 0")
            scales = np.maximum(scales, SCALE_FLOOR)
            rotations = quaternions.normalize_if_needed(rotations)
        for arr in (means, scales, rotations, opacities, logits):
            arr.flags.writeable = False
        self.means = means
        self.scales = scales
        self.rotations = rotations
        self.opacities = opacities
        self.logits = logits
        self.frame = frame

    @classmethod
    def empty(cls, num_classes: int, frame=CAMERA_FRAME) -> "GaussianSet":
        return cls(
            np.zeros((0, 3)),
            np.zeros((0, 3)),
            np.zeros((0, 4)),
            np.zeros(0),
            np.zeros((0, num_classes)),
            frame=frame,
        )

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    def __len__(self) -> int:
        return self.means.shape[0]

    def subset(self, index) -> "GaussianSet":
        return GaussianSet(
            self.means[index],
            self.scales[index],
            self.rotations[index],
            self.opacities[index],
            self.logits[index],
            frame=self.frame,
        )

    def rotation_matrices(self) -> np.ndarray:
        return quaternions.to_matrix(self.rotations)

    def covariances(self) -> np.ndarray:
        return covariance_matrices(self.scales, self.rotations)


def softmax(logits) -> np.ndarray:
    """Class probabilities: softmax over the last axis of ``logits``."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def covariance_matrices(scales, rotations) -> np.ndarray:
    """R diag(s^2) R^T as (..., 3, 3), built from the factored form."""
    rot = quaternions.to_matrix(rotations)
    scaled = rot * np.asarray(scales, dtype=np.float64)[..., None, :]
    return scaled @ np.swapaxes(scaled, -1, -2)


def evaluate(gset: GaussianSet, points) -> np.ndarray:
    """Kernel values exp(-0.5 * d^T Sigma^-1 d), shape (len(gset), len(points)).

    The inverse covariance is applied in factored form (rotate into each
    kernel's axes, divide by its scales), never via a general matrix
    inverse. Equals 1 exactly at a member's mean and decays with
    Mahalanobis distance. Raises DegenerateGaussianError when any member's
    implied condition number (max scale / min scale)^2 exceeds 1e12.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    if len(gset):
        ratio = gset.scales.max(axis=1) / gset.scales.min(axis=1)
        worst = float(np.max(ratio * ratio))
        if worst > _CONDITION_LIMIT:
            raise DegenerateGaussianError(
                f"covariance condition number {worst:.3e} exceeds {_CONDITION_LIMIT:.0e}"
            )
    diff = points[None, :, :] - gset.means[:, None, :]
    local = diff @ gset.rotation_matrices() / gset.scales[:, None, :]
    m2 = np.sum(local * local, axis=-1)
    return np.exp(-0.5 * m2)


def prune(gset: GaussianSet, tau: float = DEFAULT_PRUNE_TAU) -> GaussianSet:
    """Drop members with opacity below tau, preserving order.

    Idempotent; tau = 0 keeps everything.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    return gset.subset(gset.opacities >= tau)


@dataclass(frozen=True)
class AttributeConfig:
    """Heuristic Gaussian attributes for depth-derived sample points.

    This stands in for a learned attribute head: isotropic kernels sized
    by the along-ray sample spacing, opacity decaying with sample depth
    index, and one-hot class logits. All knobs are explicit because none
    of them are canonical.
    """

    num_classes: int = 12
    sigma_factor: float = 0.75
    base_opacity: float = 0.9
    opacity_decay: float = 0.15
    logit_gain: float = 6.0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.sigma_factor <= 0 or self.base_opacity <= 0 or self.base_opacity > 1:
            raise ValueError("sigma_factor must be > 0 and base_opacity in (0, 1]")
        if self.opacity_decay < 0:
            raise ValueError("opacity_decay must be >= 0")


def heuristic_attributes_batch(
    samples: SampleBatch, labels, cfg: AttributeConfig = AttributeConfig()
) -> GaussianSet:
    """Camera-frame Gaussians for a sample batch: see :class:`AttributeConfig`.

    ``labels`` gives one class id per sample. opacity = base_opacity *
    exp(-opacity_decay * (k - 1)), so deeper interior samples fade;
    sigma = sigma_factor * spacing, isotropic.
    """
    labels = np.asarray(labels)
    if labels.shape != (len(samples),):
        raise ValueError("labels must have one entry per sample")
    if labels.size and (labels.min() < 1 or labels.max() > cfg.num_classes - 1):
        bad = labels[(labels < 1) | (labels > cfg.num_classes - 1)][0]
        raise ValueError(f"label {bad} outside valid range 1..{cfg.num_classes - 1}")
    if not len(samples):
        return GaussianSet.empty(cfg.num_classes, frame=CAMERA_FRAME)
    sigma = np.maximum(cfg.sigma_factor * samples.spacings, SCALE_FLOOR)
    opacities = cfg.base_opacity * np.exp(-cfg.opacity_decay * (samples.ks - 1))
    logits = np.zeros((len(samples), cfg.num_classes))
    logits[np.arange(len(samples)), labels] = cfg.logit_gain
    return GaussianSet(
        means=samples.positions,
        scales=np.repeat(sigma[:, None], 3, axis=1),
        rotations=np.tile(quaternions.IDENTITY, (len(samples), 1)),
        opacities=opacities,
        logits=logits,
        frame=CAMERA_FRAME,
    )
