"""Anisotropic 3D Gaussian primitives carrying semantic class logits.

Each primitive is an ellipsoidal kernel: mean position (m), covariance
Sigma (3x3, m^2), an opacity in [0, 1], and a vector of class logits.
Primitives only exist as packed arrays (:class:`GaussianSet`, one row
each) so splatting and fusion stay vectorized; a single primitive is a
one-row set.

Sigma is the one stored shape parameter: ``to_world`` conjugates it,
fusion averages it and ``splat`` inverts it. The factored form (per-axis
standard deviations, a unit quaternion) enters only through the positional
``GaussianSet`` constructor, and ``scales``, ``rotations`` and
``rotation_matrices()`` derive it back on demand (:func:`factor_covariances`).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import quaternions

SCALE_FLOOR = 1e-4
DEFAULT_PRUNE_TAU = 0.01
# Heuristic attributes: the first sample's (k = 1) opacity, the logit of its class.
BASE_OPACITY = 0.9
LOGIT_GAIN = 6.0
CAMERA_FRAME = "camera"
WORLD_FRAME = "world"
# Labels are stored as u8 (class maps, grids), so a run has at most 256
# classes: 0 (empty) plus semantic ids 1..255.
MAX_CLASSES = 256


def _is_int(value) -> bool:
    """An int or numpy integer, not a bool: a float or bool count or id is
    rejected, not truncated."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number (numpy's included), not a bool: a str or bool setting is
    rejected, not coerced."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _checked_members(means, opacities, logits):
    """Checked float copies of means, opacities and logits, so the caller's stay writable."""
    means = np.atleast_2d(np.array(means, dtype=np.float64))
    opacities = np.atleast_1d(np.array(opacities, dtype=np.float64))
    logits = np.atleast_2d(np.array(logits, dtype=np.float64))
    n = means.shape[0]
    if means.shape != (n, 3):
        raise ValueError("means must have shape (n, 3)")
    if opacities.shape != (n,) or logits.shape[0] != n or not 2 <= logits.shape[1] <= MAX_CLASSES:
        raise ValueError(f"opacities must be (n,) and logits (n, num_classes in 2..{MAX_CLASSES})")
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(logits))):
        raise ValueError("means and logits must be finite")
    if np.any(~np.isfinite(opacities)) or np.any(opacities < 0) or np.any(opacities > 1):
        raise ValueError("opacities must lie in [0, 1]")
    return means, opacities, logits


class GaussianSet:
    """Packed, immutable collection of primitives sharing one class count.

    The positional constructor takes the factored form: scales (per-axis
    standard deviations, floored at SCALE_FLOOR) and quaternions
    (normalized), and stores Sigma = R diag(s^2) R^T in ``cov``. One
    primitive given as plain vectors (a 3-vector mean, a scalar opacity,
    ...) becomes a one-row set. ``frame`` tags whether means and
    covariances live in camera or world coordinates; splatting and fusion
    require world frame.
    """

    __slots__ = ("means", "cov", "opacities", "logits", "frame")

    def __init__(self, means, scales, rotations, opacities, logits, frame=CAMERA_FRAME):
        means, opacities, logits = _checked_members(means, opacities, logits)
        scales = np.atleast_2d(np.asarray(scales, dtype=np.float64))
        rotations = np.atleast_2d(np.asarray(rotations, dtype=np.float64))
        if scales.shape != (len(means), 3) or rotations.shape != (len(means), 4):
            raise ValueError("scales must be (n, 3) and rotations (n, 4)")
        if not np.all(np.isfinite(scales)) or np.any(scales <= 0.0):
            raise ValueError("scales must be finite and > 0")
        # Sigma = R diag(s^2) R^T = (R diag(s)) (R diag(s))^T.
        half = quaternions.to_matrix(quaternions.normalize(rotations))
        half *= np.maximum(scales, SCALE_FLOOR)[:, None, :]
        self._fill(means, half @ np.swapaxes(half, 1, 2), opacities, logits, frame)

    @classmethod
    def from_covariances(cls, means, cov, opacities, logits, frame=CAMERA_FRAME) -> "GaussianSet":
        """A set over covariances checked finite, symmetric and >= SCALE_FLOOR^2 I,
        less 1% for the rounding of a floored kernel with scales up to ~100 m."""
        means, opacities, logits = _checked_members(means, opacities, logits)
        cov = np.array(cov, dtype=np.float64)
        if cov.shape != (len(means), 3, 3):
            raise ValueError("covariances must have shape (n, 3, 3)")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariances must be finite")
        if not (np.array_equal(cov, np.swapaxes(cov, 1, 2))
                and np.all(np.linalg.eigvalsh(cov) >= 0.99 * SCALE_FLOOR * SCALE_FLOOR)):
            raise ValueError("covariances must be symmetric positive definite, >= SCALE_FLOOR^2 I")
        return cls._of(means, cov, opacities, logits, frame)

    @classmethod
    def _of(cls, means, cov, opacities, logits, frame) -> "GaussianSet":
        """Unchecked, for arrays derived from valid sets: rotation and convex
        combination keep a covariance symmetric and >= SCALE_FLOOR^2 I."""
        gset = object.__new__(cls)
        gset._fill(means, cov, opacities, logits, frame)
        return gset

    def _fill(self, means, cov, opacities, logits, frame) -> None:
        if frame not in (CAMERA_FRAME, WORLD_FRAME):
            raise ValueError(f"unknown frame tag {frame!r}")
        for arr in (means, cov, opacities, logits):
            arr.flags.writeable = False
        self.means = means
        self.cov = cov
        self.opacities = opacities
        self.logits = logits
        self.frame = frame

    @classmethod
    def empty(cls, num_classes: int, frame=CAMERA_FRAME) -> "GaussianSet":
        return cls._of(np.zeros((0, 3)), np.zeros((0, 3, 3)), np.zeros(0),
                       np.zeros((0, num_classes)), frame)

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    def __len__(self) -> int:
        return self.means.shape[0]

    def subset(self, index) -> "GaussianSet":
        return GaussianSet._of(self.means[index], self.cov[index], self.opacities[index],
                               self.logits[index], self.frame)

    @property
    def scales(self) -> np.ndarray:
        """Derived per-axis standard deviations; see :func:`factor_covariances`."""
        return factor_covariances(self.cov)[0]

    @property
    def rotations(self) -> np.ndarray:
        """Derived unit quaternions paired with ``scales``."""
        return factor_covariances(self.cov)[1]

    def rotation_matrices(self) -> np.ndarray:
        return quaternions.to_matrix(self.rotations)


def _row_sum(e) -> np.ndarray:
    """Sum of the rows of ``e``, added as numpy's pairwise sum adds the entries of
    a contiguous row (bit-identical to ``e.T.sum(-1)``): fewer than 8 in turn; up
    to 128 in 8 running sums, combined pairwise, then the rest in turn; more
    split in two at a multiple of 8."""
    n = len(e)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sum(e[:half]) + _row_sum(e[half:])
    if n < 8:
        total, rest = e[0].copy(), e[1:]
    else:
        r = e[:8].copy()
        for i in range(8, n - n % 8, 8):
            r += e[i:i + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = e[n - n % 8:]
    for row in rest:
        total += row
    return total


def _shifted_exp(logits) -> np.ndarray:
    """exp(z - max z) over the last axis of ``logits``, on one class-major copy
    (contiguous rows, one per class)."""
    z = np.moveaxis(np.asarray(logits, dtype=np.float64), -1, 0).copy()
    z -= z.max(axis=0)
    return np.exp(z, out=z)


def softmax(logits) -> np.ndarray:
    """Class probabilities: softmax over the last axis of ``logits``, computed on
    ``_shifted_exp``'s class-major copy and returned as its transposed view.
    Bit-identical to ``e / e.sum(-1)`` with ``e = exp(z - max z)``."""
    z = _shifted_exp(logits)
    z /= _row_sum(z)
    return np.moveaxis(z, 0, -1)


def factor_covariances(cov):
    """(scales, quaternions) of (n, 3, 3) covariances by eigendecomposition:
    scales are the square roots of the eigenvalues, ascending and floored at
    SCALE_FLOOR, and a basis with det -1 gets one column flipped so the
    rotation is proper. eigh picks the eigenvector signs, so the factors are
    not unique and pair only with each other.
    """
    eigvals, eigvecs = np.linalg.eigh(cov)
    scales = np.sqrt(np.clip(eigvals, SCALE_FLOOR * SCALE_FLOOR, None))
    flip = np.linalg.det(eigvecs) < 0
    eigvecs[flip, :, 0] *= -1.0
    return scales, quaternions.from_matrix(eigvecs)


def inverse_covariances(cov) -> tuple:
    """The six unique entries (P00, P11, P22, P01, P02, P12) of P = Sigma^-1 =
    W^T W of (n, 3, 3) covariances (upper triangle read), W = L^-1 for the
    closed-form Cholesky factor Sigma = L L^T: six (n,) arrays, so no
    (n, 3, 3) array is formed. Backward stable, so as accurate as an LU
    inverse even for needles, where a determinant cancels."""
    a, b, c = cov[:, 0, 0], cov[:, 1, 1], cov[:, 2, 2]
    d, e, f = cov[:, 0, 1], cov[:, 0, 2], cov[:, 1, 2]
    l00 = np.sqrt(a)
    l10, l20 = d / l00, e / l00
    l11 = np.sqrt(b - l10 * l10)
    l21 = (f - l20 * l10) / l11
    w00, w11, w22 = 1.0 / l00, 1.0 / l11, 1.0 / np.sqrt(c - l20 * l20 - l21 * l21)
    w10, w21 = -l10 * w00 * w11, -l21 * w11 * w22
    w20 = -(l20 * w00 + l21 * w10) * w22
    return (w00 * w00 + w10 * w10 + w20 * w20, w11 * w11 + w21 * w21, w22 * w22,
            w10 * w11 + w20 * w21, w20 * w22, w21 * w22)


def prune(gset: GaussianSet, tau: float = DEFAULT_PRUNE_TAU) -> GaussianSet:
    """Drop members with opacity below tau, preserving order.

    Idempotent; tau = 0 keeps everything. A set that loses no member is
    returned as is: its arrays are read-only, so no copy is needed.
    """
    if not (_is_real(tau) and 0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0, 1]")
    keep = gset.opacities >= tau
    return gset if keep.all() else gset.subset(keep)


@dataclass(frozen=True)
class AttributeConfig:
    """Heuristic Gaussian attributes for depth-derived sample points.

    This stands in for a learned attribute head: isotropic kernels sized
    by the along-ray sample spacing, opacity decaying with sample depth
    index from ``BASE_OPACITY``, and one-hot class logits of ``LOGIT_GAIN``.
    The settings are the ones a caller varies; the rest are module constants.
    """

    num_classes: int = 12
    sigma_factor: float = 0.75
    opacity_decay: float = 0.15

    def __post_init__(self):
        if not (_is_int(self.num_classes) and 2 <= self.num_classes <= MAX_CLASSES):
            raise ValueError(f"num_classes must lie in 2..{MAX_CLASSES} and be an integer")
        if not (_is_real(self.sigma_factor) and 0 < self.sigma_factor < np.inf
                and _is_real(self.opacity_decay) and 0 <= self.opacity_decay < np.inf):
            raise ValueError("sigma_factor must be finite and > 0, opacity_decay finite and >= 0")


def heuristic_attributes_batch(
    samples: SampleBatch, labels, cfg: AttributeConfig = AttributeConfig()
) -> GaussianSet:
    """Camera-frame Gaussians for a sample batch: see :class:`AttributeConfig`.

    ``labels`` gives one class id per sample. opacity = BASE_OPACITY *
    exp(-opacity_decay * (k - 1)), so deeper interior samples fade;
    sigma = sigma_factor * spacing, isotropic: the covariance is sigma^2 I.
    A sigma^2 that overflows float64 raises ValueError naming the settings.
    """
    labels = np.asarray(labels)
    if labels.shape != (len(samples),) or labels.dtype.kind not in "iu":
        raise ValueError("labels must be integer class ids, one per sample")
    if labels.size and (labels.min() < 1 or labels.max() > cfg.num_classes - 1):
        bad = labels[(labels < 1) | (labels > cfg.num_classes - 1)][0]
        raise ValueError(f"label {bad} outside valid range 1..{cfg.num_classes - 1}")
    with np.errstate(over="ignore"):   # reported below, naming the settings
        sigma = np.maximum(cfg.sigma_factor * samples.spacings, SCALE_FLOOR)
        variance = sigma * sigma
    if not np.all(np.isfinite(variance)):
        raise ValueError("kernel variance (sigma_factor * sample spacing)^2 overflows float64: "
                         "lower sigma_factor or scale")
    with np.errstate(over="ignore"):   # the exponent overflows only to -inf, where exp is 0
        opacities = BASE_OPACITY * np.exp(-cfg.opacity_decay * (samples.ks - 1))
    logits = np.zeros((len(samples), cfg.num_classes))
    logits[np.arange(len(samples)), labels] = LOGIT_GAIN
    cov = variance[:, None, None] * np.eye(3)
    return GaussianSet._of(samples.positions, cov, opacities, logits, CAMERA_FRAME)
