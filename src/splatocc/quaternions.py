"""Unit quaternion helpers, (w, x, y, z) component order, batched over leading axes."""

from __future__ import annotations

import numpy as np


def normalize(q):
    q = np.asarray(q, dtype=np.float64)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm < 1e-12) or not np.all(np.isfinite(norm)):
        raise ValueError("quaternion has zero or non-finite norm")
    return q / norm


def to_matrix(q):
    """Rotation matrices for unit quaternions, shape (..., 3, 3)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = (q[..., i] for i in range(4))
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1 - 2 * (y * y + z * z)
    m[..., 0, 1] = 2 * (x * y - w * z)
    m[..., 0, 2] = 2 * (x * z + w * y)
    m[..., 1, 0] = 2 * (x * y + w * z)
    m[..., 1, 1] = 1 - 2 * (x * x + z * z)
    m[..., 1, 2] = 2 * (y * z - w * x)
    m[..., 2, 0] = 2 * (x * z - w * y)
    m[..., 2, 1] = 2 * (y * z + w * x)
    m[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def from_matrix(m):
    """Quaternions (w first) from rotation matrices.

    Builds the symmetric matrix K = 4 q q^T from sums and differences of the
    entries and takes its row with the largest diagonal, 4 q_i q with
    |q_i| >= 1/2, so the extraction stays stable near 180-degree rotations.
    Returned quaternions are normalized with w >= 0.
    """
    m = np.asarray(m, dtype=np.float64)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.moveaxis(m, (-2, -1), (0, 1))
    k = np.stack([
        np.stack([1.0 + m00 + m11 + m22, m21 - m12, m02 - m20, m10 - m01], axis=-1),
        np.stack([m21 - m12, 1.0 + m00 - m11 - m22, m01 + m10, m02 + m20], axis=-1),
        np.stack([m02 - m20, m01 + m10, 1.0 - m00 + m11 - m22, m12 + m21], axis=-1),
        np.stack([m10 - m01, m02 + m20, m12 + m21, 1.0 - m00 - m11 + m22], axis=-1),
    ], axis=-2)
    row = np.argmax(np.diagonal(k, axis1=-2, axis2=-1), axis=-1)
    q = np.take_along_axis(k, row[..., None, None], axis=-2)[..., 0, :]
    return normalize(np.where(q[..., :1] < 0.0, -q, q))
