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

    Picks the numerically dominant of the four standard extraction branches
    per matrix, so it stays stable near 180-degree rotations. Returned
    quaternions are normalized with w >= 0.
    """
    m = np.asarray(m, dtype=np.float64)
    m00, m11, m22 = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    w2 = np.maximum(0.0, 1.0 + m00 + m11 + m22)
    x2 = np.maximum(0.0, 1.0 + m00 - m11 - m22)
    y2 = np.maximum(0.0, 1.0 - m00 + m11 - m22)
    z2 = np.maximum(0.0, 1.0 - m00 - m11 + m22)
    choice = np.argmax(np.stack([w2, x2, y2, z2], axis=-1), axis=-1)

    with np.errstate(divide="ignore", invalid="ignore"):
        sw = 2.0 * np.sqrt(w2)
        cand_w = np.stack(
            [
                0.25 * sw,
                (m[..., 2, 1] - m[..., 1, 2]) / sw,
                (m[..., 0, 2] - m[..., 2, 0]) / sw,
                (m[..., 1, 0] - m[..., 0, 1]) / sw,
            ],
            axis=-1,
        )
        sx = 2.0 * np.sqrt(x2)
        cand_x = np.stack(
            [
                (m[..., 2, 1] - m[..., 1, 2]) / sx,
                0.25 * sx,
                (m[..., 0, 1] + m[..., 1, 0]) / sx,
                (m[..., 0, 2] + m[..., 2, 0]) / sx,
            ],
            axis=-1,
        )
        sy = 2.0 * np.sqrt(y2)
        cand_y = np.stack(
            [
                (m[..., 0, 2] - m[..., 2, 0]) / sy,
                (m[..., 0, 1] + m[..., 1, 0]) / sy,
                0.25 * sy,
                (m[..., 1, 2] + m[..., 2, 1]) / sy,
            ],
            axis=-1,
        )
        sz = 2.0 * np.sqrt(z2)
        cand_z = np.stack(
            [
                (m[..., 1, 0] - m[..., 0, 1]) / sz,
                (m[..., 0, 2] + m[..., 2, 0]) / sz,
                (m[..., 1, 2] + m[..., 2, 1]) / sz,
                0.25 * sz,
            ],
            axis=-1,
        )

    candidates = np.stack([cand_w, cand_x, cand_y, cand_z], axis=-2)
    q = np.take_along_axis(candidates, choice[..., None, None], axis=-2)[..., 0, :]
    q = np.where(q[..., :1] < 0.0, -q, q)
    return normalize(q)
