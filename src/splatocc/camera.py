"""Pinhole camera geometry: rays, backprojection, projection, rigid transforms.

Conventions: the camera looks along +z in its own frame, the image origin is
the top-left corner, u runs along width and v along height. Depth values are
metric distances along the normalized ray; a converter from z-depth is
provided for inputs that use the other convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussians import CAMERA_FRAME, GaussianSet, WORLD_FRAME


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation; rotation must be orthonormal with det +1."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if rot.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(t))):
            raise ValueError("transform entries must be finite")
        if np.max(np.abs(rot @ rot.T - np.eye(3))) > 1e-6:
            raise ValueError("rotation is not orthonormal (tolerance 1e-6)")
        if abs(np.linalg.det(rot) - 1.0) > 1e-6:
            raise ValueError("rotation determinant must be +1")
        rot.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.translation

    def rotate(self, vectors) -> np.ndarray:
        return np.asarray(vectors, dtype=np.float64) @ self.rotation.T

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus a camera-to-world pose."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    pose: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be > 0")
        if self.width < 1 or self.height < 1:
            raise ValueError("image size must be >= 1 pixel per side")
        if not all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise ValueError("intrinsics must be finite")

    @property
    def position(self) -> np.ndarray:
        return self.pose.translation


def _split_pixel(pixel):
    px = np.asarray(pixel, dtype=np.float64)
    if px.shape[-1] != 2:
        raise ValueError("pixel must have a trailing dimension of 2 (u, v)")
    if not np.all(np.isfinite(px)):
        raise ValueError("pixel coordinates must be finite")
    return px[..., 0], px[..., 1]


def ray_direction(cam: CameraModel, pixel) -> np.ndarray:
    """Unit ray through a pixel, camera frame; z-component always > 0.

    Accepts a single (u, v) pair or an array with trailing dimension 2.
    """
    u, v = _split_pixel(pixel)
    x = (u - cam.cx) / cam.fx
    y = (v - cam.cy) / cam.fy
    inv = 1.0 / np.sqrt(x * x + y * y + 1.0)
    return np.stack([x * inv, y * inv, inv], axis=-1)


def backproject(cam: CameraModel, pixel, distance) -> np.ndarray:
    """3-point at metric ray distance ``distance`` along the pixel's ray."""
    distance = np.asarray(distance, dtype=np.float64)
    if np.any(~np.isfinite(distance)) or np.any(distance <= 0.0):
        raise ValueError("ray distance must be finite and > 0")
    return distance[..., None] * ray_direction(cam, pixel)


def project(cam: CameraModel, point):
    """Inverse of backproject: returns (u, v, ray distance).

    Points with z <= 0 lie behind the camera and raise.
    """
    point = np.asarray(point, dtype=np.float64)
    if point.shape[-1] != 3:
        raise ValueError("point must have a trailing dimension of 3")
    if np.any(point[..., 2] <= 0.0) or not np.all(np.isfinite(point)):
        raise ValueError("point is behind the camera (z <= 0)")
    return _project(cam, point)


def _project(cam: CameraModel, point):
    """project without its checks: u and v are inf or NaN where z = 0."""
    z = point[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.fx * point[..., 0] / z + cam.cx
        v = cam.fy * point[..., 1] / z + cam.cy
    return u, v, np.linalg.norm(point, axis=-1)


def z_depth_to_ray_distance(cam: CameraModel, pixel, z):
    """Convert z-depth to metric distance along the pixel's normalized ray."""
    z = np.asarray(z, dtype=np.float64)
    if np.any(~np.isfinite(z)) or np.any(z <= 0.0):
        raise ValueError("z-depth must be finite and > 0")
    return z / ray_direction(cam, pixel)[..., 2]


def to_world(cam: CameraModel, gset: GaussianSet) -> GaussianSet:
    """Map a GaussianSet from camera to world frame.

    Means are rotated and translated and covariances conjugated, R Sigma R^T;
    opacities and logits are untouched, so covariance eigenvalues are
    preserved.
    """
    if gset.frame != CAMERA_FRAME:
        raise ValueError("to_world requires a camera-frame GaussianSet")
    rot = cam.pose.rotation
    # Sigma R^T, then its per-member transpose R Sigma times R^T, as two BLAS
    # products; the upper triangle is mirrored so rounding leaves it symmetric.
    half = np.swapaxes((gset.cov.reshape(-1, 3) @ rot.T).reshape(-1, 3, 3), 1, 2)
    cov = (half.reshape(-1, 3) @ rot.T).reshape(-1, 3, 3)
    cov[:, [1, 2, 2], [0, 0, 1]] = cov[:, [0, 0, 1], [1, 2, 2]]
    return GaussianSet._of(cam.pose.apply(gset.means), cov, gset.opacities, gset.logits,
                           WORLD_FRAME)
