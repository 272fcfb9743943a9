"""Ray-based volumetric sampling: extend surface depth inward along camera rays.

Depth maps hold metric ray distances (not z-depth). Each valid pixel spawns
K sample points at distances d + delta_k along its normalized ray, where the
offsets are linspace(0, 1, K) * scale: the first sample sits exactly on the
backprojected surface and the rest step uniformly into the interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import backproject
from .gaussians import _is_int, _is_real


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel ray distances, shape (height, width), row-major.

    Entries that are non-finite or <= 0 mark invalid pixels and are skipped
    by sampling rather than raising.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("depth values must be a non-empty 2-d array")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.values) & (self.values > 0.0)


@dataclass(frozen=True)
class SamplingConfig:
    """k samples per ray over a total inward extent of ``scale`` meters,
    visiting every ``stride``-th pixel."""

    k: int = 16
    scale: float = 0.48
    stride: int = 4

    def __post_init__(self):
        if not (_is_int(self.k) and self.k >= 1):
            raise ValueError("k must be an integer >= 1")
        if not (_is_real(self.scale) and 0 < self.scale < np.inf):
            raise ValueError("scale must be finite and > 0")
        if not (_is_int(self.stride) and self.stride >= 1):
            raise ValueError("stride must be an integer >= 1")

    @property
    def spacing(self) -> float:
        # For a single sample the whole extent collapses onto the surface
        # point; report scale so kernel sizing stays defined.
        if self.k == 1:
            return self.scale
        return self.scale / (self.k - 1)


def sample_offsets(cfg: SamplingConfig) -> np.ndarray:
    """Inward offsets linspace(0, 1, k) * scale; [0] when k == 1."""
    return np.linspace(0.0, 1.0, cfg.k) * cfg.scale


@dataclass(frozen=True)
class SampleBatch:
    """Packed sample points, pixel-major then k, all in camera frame.

    ``num_invalid`` counts depth pixels that were skipped (NaN, inf, <= 0).
    """

    pixels: np.ndarray
    ks: np.ndarray
    positions: np.ndarray
    spacings: np.ndarray
    num_invalid: int = 0

    def __len__(self) -> int:
        return self.positions.shape[0]


def volumetric_sample(depth: DepthMap, cam, cfg: SamplingConfig) -> SampleBatch:
    """Sample K interior points per valid strided pixel.

    Output ordering is row-major over pixels with the k index innermost; an
    all-invalid depth map yields an empty batch.
    """
    s = cfg.stride
    valid = depth.valid_mask()[::s, ::s]
    vv, uu = (i * s for i in np.nonzero(valid))
    d = depth.values[vv, uu]
    pixels = np.stack([uu, vv], axis=-1).astype(np.float64)
    positions = backproject(cam, pixels[:, None, :], d[:, None] + sample_offsets(cfg))
    return SampleBatch(
        pixels=np.repeat(pixels, cfg.k, axis=0),
        ks=np.tile(np.arange(1, cfg.k + 1), d.size),
        positions=positions.reshape(-1, 3),
        spacings=np.full(d.size * cfg.k, cfg.spacing),
        num_invalid=valid.size - d.size,
    )
