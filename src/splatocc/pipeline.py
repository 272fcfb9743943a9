"""End-to-end composition: depth maps to occupancy grids, single view or streaming."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .camera import CameraModel, to_world
from .fusion import FusionConfig, GaussianMemoryBank
from .gaussians import (
    DEFAULT_PRUNE_TAU,
    AttributeConfig,
    GaussianSet,
    _is_real,
    heuristic_attributes_batch,
    prune,
)
from .sampling import DepthMap, SamplingConfig, volumetric_sample
from .splatting import DEFAULT_THETA_OCC, GridSpec, OccupancyGrid, splat


@dataclass(frozen=True)
class PipelineConfig:
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    attributes: AttributeConfig = field(default_factory=AttributeConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    tau: float = DEFAULT_PRUNE_TAU
    theta_occ: float = DEFAULT_THETA_OCC

    def __post_init__(self):
        if not (_is_real(self.tau) and 0.0 <= self.tau <= 1.0):
            raise ValueError("tau must lie in [0, 1]")
        if not (_is_real(self.theta_occ) and 0.0 <= self.theta_occ <= 1.0):
            raise ValueError("theta_occ must lie in [0, 1]")


def _config_fields():
    """(group, key, default) per flat settings key: each field of PipelineConfig
    (group None) and of the configs nested in it (group = the nesting field)."""
    default = PipelineConfig()
    for f in fields(default):
        value = getattr(default, f.name)
        if is_dataclass(value):
            yield from ((f.name, g.name, getattr(value, g.name)) for g in fields(value))
        else:
            yield None, f.name, value


def config_types() -> dict:
    """Flat settings key -> type, the type of that field's default."""
    return {key: type(default) for _, key, default in _config_fields()}


def config_from_mapping(mapping: dict) -> PipelineConfig:
    """Build a PipelineConfig from flat "key = value" settings, each value cast
    to its key's type; unknown keys are ignored so camera and grid settings
    can share the file."""
    cfg = PipelineConfig()
    groups: dict = {}
    for group, key, default in _config_fields():
        if key in mapping:
            groups.setdefault(group, {})[key] = type(default)(mapping[key])
    nested = {group: replace(getattr(cfg, group), **values)
              for group, values in groups.items() if group is not None}
    return replace(cfg, **nested, **groups.get(None, {}))


def frame_gaussians(depth: DepthMap, classes: np.ndarray, cam: CameraModel,
                    cfg: PipelineConfig) -> GaussianSet:
    """One frame's contribution: sample interior points, attach heuristic
    attributes labeled by the per-pixel class map, transform to world frame,
    and prune by opacity."""
    classes = np.asarray(classes)
    if classes.shape != depth.values.shape:
        raise ValueError("class map shape must match the depth map")
    batch = volumetric_sample(depth, cam, cfg.sampling)
    cols = batch.pixels[:, 0].astype(np.int64)
    rows = batch.pixels[:, 1].astype(np.int64)
    labels = classes[rows, cols]
    gaussians = heuristic_attributes_batch(batch, labels, cfg.attributes)
    return prune(to_world(cam, gaussians), cfg.tau)


def run_monocular(depth: DepthMap, classes: np.ndarray, cam: CameraModel,
                  grid: GridSpec, cfg: PipelineConfig = PipelineConfig()) -> OccupancyGrid:
    """Single-view pipeline; deterministic for fixed inputs."""
    return splat(frame_gaussians(depth, classes, cam, cfg), grid, theta_occ=cfg.theta_occ)


def run_streaming(frames, grid: GridSpec, cfg: PipelineConfig = PipelineConfig()):
    """Fuse a temporally ordered sequence of (depth, class map, camera)
    frames into a memory bank, then splat the bank into the scene grid.
    The splat reads the bank's arrays, trimmed of their buffers' spare rows,
    through read-only views, not a ``bank.to_set()`` copy.

    Returns (bank, occupancy grid).
    """
    bank = GaussianMemoryBank(cfg.attributes.num_classes, cfg.fusion)
    for depth, classes, cam in frames:
        bank.fuse_frame(frame_gaussians(depth, classes, cam, cfg))
    return bank, splat(bank._members(), grid, theta_occ=cfg.theta_occ)
