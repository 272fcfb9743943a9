"""End-to-end composition: depth maps to occupancy grids, single view or streaming."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .camera import CameraModel, to_world
from .fusion import FusionConfig, GaussianMemoryBank
from .gaussians import (
    DEFAULT_PRUNE_TAU,
    AttributeConfig,
    GaussianSet,
    heuristic_attributes_batch,
    prune,
)
from .metrics import DEFAULT_FAR, DEFAULT_NEAR
from .sampling import DepthMap, SamplingConfig, volumetric_sample
from .splatting import DEFAULT_THETA_OCC, GridSpec, OccupancyGrid, splat


@dataclass(frozen=True)
class PipelineConfig:
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    attributes: AttributeConfig = field(default_factory=AttributeConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    tau: float = DEFAULT_PRUNE_TAU
    theta_occ: float = DEFAULT_THETA_OCC
    near: float = DEFAULT_NEAR
    far: float = DEFAULT_FAR

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if not 0.0 <= self.theta_occ <= 1.0:
            raise ValueError("theta_occ must lie in [0, 1]")
        if not 0 < self.near < self.far:
            raise ValueError("need 0 < near < far")


# Flat config-file keys and the nested attribute each one maps to.
_CONFIG_FIELDS = {
    "k": ("sampling", "k", int),
    "scale": ("sampling", "scale", float),
    "stride": ("sampling", "stride", int),
    "num_classes": ("attributes", "num_classes", int),
    "sigma_factor": ("attributes", "sigma_factor", float),
    "base_opacity": ("attributes", "base_opacity", float),
    "opacity_decay": ("attributes", "opacity_decay", float),
    "logit_gain": ("attributes", "logit_gain", float),
    "epsilon": ("fusion", "epsilon", float),
    "gamma": ("fusion", "gamma", float),
    "tau": (None, "tau", float),
    "theta_occ": (None, "theta_occ", float),
    "near": (None, "near", float),
    "far": (None, "far", float),
}


def config_from_mapping(mapping: dict) -> PipelineConfig:
    """Build a PipelineConfig from flat "key = value" settings; unknown keys
    are ignored so camera and grid settings can share the file."""
    cfg = PipelineConfig()
    groups: dict = {"sampling": {}, "attributes": {}, "fusion": {}, None: {}}
    for key, value in mapping.items():
        if key in _CONFIG_FIELDS:
            group, attr, cast = _CONFIG_FIELDS[key]
            groups[group][attr] = cast(value)
    if groups["sampling"]:
        cfg = replace(cfg, sampling=replace(cfg.sampling, **groups["sampling"]))
    if groups["attributes"]:
        cfg = replace(cfg, attributes=replace(cfg.attributes, **groups["attributes"]))
    if groups["fusion"]:
        cfg = replace(cfg, fusion=replace(cfg.fusion, **groups["fusion"]))
    if groups[None]:
        cfg = replace(cfg, **groups[None])
    return cfg


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

    Returns (bank, occupancy grid).
    """
    bank = GaussianMemoryBank(cfg.attributes.num_classes, cfg.fusion)
    for depth, classes, cam in frames:
        bank.fuse_frame(frame_gaussians(depth, classes, cam, cfg))
    return bank, splat(bank.to_set(), grid, theta_occ=cfg.theta_occ)
