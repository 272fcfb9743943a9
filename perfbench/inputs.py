"""Seeded inputs for the three workloads, built only through splatocc's
public scene, camera and metric functions.

Every workload uses the stock configuration (k=16, scale 0.48, stride 4,
no opacity decay, tau 0.01, theta_occ 0.6, epsilon 0.08, gamma 0.4). The
same seed always gives the same scenes, poses, depth maps, oracle grids and
frustum masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import splatocc as so

CONFIG = so.PipelineConfig(
    sampling=so.SamplingConfig(k=16, scale=0.48, stride=4),
    attributes=so.AttributeConfig(opacity_decay=0.0),
    fusion=so.FusionConfig(epsilon=0.08, gamma=0.4),
    tau=0.01,
    theta_occ=0.6,
)

VOXEL = 0.08
PATCH_LABELS = (4, 5, 9, 10, 11)      # window, chair, tvs, furniture, objects
FURNITURE_LABELS = (6, 7, 8, 10)      # bed, sofa, table, furniture

# Run lengths. A mono pool is cycled for the whole run; a stream is one
# run_streaming call, repeated for the whole run.
MONO_POOL = 10
# Out, back and out again: 7 frames grow the bank, the 12 after revisit it,
# so the median frame is a revisiting one rather than one at the boundary.
REVISIT_YAWS = (-30, -20, -10, 0, 10, 20, 30, 20, 10, 0, -10, -20, -30, -20, -10, 0, 10, 20, 30)
EXPLORE_STEPS = 10
EXPLORE_STEP_M = 1.2
# Reduced sizes for the benchmark's own test.
TINY_MONO_POOL = 1
TINY_REVISIT_YAWS = (-10, 0, 10, 0)
TINY_EXPLORE_STEPS = 2


def _q(value):
    """Snap to the voxel pitch so scene edges fall between voxel centres."""
    return float(np.round(value / VOXEL) * VOXEL)


@dataclass
class MonoFrame:
    """One seeded frontal room: its rendered view, grid, oracle and mask."""

    depth: so.DepthMap
    classes: np.ndarray
    cam: so.CameraModel
    grid: so.GridSpec
    gt: so.OccupancyGrid
    mask: np.ndarray


@dataclass
class Stream:
    """A posed frame sequence through one scene, its scene grid, the oracle
    and the union of the frames' frustum masks."""

    frames: list
    grid: so.GridSpec
    gt: so.OccupancyGrid
    mask: np.ndarray


def mono_rooms(seed: int, tracer, tiny: bool = False) -> list:
    rng = np.random.default_rng(seed)
    pool = []
    for scene_seed in rng.integers(0, 2**31 - 1, TINY_MONO_POOL if tiny else MONO_POOL):
        with tracer.span("scenes.generate_frontal_room"):
            scene, cam = so.generate_frontal_room(int(scene_seed))
        with tracer.span("scenes.render_depth"):
            depth, classes = so.render_depth(scene, cam)
        grid = so.frontal_grid(cam)
        with tracer.span("scenes.oracle_occupancy"):
            gt = so.oracle_occupancy(scene, grid)
        with tracer.span("metrics.frustum_mask"):
            mask = so.frustum_mask(grid, cam)
        pool.append(MonoFrame(depth, classes, cam, grid, gt, mask))
    return pool


# Furnished room: (x0, y0, size x, size y, height) per box, and (y0, z0,
# width, height, label) per far-wall patch. A seed shifts each item by up to
# two voxels and permutes the furniture labels, so every seed keeps the same
# amount of furniture, occlusion and class mix.
_FURNITURE = ((2.96, 0.48, 0.80, 1.28, 0.80), (1.92, 2.08, 0.64, 0.64, 1.20),
              (2.80, 3.20, 0.96, 1.04, 1.20), (3.36, 2.08, 0.40, 0.80, 1.60))
_FAR_WALL_PATCHES = ((0.64, 1.68, 1.04, 0.64, 4), (3.04, 1.76, 0.80, 0.48, 9))


def _shift(rng):
    return VOXEL * int(rng.integers(-2, 3))


def _furnished_room(rng) -> so.SyntheticScene:
    """4.0 x 4.8 x 2.88 m room: four floor-standing boxes at least 1.5 m in
    front of the camera wall and two patches on the far wall."""
    labels = rng.permutation(FURNITURE_LABELS)
    boxes = []
    for (x0, y0, sx, sy, sz), label in zip(_FURNITURE, labels):
        x0, y0 = _q(x0 + _shift(rng)), _q(y0 + _shift(rng))
        boxes.append(so.Box(np.array([x0, y0, 0.0]), np.array([x0 + sx, y0 + sy, sz]), int(label)))
    patches = []
    for y0, z0, width, height, label in _FAR_WALL_PATCHES:
        y0 = _q(y0 + _shift(rng))
        patches.append(so.WallPatch(axis=0, side="max", lo=(y0, z0), hi=(y0 + width, z0 + height),
                                    label=label))
    return so.SyntheticScene(extent=np.array([4.0, 4.8, 2.88]), shell_thickness=0.48,
                             boxes=tuple(boxes), patches=tuple(patches))


def _corridor(rng, steps: int) -> tuple:
    """Corridor 2.4 m wide; the camera walks along x facing the +y wall
    1.2 m away. Each step has two 0.32 x 0.4 m patches side by side inside
    the view on that wall, each shifted along it by up to a voxel per seed,
    their labels cycling through PATCH_LABELS from a seeded start."""
    length = (steps - 1) * EXPLORE_STEP_M + 1.2
    xs = [0.6 + EXPLORE_STEP_M * i for i in range(steps)]
    label = int(rng.integers(len(PATCH_LABELS)))
    patches = []
    for x in xs:
        for left in (x - 0.40, x + 0.08):
            x0 = _q(left + VOXEL * int(rng.integers(-1, 2)))
            patches.append(so.WallPatch(axis=1, side="max", lo=(x0, 1.2), hi=(x0 + 0.32, 1.6),
                                        label=PATCH_LABELS[label % len(PATCH_LABELS)]))
            label += 1
    scene = so.SyntheticScene(extent=np.array([length, 2.4, 2.88]), shell_thickness=0.48,
                              patches=tuple(patches))
    return scene, [so.standard_camera([x, 1.2, 1.44], yaw_deg=90.0) for x in xs]


def _stream(scene, cams, tracer) -> Stream:
    frames = []
    for cam in cams:
        with tracer.span("scenes.render_depth"):
            depth, classes = so.render_depth(scene, cam)
        frames.append((depth, classes, cam))
    grid = so.scene_grid(scene)
    with tracer.span("scenes.oracle_occupancy"):
        gt = so.oracle_occupancy(scene, grid)
    mask = np.zeros(grid.dims, dtype=bool)
    for cam in cams:
        with tracer.span("metrics.frustum_mask"):
            mask |= so.frustum_mask(grid, cam)
    return Stream(frames, grid, gt, mask)


def stream_revisit(seed: int, tracer, tiny: bool = False) -> Stream:
    scene = _furnished_room(np.random.default_rng(seed))
    yaws = TINY_REVISIT_YAWS if tiny else REVISIT_YAWS
    return _stream(scene, [so.standard_camera([0.4, 2.4, 1.44], yaw_deg=y) for y in yaws], tracer)


def stream_explore(seed: int, tracer, tiny: bool = False) -> Stream:
    scene, cams = _corridor(np.random.default_rng(seed), TINY_EXPLORE_STEPS if tiny else EXPLORE_STEPS)
    return _stream(scene, cams, tracer)
