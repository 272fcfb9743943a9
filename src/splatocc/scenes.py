"""Synthetic room scenes: analytic depth rendering and oracle occupancy.

A scene is a rectangular room whose interior spans (0, extent) on each axis,
wrapped by a solid shell of configurable thickness (floor, ceiling, walls),
plus axis-aligned solid boxes and flat wall patches (distinctly labeled
rectangles painted on a shell face). Rendering intersects camera rays with
this geometry analytically, so both the depth maps and the voxelized ground
truth are exact, independent references for the splatting pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np

from .camera import CameraModel, RigidTransform, ray_direction
from .gaussians import MAX_CLASSES
from .sampling import DepthMap
from .splatting import GridSpec, OccupancyGrid, _is_int

FLOOR_LABEL = 2
CEILING_LABEL = 1
WALL_LABEL = 3

_PATCHABLE_LABELS = (4, 5, 9, 10, 11)  # window, chair, tvs, furniture, objects
_MAX_LABEL = MAX_CLASSES - 1


# Voxel pitch of the stock grids; generated geometry snaps to it.
_VOXEL = 0.08
_FRONTAL_DIMS = (60, 60, 36)


@dataclass(frozen=True)
class Box:
    """Solid axis-aligned box with one semantic label."""

    min_corner: np.ndarray
    max_corner: np.ndarray
    label: int

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=np.float64)
        hi = np.asarray(self.max_corner, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,) or not np.all(np.isfinite([lo, hi]) & (hi > lo)):
            raise ValueError("box corners must be finite 3-vectors with max > min")
        if not (_is_int(self.label) and 1 <= self.label <= _MAX_LABEL):
            raise ValueError(f"box label must be an integer semantic class in 1..{_MAX_LABEL}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)


@dataclass(frozen=True)
class WallPatch:
    """Rectangle painted on one shell face, overriding its class label.

    ``axis``/``side`` pick the face (side "min" is the plane at coordinate 0,
    "max" the one at the room extent); ``lo``/``hi`` bound the rectangle in
    the two remaining axes, in ascending axis order.
    """

    axis: int
    side: str
    lo: tuple
    hi: tuple
    label: int

    def __post_init__(self):
        if not (_is_int(self.axis) and 0 <= self.axis <= 2 and self.side in ("min", "max")):
            raise ValueError("axis must be an integer 0..2 and side 'min' or 'max'")
        if not (np.shape(self.lo) == np.shape(self.hi) == (2,)
                and np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("patch bounds must be finite 2-vectors")
        if not (self.lo[0] < self.hi[0] and self.lo[1] < self.hi[1]):
            raise ValueError("patch rectangle must have positive area")
        if not (_is_int(self.label) and 1 <= self.label <= _MAX_LABEL):
            raise ValueError(f"patch label must be an integer semantic class in 1..{_MAX_LABEL}")


@dataclass(frozen=True)
class SyntheticScene:
    extent: np.ndarray
    shell_thickness: float = 0.48
    boxes: tuple = ()
    patches: tuple = ()

    def __post_init__(self):
        extent = np.asarray(self.extent, dtype=np.float64)
        if extent.shape != (3,) or not np.all(np.isfinite(extent) & (extent > 0)):
            raise ValueError("extent must be three finite lengths > 0")
        if not 0 < self.shell_thickness < np.inf:
            raise ValueError("shell_thickness must be finite and > 0")
        for box in self.boxes:
            if np.any(box.min_corner < 0) or np.any(box.max_corner > extent):
                raise ValueError("boxes must lie inside the room extent")
        extent.flags.writeable = False
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "patches", tuple(self.patches))

    @property
    def max_label(self) -> int:
        """The largest class id the scene can give a pixel or voxel."""
        return max(FLOOR_LABEL, CEILING_LABEL, WALL_LABEL, *(b.label for b in self.boxes),
                   *(p.label for p in self.patches))

    @property
    def outer_min(self) -> np.ndarray:
        return -self.shell_thickness * np.ones(3)

    @property
    def outer_max(self) -> np.ndarray:
        return self.extent + self.shell_thickness


def _slab_intervals(origin, dirs, lo, hi):
    """Per-ray (t_enter, t_exit) for an axis-aligned box, with the three
    per-axis entry and exit planes, from the direction planes ``dirs``;
    robust to zero direction components (parallel rays hit iff the origin
    is in the slab)."""
    tmin, tmax = [], []
    for o, d, l, u in zip(origin, dirs, lo, hi):
        with np.errstate(divide="ignore", invalid="ignore"):
            t1, t2 = (l - o) / d, (u - o) / d
            tmin.append(np.minimum(t1, t2))
            tmax.append(np.maximum(t1, t2, out=t1))
        parallel = d == 0.0
        if parallel.any():
            inf = np.inf if l <= o <= u else -np.inf
            tmin[-1][parallel], tmax[-1][parallel] = -inf, inf
    return reduce(np.maximum, tmin), reduce(np.minimum, tmax), tmin, tmax


def _shell_labels(scene: SyntheticScene, coords) -> np.ndarray:
    """Labels of shell points whose coordinates ``coords = (x, y, z)``
    broadcast together, the one rule that the renderer and the oracle share.
    The base label is floor at z <= 0, ceiling at z >= the room's height and
    wall between. A patch relabels the points in its face's slab (coordinate
    >= extent for side "max", <= 0 for "min") and closed rectangle whose base
    label is its face's; later patches override earlier ones."""
    z = coords[2]
    base = np.where(z <= 0, FLOOR_LABEL, np.where(z >= scene.extent[2], CEILING_LABEL, WALL_LABEL))
    labels = base.astype(np.uint8)
    for patch in scene.patches:
        a, (b, c) = patch.axis, [ax for ax in (0, 1, 2) if ax != patch.axis]
        top = patch.side == "max"
        # Grouped by the axes they read, so open-mesh terms stay small until the last &.
        region = (
            ((coords[a] >= scene.extent[a] if top else coords[a] <= 0)
             & (coords[b] >= patch.lo[0]) & (coords[b] <= patch.hi[0]))
            & ((base == (WALL_LABEL if a < 2 else CEILING_LABEL if top else FLOOR_LABEL))
               & (coords[c] >= patch.lo[1]) & (coords[c] <= patch.hi[1]))
        )
        labels = np.where(region, np.uint8(patch.label), labels)
    return labels


def _in_box(coords, lo, hi) -> np.ndarray:
    """Where broadcast coordinates (x, y, z) lie in the closed box [lo, hi]."""
    return reduce(np.logical_and, ((c >= l) & (c <= u) for c, l, u in zip(coords, lo, hi)))


def _shell_hits(scene: SyntheticScene, origin, dirs, inside_interior: bool):
    """Per-ray shell distance (inf on a miss) and the hit's label (0 on a miss)."""
    if inside_interior:
        # The shell is hit where the ray exits the open interior.
        _, shell_t, _, planes = _slab_intervals(origin, dirs, np.zeros(3), scene.extent)
        shell_ok = shell_t > 0
        lo, hi = np.zeros(3), scene.extent
    else:
        shell_t, t_exit, planes, _ = _slab_intervals(origin, dirs, scene.outer_min, scene.outer_max)
        shell_ok = (shell_t <= t_exit) & (shell_t > 0)
        lo, hi = scene.outer_min, scene.outer_max
    # The struck axis is the first whose plane gives shell_t, as argmin/argmax break ties.
    axis = np.where(planes[0] == shell_t, 0, np.where(planes[1] == shell_t, 1, 2))
    step = np.where(shell_ok, shell_t, 0.0)
    # Snap the hit onto the struck plane (the max one for a ray that exits up
    # its axis or enters down it): computed, a floor hit can land at z = +1 ulp,
    # and a wall hit at x = extent - 1 ulp, outside its patch's slab.
    plane = np.where((np.choose(axis, dirs) > 0) == inside_interior, hi[axis], lo[axis])
    point = [np.where(axis == a, plane, o + step * d) for a, (o, d) in enumerate(zip(origin, dirs))]
    return np.where(shell_ok, shell_t, np.inf), np.where(shell_ok, _shell_labels(scene, point), 0)


def render_depth(scene: SyntheticScene, cam: CameraModel):
    """Analytic depth + class id map for every pixel of ``cam``.

    Returns (DepthMap, class map) where depth holds the metric ray distance
    of the nearest surface hit (NaN on miss) and the class map records the
    hit surface's label (0 on miss). The camera must sit inside the room
    interior or entirely outside the shell.
    """
    # Every pixel's ray in one BLAS rotation, split into contiguous x, y and z planes.
    pix = np.stack(np.meshgrid(np.arange(cam.width), np.arange(cam.height)), axis=-1)
    dirs = tuple(np.moveaxis(cam.pose.rotate(ray_direction(cam, pix)), -1, 0).copy())
    origin = cam.position

    inside_interior = bool(np.all(origin > 0) and np.all(origin < scene.extent))
    if not inside_interior and np.all((origin >= scene.outer_min) & (origin <= scene.outer_max)):
        raise ValueError("camera may not start inside the solid shell")

    best_t, best_label = _shell_hits(scene, origin, dirs, inside_interior)
    for box in scene.boxes:
        t_enter, t_exit, _, _ = _slab_intervals(origin, dirs, box.min_corner, box.max_corner)
        hit = (t_enter <= t_exit) & (t_enter > 1e-12) & (t_enter < best_t)
        best_t = np.where(hit, t_enter, best_t)
        best_label[hit] = box.label

    depth = np.where(np.isfinite(best_t), best_t, np.nan)
    return DepthMap(depth), best_label


def oracle_occupancy(scene: SyntheticScene, spec: GridSpec) -> OccupancyGrid:
    """Exact voxelization: each voxel takes the label of the solid containing
    its center. Boxes override the shell, later boxes override earlier ones,
    and floor/ceiling take precedence over walls at shell corners."""
    coords = np.ix_(*spec.center_axes())
    interior = reduce(np.logical_and, ((c > 0) & (c < e) for c, e in zip(coords, scene.extent)))
    shell = _in_box(coords, scene.outer_min, scene.outer_max) & ~interior
    labels = np.where(shell, _shell_labels(scene, coords), 0)
    for box in scene.boxes:
        labels[_in_box(coords, box.min_corner, box.max_corner)] = box.label
    return OccupancyGrid(spec=spec, labels=labels, scores=(labels > 0).astype(np.float64))


# Camera forward (+z) maps to world +x before yaw; world +z stays image-up.
_BASE_ROTATION = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


def standard_pose(position, yaw_deg: float = 0.0) -> RigidTransform:
    """Upright camera pose at ``position`` looking horizontally; yaw rotates
    the view direction counterclockwise (seen from above) away from +x."""
    yaw = np.deg2rad(yaw_deg)
    rz = np.array(
        [
            [np.cos(yaw), -np.sin(yaw), 0.0],
            [np.sin(yaw), np.cos(yaw), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return RigidTransform(rz @ _BASE_ROTATION, np.asarray(position, dtype=np.float64))


def standard_camera(position, yaw_deg: float = 0.0, width: int = 240, height: int = 180,
                    focal: float = 260.0) -> CameraModel:
    return CameraModel(
        fx=focal, fy=focal, cx=width / 2.0, cy=height / 2.0,
        width=width, height=height, pose=standard_pose(position, yaw_deg),
    )


def frontal_grid(cam: CameraModel) -> GridSpec:
    """The stock single-view grid, 60 x 60 x 36 voxels of 0.08 m (12
    classes), placed in front of an upright camera: the volume starts at the
    camera plane along its (cardinal) view direction, is centered
    laterally, and rests on z = 0."""
    dims, voxel_size = _FRONTAL_DIMS, _VOXEL
    forward = cam.pose.rotation @ np.array([0.0, 0.0, 1.0])
    axis = int(np.argmax(np.abs(forward[:2])))
    sign = 1.0 if forward[axis] > 0 else -1.0
    lateral = 1 - axis
    origin = np.zeros(3)
    origin[axis] = cam.position[axis] if sign > 0 else cam.position[axis] - dims[axis] * voxel_size
    origin[lateral] = cam.position[lateral] - dims[lateral] * voxel_size / 2.0
    origin[2] = 0.0
    origin = np.round(origin / voxel_size) * voxel_size
    return GridSpec(dims, voxel_size, origin)


def scene_grid(scene: SyntheticScene, num_classes: int = 12) -> GridSpec:
    """Scene-level grid of 0.08 m voxels covering the room plus its shell."""
    return GridSpec.for_extent(scene.outer_min, scene.outer_max, _VOXEL, num_classes)


def _quantize(value):
    return float(np.round(value / _VOXEL) * _VOXEL)


def generate_frontal_room(seed: int, shell_thickness: float = 0.48,
                          num_patches=(2, 4)) -> tuple:
    """Seeded room viewed head-on: the camera looks along +x at the far wall,
    which carries a few distinctly labeled flat patches.

    Geometry is quantized to the 0.08 m voxel pitch and kept so that every
    camera ray lands on the far wall (floor, ceiling and side walls stay
    outside the view). Returns (scene, camera).
    """
    rng = np.random.default_rng(seed)
    ext_x = _quantize(rng.uniform(3.3, 4.2))
    ext_y = _quantize(rng.uniform(4.8, 5.6))
    ext_z = 2.88
    cam_pos = np.array([0.24, _quantize(ext_y / 2.0), 1.44])

    n_patches = int(rng.integers(num_patches[0], num_patches[1] + 1))
    labels = rng.choice(_PATCHABLE_LABELS, size=n_patches, replace=False)
    patches = []
    attempts = 0
    while len(patches) < n_patches and attempts < 200:
        attempts += 1
        width = _quantize(rng.uniform(0.8, 1.2))
        height = _quantize(rng.uniform(0.56, 0.8))
        y0 = _quantize(rng.uniform(cam_pos[1] - 1.2, cam_pos[1] + 1.2 - width))
        z0 = _quantize(rng.uniform(0.72, 2.16 - height))
        lo, hi = (y0, z0), (y0 + width, z0 + height)
        if any(lo[0] < p.hi[0] and p.lo[0] < hi[0] and lo[1] < p.hi[1] and p.lo[1] < hi[1]
               for p in patches):
            continue
        patches.append(WallPatch(axis=0, side="max", lo=lo, hi=hi,
                                 label=int(labels[len(patches)])))

    scene = SyntheticScene(
        extent=np.array([ext_x, ext_y, ext_z]),
        shell_thickness=shell_thickness,
        patches=tuple(patches),
    )
    return scene, standard_camera(cam_pos)


def thick_box_room() -> tuple:
    """Room with one box 1.2 m deep, much deeper than the sampling extent,
    for studying how interior coverage grows with the per-ray sample count.

    Returns (scene, camera, box).
    """
    extent = np.array([4.4, 4.8, 2.88])
    cam_pos = np.array([0.24, 2.4, 1.44])
    box = Box(
        min_corner=np.array([2.0, 1.6, 0.8]),
        max_corner=np.array([3.2, 3.2, 2.08]),
        label=5,
    )
    scene = SyntheticScene(extent=extent, boxes=(box,))
    return scene, standard_camera(cam_pos), box
