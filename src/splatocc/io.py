"""Binary and text file formats.

All binary formats are little-endian and seekable:

DMAP1   magic "DMAP1", u32 width, u32 height, width*height f32 ray
        distances row-major; NaN marks invalid pixels.
CMAP1   magic "CMAP1", u32 width, u32 height, width*height u8 class ids.
GSET2   magic "GSET2", u32 count, u32 num_classes, then per Gaussian
        3*f64 mean, 6*f64 covariance upper triangle (xx, xy, xz, yy, yz,
        zz), f64 opacity, num_classes*f64 logits. The covariance is stored
        as kept in memory, in full precision, so round trips are exact; the
        loader rejects one that is not finite and positive definite. The
        frame tag is not stored; the loader takes it as a parameter
        (defaults to world).
OGRID1  magic "OGRID1", u32 X, u32 Y, u32 Z, u32 num_classes,
        f32 voxel_size, 3*f32 origin, X*Y*Z u8 labels (0 = empty),
        X*Y*Z f32 scores. Arrays are C order with z fastest.

Scenes serialize to JSON; pipeline settings use a flat "key = value" text
format with # comments.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .gaussians import GaussianSet, WORLD_FRAME
from .sampling import DepthMap
from .scenes import Box, SyntheticScene, WallPatch
from .splatting import GridSpec, OccupancyGrid

_DMAP_MAGIC = b"DMAP1"
_CMAP_MAGIC = b"CMAP1"
_GSET_MAGIC = b"GSET2"
_UPPER = np.triu_indices(3)
_OGRID_MAGIC = b"OGRID1"


def _read_exact(f, count: int, what: str) -> bytes:
    # Checked against the file size first, so a corrupt header count fails
    # here instead of allocating a buffer of that size.
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise ValueError(f"truncated file while reading {what}: need {count} bytes, {left} left")
    data = f.read(count)
    if len(data) != count:
        raise ValueError(f"truncated file while reading {what}")
    return data


def _check_magic(f, magic: bytes, path) -> None:
    got = f.read(len(magic))
    if got != magic:
        raise ValueError(f"{path}: bad magic {got!r}, expected {magic.decode()}")


def save_depth_map(path, depth: DepthMap) -> None:
    with open(path, "wb") as f:
        f.write(_DMAP_MAGIC)
        f.write(struct.pack("<II", depth.width, depth.height))
        f.write(np.ascontiguousarray(depth.values, dtype="<f4").tobytes())


def load_depth_map(path) -> DepthMap:
    with open(path, "rb") as f:
        _check_magic(f, _DMAP_MAGIC, path)
        width, height = struct.unpack("<II", _read_exact(f, 8, "header"))
        raw = _read_exact(f, 4 * width * height, "depth values")
        values = np.frombuffer(raw, dtype="<f4").reshape(height, width)
    return DepthMap(values.astype(np.float64))


def save_class_map(path, classes: np.ndarray) -> None:
    classes = np.asarray(classes)
    if classes.ndim != 2:
        raise ValueError("class map must be 2-d")
    with open(path, "wb") as f:
        f.write(_CMAP_MAGIC)
        f.write(struct.pack("<II", classes.shape[1], classes.shape[0]))
        f.write(np.ascontiguousarray(classes, dtype=np.uint8).tobytes())


def load_class_map(path) -> np.ndarray:
    with open(path, "rb") as f:
        _check_magic(f, _CMAP_MAGIC, path)
        width, height = struct.unpack("<II", _read_exact(f, 8, "header"))
        raw = _read_exact(f, width * height, "class ids")
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width).copy()


def save_gaussians(path, gset: GaussianSet) -> None:
    n = len(gset)
    nc = gset.num_classes
    record = np.empty((n, 10 + nc), dtype="<f8")
    record[:, 0:3] = gset.means
    record[:, 3:9] = gset.cov[:, _UPPER[0], _UPPER[1]]
    record[:, 9] = gset.opacities
    record[:, 10:] = gset.logits
    with open(path, "wb") as f:
        f.write(_GSET_MAGIC)
        f.write(struct.pack("<II", n, nc))
        f.write(record.tobytes())


def load_gaussians(path, frame: str = WORLD_FRAME) -> GaussianSet:
    with open(path, "rb") as f:
        _check_magic(f, _GSET_MAGIC, path)
        n, nc = struct.unpack("<II", _read_exact(f, 8, "header"))
        if nc < 2:
            raise ValueError(f"{path}: class count {nc} out of range")
        raw = _read_exact(f, 8 * n * (10 + nc), "gaussian records")
    record = np.frombuffer(raw, dtype="<f8").reshape(n, 10 + nc)
    cov = np.empty((n, 3, 3))
    cov[:, _UPPER[0], _UPPER[1]] = record[:, 3:9]
    cov[:, _UPPER[1], _UPPER[0]] = record[:, 3:9]
    try:
        return GaussianSet.from_covariances(record[:, 0:3], cov, record[:, 9], record[:, 10:],
                                            frame)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_grid(path, grid: OccupancyGrid) -> None:
    spec = grid.spec
    with open(path, "wb") as f:
        f.write(_OGRID_MAGIC)
        f.write(struct.pack("<IIII", *spec.dims, spec.num_classes))
        f.write(struct.pack("<f", spec.voxel_size))
        f.write(np.asarray(spec.origin, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(grid.labels, dtype=np.uint8).tobytes())
        f.write(np.ascontiguousarray(grid.scores, dtype="<f4").tobytes())


def load_grid(path) -> OccupancyGrid:
    with open(path, "rb") as f:
        _check_magic(f, _OGRID_MAGIC, path)
        x, y, z, nc = struct.unpack("<IIII", _read_exact(f, 16, "dims"))
        (voxel_size,) = struct.unpack("<f", _read_exact(f, 4, "voxel size"))
        origin = np.frombuffer(_read_exact(f, 12, "origin"), dtype="<f4").astype(np.float64)
        nv = x * y * z
        labels = np.frombuffer(_read_exact(f, nv, "labels"), dtype=np.uint8)
        scores = np.frombuffer(_read_exact(f, 4 * nv, "scores"), dtype="<f4")
    spec = GridSpec((x, y, z), float(voxel_size), origin, nc)
    return OccupancyGrid(
        spec=spec,
        labels=labels.reshape(spec.dims).copy(),
        scores=scores.reshape(spec.dims).astype(np.float64),
    )


def save_scene(path, scene: SyntheticScene) -> None:
    payload = {
        "extent": list(scene.extent),
        "shell_thickness": scene.shell_thickness,
        "floor_label": scene.floor_label,
        "ceiling_label": scene.ceiling_label,
        "wall_label": scene.wall_label,
        "boxes": [
            {"min": list(b.min_corner), "max": list(b.max_corner), "label": b.label}
            for b in scene.boxes
        ],
        "patches": [
            {
                "axis": p.axis,
                "side": p.side,
                "lo": list(p.lo),
                "hi": list(p.hi),
                "label": p.label,
            }
            for p in scene.patches
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_scene(path) -> SyntheticScene:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: scene JSON must be an object at the top level")
    for field in ("boxes", "patches"):
        items = payload.get(field, [])
        if not (isinstance(items, list) and all(isinstance(x, dict) for x in items)):
            raise ValueError(f"{path}: scene JSON field {field!r} must be a list of objects")
    try:
        return SyntheticScene(
            extent=np.asarray(payload["extent"], dtype=np.float64),
            shell_thickness=float(payload["shell_thickness"]),
            boxes=tuple(
                Box(np.asarray(b["min"]), np.asarray(b["max"]), int(b["label"]))
                for b in payload.get("boxes", ())
            ),
            patches=tuple(
                WallPatch(
                    axis=int(p["axis"]), side=p["side"],
                    lo=tuple(p["lo"]), hi=tuple(p["hi"]), label=int(p["label"]),
                )
                for p in payload.get("patches", ())
            ),
            floor_label=int(payload.get("floor_label", 2)),
            ceiling_label=int(payload.get("ceiling_label", 1)),
            wall_label=int(payload.get("wall_label", 3)),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: scene JSON lacks field {exc.args[0]!r}") from None
    except (TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed scene JSON: {exc}") from None


def parse_config(text: str) -> dict:
    """Flat "key = value" lines; # starts a comment, blank lines ignored."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(path) -> dict:
    return parse_config(Path(path).read_text())
