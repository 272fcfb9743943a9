"""Binary and text file formats.

All binary formats are little-endian and seekable:

DMAP1   magic "DMAP1", u32 width, u32 height, width*height f32 ray
        distances row-major; NaN marks invalid pixels.
CMAP1   magic "CMAP1", u32 width, u32 height, width*height u8 class ids.
GSET2   magic "GSET2", u32 count, u32 num_classes, then per Gaussian
        3*f64 mean, 6*f64 covariance upper triangle (xx, xy, xz, yy, yz,
        zz), f64 opacity, num_classes*f64 logits. The covariance is stored
        as kept in memory, in full precision, so round trips are exact; the
        loader rejects one that is not finite and positive definite. No
        frame tag is stored: every set the package writes is world frame,
        and the loader tags what it reads as world frame.
OGRID1  magic "OGRID1", u32 X, u32 Y, u32 Z, u32 num_classes,
        f32 voxel_size, 3*f32 origin, X*Y*Z u8 labels (0 = empty),
        X*Y*Z f32 scores. Arrays are C order with z fastest.

Scenes serialize to JSON; pipeline settings use a flat "key = value" text
format with # comments.

All four binary formats go through one writer (``_save``) and one checked
reader (``_reading`` plus ``_read``): the magic is checked, and every array
is checked against the bytes left in the file before it is allocated. Any
malformed input, binary, scene JSON or config alike, raises one ValueError
line that starts with the file's path.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .gaussians import MAX_CLASSES, GaussianSet, WORLD_FRAME
from .sampling import DepthMap
from .scenes import CEILING_LABEL, FLOOR_LABEL, WALL_LABEL, Box, SyntheticScene, WallPatch
from .splatting import GridSpec, OccupancyGrid

_DMAP_MAGIC = b"DMAP1"
_CMAP_MAGIC = b"CMAP1"
_GSET_MAGIC = b"GSET2"
_UPPER = np.triu_indices(3)
_OGRID_MAGIC = b"OGRID1"


def _save(path, magic: bytes, header_fmt: str, header, *arrays) -> None:
    """Write magic, the header packed by header_fmt, then each (array, dtype) in C order."""
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack(header_fmt, *header))
        for array, dtype in arrays:
            f.write(np.ascontiguousarray(array, dtype=dtype).tobytes())


@contextmanager
def _named(path):
    """Re-raise any ValueError from the block as one line that names path."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextmanager
def _reading(path, magic: bytes, header_fmt: str):
    """(open file, unpacked header) past a checked magic; any ValueError
    raised while reading or building the object names path."""
    with _named(path), open(path, "rb") as f:
        got = f.read(len(magic))
        if got != magic:
            raise ValueError(f"bad magic {got!r}, expected {magic.decode()}")
        header = _read(f, np.uint8, struct.calcsize(header_fmt), "header")
        yield f, struct.unpack(header_fmt, header)


def _read(f, dtype, count: int, what: str) -> np.ndarray:
    """count items of dtype, read-only. Checked against the file size first, so
    a corrupt header count fails here instead of allocating a buffer that size."""
    need = np.dtype(dtype).itemsize * count
    left = os.fstat(f.fileno()).st_size - f.tell()
    if need > left:
        raise ValueError(f"truncated file while reading {what}: need {need} bytes, {left} left")
    data = f.read(need)
    if len(data) != need:
        raise ValueError(f"truncated file while reading {what}")
    return np.frombuffer(data, dtype=dtype)


def save_depth_map(path, depth: DepthMap) -> None:
    _save(path, _DMAP_MAGIC, "<II", (depth.width, depth.height), (depth.values, "<f4"))


def load_depth_map(path) -> DepthMap:
    with _reading(path, _DMAP_MAGIC, "<II") as (f, (width, height)):
        values = _read(f, "<f4", width * height, "depth values")
        return DepthMap(values.reshape(height, width).astype(np.float64))


def save_class_map(path, classes: np.ndarray) -> None:
    classes = np.asarray(classes)
    if classes.ndim != 2:
        raise ValueError("class map must be 2-d")
    if classes.dtype.kind not in "iu" or np.any((classes < 0) | (classes >= MAX_CLASSES)):
        raise ValueError(f"class map must hold integer class ids in 0..{MAX_CLASSES - 1}")
    _save(path, _CMAP_MAGIC, "<II", (classes.shape[1], classes.shape[0]), (classes, np.uint8))


def load_class_map(path) -> np.ndarray:
    with _reading(path, _CMAP_MAGIC, "<II") as (f, (width, height)):
        return _read(f, np.uint8, width * height, "class ids").reshape(height, width).copy()


def save_gaussians(path, gset: GaussianSet) -> None:
    if gset.frame != WORLD_FRAME:
        raise ValueError("GSET2 stores world-frame sets only")
    record = np.empty((len(gset), 10 + gset.num_classes), dtype="<f8")
    record[:, 0:3] = gset.means
    record[:, 3:9] = gset.cov[:, _UPPER[0], _UPPER[1]]
    record[:, 9] = gset.opacities
    record[:, 10:] = gset.logits
    _save(path, _GSET_MAGIC, "<II", (len(gset), gset.num_classes), (record, "<f8"))


def load_gaussians(path) -> GaussianSet:
    with _reading(path, _GSET_MAGIC, "<II") as (f, (n, nc)):
        if not 2 <= nc <= MAX_CLASSES:
            raise ValueError(f"class count {nc} out of range")
        record = _read(f, "<f8", n * (10 + nc), "gaussian records").reshape(n, 10 + nc)
        cov = np.empty((n, 3, 3))
        cov[:, _UPPER[0], _UPPER[1]] = record[:, 3:9]
        cov[:, _UPPER[1], _UPPER[0]] = record[:, 3:9]
        return GaussianSet.from_covariances(record[:, 0:3], cov, record[:, 9], record[:, 10:],
                                            WORLD_FRAME)


def save_grid(path, grid: OccupancyGrid) -> None:
    spec = grid.spec
    header = (*spec.dims, spec.num_classes, spec.voxel_size, *spec.origin)
    _save(path, _OGRID_MAGIC, "<IIIIffff", header, (grid.labels, np.uint8), (grid.scores, "<f4"))


def load_grid(path) -> OccupancyGrid:
    with _reading(path, _OGRID_MAGIC, "<IIIIffff") as (f, (x, y, z, nc, voxel_size, *origin)):
        labels = _read(f, np.uint8, x * y * z, "labels")
        scores = _read(f, "<f4", x * y * z, "scores")
        spec = GridSpec((x, y, z), voxel_size, np.array(origin), nc)
        return OccupancyGrid(spec=spec, labels=labels.reshape(spec.dims).copy(),
                             scores=scores.reshape(spec.dims).astype(np.float64))


def save_scene(path, scene: SyntheticScene) -> None:
    payload = {
        "extent": list(scene.extent),
        "shell_thickness": scene.shell_thickness,
        "boxes": [
            {"min": list(b.min_corner), "max": list(b.max_corner), "label": int(b.label)}
            for b in scene.boxes
        ],
        "patches": [
            {
                "axis": int(p.axis),
                "side": p.side,
                "lo": list(p.lo),
                "hi": list(p.hi),
                "label": int(p.label),
            }
            for p in scene.patches
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_scene(path) -> SyntheticScene:
    with _named(path):
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError("scene JSON must be an object at the top level")
        for field in ("boxes", "patches"):
            items = payload.get(field, [])
            if not (isinstance(items, list) and all(isinstance(x, dict) for x in items)):
                raise ValueError(f"scene JSON field {field!r} must be a list of objects")
        for field, label in (("floor_label", FLOOR_LABEL), ("ceiling_label", CEILING_LABEL),
                             ("wall_label", WALL_LABEL)):  # older files hold the fixed ids
            if payload.get(field, label) != label:
                raise ValueError(f"scene JSON field {field!r} must be {label}, its fixed class id")
        try:
            return SyntheticScene(
                extent=np.asarray(payload["extent"], dtype=np.float64),
                shell_thickness=float(payload["shell_thickness"]),
                boxes=tuple(
                    Box(np.asarray(b["min"]), np.asarray(b["max"]), b["label"])
                    for b in payload.get("boxes", ())
                ),
                patches=tuple(
                    WallPatch(
                        axis=p["axis"], side=p["side"],
                        lo=tuple(p["lo"]), hi=tuple(p["hi"]), label=p["label"],
                    )
                    for p in payload.get("patches", ())
                ),
            )
        except KeyError as exc:
            raise ValueError(f"scene JSON lacks field {exc.args[0]!r}") from None
        except (TypeError, IndexError, ValueError) as exc:
            raise ValueError(f"malformed scene JSON: {exc}") from None


def load_lines(path, parse) -> list:
    """parse(line) for each line of the text file at path, # comment stripped,
    blank lines skipped; any error names path, and one from parse its line."""
    out = []
    with _named(path):
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                try:
                    out.append(parse(stripped))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
    return out


def _config_pair(line: str) -> tuple:
    if "=" not in line:
        raise ValueError("expected 'key = value'")
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def load_config(path) -> dict:
    """Flat "key = value" lines; # starts a comment, blank lines ignored."""
    return dict(load_lines(path, _config_pair))
