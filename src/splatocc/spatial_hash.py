"""Grid spatial index over 3D points, stored as sorted cell keys.

Cells are one cell size wide in x and y and 1/_Z_SPLIT of it tall in z. Each
member's cell is packed into one int64 key relative to the members' bounding
box; members are sorted by key with a stable argsort when the index is built,
and callers whose points move rebuild it. That sort is adaptive, so a caller
that passes the members in the index's previous order (``ids``) re-sorts
nearly sorted keys at a fraction of the cost. Cells that differ only in z have
consecutive keys, so each (x, y) column of a query's box is one run of the
sorted members, found by ``searchsorted``. ``pairs`` reads the fine z cells
the ball's bounding box overlaps: a ball of radius at most half the cell size
reads 4 columns about one cell size tall. ``key`` and ``candidates`` work in
whole cubic cells, each the union of _Z_SPLIT fine ones. Distance filtering is
left to the caller, which owns the coordinate array; a caller that breaks ties
by id, as fusion does, gets results that do not depend on the order of
members in a cell.
"""

from __future__ import annotations

from math import floor, isfinite

import numpy as np

# Packed keys stay well inside int64 for any box of (fine) cells this many wide.
_MAX_CELLS = 2 ** 62

# Fine z cells per cell. A fine index is floor(fl(v / cell) * _Z_SPLIT): scaling
# by a power of two is exact, so every fine cell lies inside exactly one cell.
_Z_SPLIT = 16
_SCALE = np.array([1.0, 1.0, _Z_SPLIT])

# A query's box is the box of a ball this many radii wide. A member whose
# distance rounds to at most the radius lies within (1 + 2^-51) radii, but can
# sit past c + r rounded: z = 0.01 is 0.08 from -0.07 in floats, yet above
# fl(-0.07 + 0.08). The margin keeps every such member inside the box.
_REACH = 1.0 + 2.0 ** -48


class SpatialHashGrid:
    def __init__(self, cell_size: float):
        if not cell_size > 0:
            raise ValueError("cell_size must be > 0")
        self.cell_size = float(cell_size)
        self._inv = 1.0 / float(cell_size)
        self.insert_many((), ())

    def __len__(self) -> int:
        return self._ids.size

    @property
    def ids(self) -> np.ndarray:
        """Member ids in key order."""
        return self._ids

    def key(self, point) -> tuple:
        return tuple(floor(float(v) * self._inv) for v in point[:3])

    def insert_many(self, members, points) -> None:
        """Index ``members`` at ``points``, replacing the previous contents."""
        ids = np.asarray(members, dtype=np.int64).reshape(-1)
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if ids.size != points.shape[0]:
            raise ValueError("members and points differ in length")
        cells = points * self._inv   # one (n, 3) temporary, scaled and floored in place
        cells *= _SCALE
        np.floor(cells, out=cells)
        if not np.all(np.isfinite(cells)):
            raise ValueError("points must be finite")
        if ids.size:
            # One column at a time: numpy reduces a length-3 axis row by row.
            lo, hi = (np.array([f(col) for col in cells.T]) for f in (np.min, np.max))
            if max(np.abs(lo).max(), np.abs(hi).max(), np.prod(hi - lo + 1)) >= _MAX_CELLS:
                raise ValueError("points span too many cells for int64 cell keys")
        else:
            lo, hi = np.zeros(3), np.full(3, -1.0)  # an empty box: every query misses it
        # Lowest and highest occupied cell on each axis, and the box extent.
        self._base = tuple(int(v) for v in lo)
        self._top = tuple(int(v) for v in hi)
        self._ny, self._nz = self._top[1] - self._base[1] + 1, self._top[2] - self._base[2] + 1
        keys = self._pack(cells.astype(np.int64) - np.asarray(self._base))
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]    # packed cell keys, ascending
        self._ids = ids[order]      # member ids in key order

    def _pack(self, rel):
        """Keys of cells given relative to the base cell, shape (..., 3)."""
        return (rel[..., 0] * self._ny + rel[..., 1]) * self._nz + rel[..., 2]

    def candidates(self, center, radius: float) -> np.ndarray:
        """Member ids from every (cubic) cell overlapping the ball's bounding box."""
        cx, cy, cz, radius = float(center[0]), float(center[1]), float(center[2]), float(radius)
        if not (isfinite(cx) and isfinite(cy) and isfinite(cz) and isfinite(radius)):
            raise ValueError("query center and radius must be finite")
        radius *= _REACH
        inv = self._inv
        (bx, by, bz), (tx, ty, tz) = self._base, self._top
        x0, x1 = max(floor((cx - radius) * inv), bx), min(floor((cx + radius) * inv), tx)
        y0, y1 = max(floor((cy - radius) * inv), by), min(floor((cy + radius) * inv), ty)
        z0 = max(floor((cz - radius) * inv) * _Z_SPLIT, bz)
        z1 = min(floor((cz + radius) * inv) * _Z_SPLIT + _Z_SPLIT - 1, tz)
        if x0 > x1 or y0 > y1 or z0 > z1:
            return self._ids[:0]
        ny, nz = self._ny, self._nz
        bounds = []
        for ix in range(x0 - bx, x1 - bx + 1):
            for iy in range(y0 - by, y1 - by + 1):
                first = (ix * ny + iy) * nz + z0 - bz
                bounds += (first, first + z1 - z0 + 1)
        pos = np.searchsorted(self._keys, bounds).tolist()
        ids = self._ids
        return np.concatenate([ids[pos[k]:pos[k + 1]] for k in range(0, len(pos), 2)])

    def pairs(self, centers, radius: float):
        """(query row, member id) for every member in a fine cell that overlaps
        each ball's bounding box. Rows come out in ascending order."""
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        radius = float(radius)
        if not (np.all(np.isfinite(centers)) and isfinite(radius)):
            raise ValueError("query centers and radius must be finite")
        radius *= _REACH
        base, top = np.asarray(self._base), np.asarray(self._top)
        lo = np.floor((centers - radius) * self._inv * _SCALE)
        hi = np.floor((centers + radius) * self._inv * _SCALE)
        lo = np.clip(lo, base, top + 1).astype(np.int64)
        hi = np.clip(hi, base - 1, top).astype(np.int64)
        span = np.maximum(hi - lo + 1, 0)
        lo -= base
        # One entry per (query, x, y) column; each is a run of consecutive keys.
        columns = span[:, 0] * span[:, 1]
        rows = np.repeat(np.arange(len(centers)), columns)
        j = np.arange(rows.size) - np.repeat(np.cumsum(columns) - columns, columns)
        first = lo[rows]
        first[:, 0] += j // span[rows, 1]
        first[:, 1] += j % span[rows, 1]
        first = self._pack(first)
        start = np.searchsorted(self._keys, first)
        count = np.searchsorted(self._keys, first + span[rows, 2]) - start
        # Expand each run [start, start + count) into member positions.
        rows = np.repeat(rows, count)
        pos = np.arange(rows.size) + np.repeat(start - (np.cumsum(count) - count), count)
        return rows, self._ids[pos]
