"""Grid spatial index over 3D points: members sorted by cell key, and a
cell-start table.

Cells are one cell size wide in x and y and 1/_Z_SPLIT of it tall in z. Each
member's cell is packed into one int64 key relative to the members' bounding
box, and members are sorted by key with a stable argsort; callers whose
points move rebuild the index. That sort is adaptive, so a caller that passes
the members in the previous key order (``ids``) re-sorts nearly sorted keys.
The build also fills a dense table over the box, ``starts[k]`` being the
position of the first member whose key is at least k. Cells that differ only
in z have consecutive keys, so each (x, y) column of a query's box is the run
``starts[first]`` to ``starts[first + span_z]`` of the sorted members.

The table is int32, in one anonymous memory map of _TABLE_CELLS cells that the
index keeps: only pages a build touched are backed, and it never pins pages of
the malloc heap. A build zero-fills its prefix, writes each occupied cell's
run length and sums in place, with no temporary the size of the table. A box
too wide for the table coarsens the cells by powers of two, shortest edges
first, until it fits. Coarse cells are floor(fine / 2^s), and
floor(floor(v) / 2^s) = floor(v / 2^s), so they nest the fine ones and a
query's box still covers every member within its radius.

``columns`` reads the cells each ball's bounding box overlaps, for a whole
batch of balls at once: one (query, run start, run length) row per (x, y)
column, found from the table in constant time. A ball of radius at most half
the cell size reads 4 columns about one cell size tall. ``members`` expands
any slice of those rows into (query, member id) pairs, so a caller can bound
the pairs it holds at a time.
``candidates`` reads, for one ball, the cells of the whole cubic cells (each
_Z_SPLIT fine ones) its box overlaps, and ``key`` gives a point's cubic cell.
Distance filtering is left to the caller, which owns the coordinates; a
caller that breaks ties by id, as fusion does, gets results that do not
depend on the order of members in a cell.
"""

from __future__ import annotations

import mmap
from math import floor, isfinite, prod

import numpy as np

# Fine cell indices stay below this in magnitude, so cells, keys and query
# bounds, shifted or not, stay well inside int64.
_MAX_CELLS = 2 ** 61

# Cells the cell-start table may hold: 16 MiB as int32.
_TABLE_CELLS = 2 ** 22

# Fine z cells per cell. A fine index is floor(fl(v / cell) * _Z_SPLIT): scaling
# by a power of two is exact, so every fine cell lies inside exactly one cell.
_Z_SPLIT = 16
_SCALE = np.array([1.0, 1.0, _Z_SPLIT])
_EDGES = (_Z_SPLIT, _Z_SPLIT, 1)   # fine cell edges, in fine z cells

# A query's box is the box of a ball this many radii wide. A member whose
# distance rounds to at most the radius lies within (1 + 2^-51) radii, but can
# sit past c + r rounded: z = 0.01 is 0.08 from -0.07 in floats, yet above
# fl(-0.07 + 0.08). The margin keeps every such member inside the box.
_REACH = 1.0 + 2.0 ** -48


def _coarsening(lo, hi) -> list:
    """Per-axis shifts s that fit the box of fine cells [lo, hi] into the
    table, its cells floor(fine / 2^s): the shortest edges double until it fits."""
    shift = [0, 0, 0]
    while prod((h >> s) - (l >> s) + 1 for l, h, s in zip(lo, hi, shift)) > _TABLE_CELLS:
        edges = [e << s for e, s in zip(_EDGES, shift)]
        shift = [s + (e == min(edges)) for s, e in zip(shift, edges)]
    return shift


class SpatialHashGrid:
    def __init__(self, cell_size: float):
        if not cell_size > 0:
            raise ValueError("cell_size must be > 0")
        self.cell_size = float(cell_size)
        self._inv = 1.0 / float(cell_size)
        # The cell-start table's buffer: an anonymous map of the budget's size.
        self._table = np.frombuffer(mmap.mmap(-1, 4 * (_TABLE_CELLS + 1)), dtype=np.int32)
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
        if ids.size >= 2 ** 31:
            raise ValueError("an index holds fewer than 2**31 members (int32 cell starts)")
        cells = points * self._inv   # one (n, 3) temporary, scaled and floored in place
        cells[:, 2] *= _Z_SPLIT
        np.floor(cells, out=cells)
        if not np.all(np.isfinite(cells)):
            raise ValueError("points must be finite")
        if ids.size:
            # One column at a time: numpy reduces a length-3 axis row by row.
            lo, hi = ([int(f(col)) for col in cells.T] for f in (np.min, np.max))
            if max(map(abs, lo + hi)) >= _MAX_CELLS:
                raise ValueError("points span too many cells for int64 cell keys")
        else:
            lo, hi = [0, 0, 0], [-1, -1, -1]   # an empty box: every query misses it
        shift = _coarsening(lo, hi)
        self._shift = np.array(shift)
        # Lowest and highest occupied cell on each axis, and the box extent.
        self._base = tuple(v >> s for v, s in zip(lo, shift))
        self._top = tuple(v >> s for v, s in zip(hi, shift))
        # The fine cells where the box starts and where the cells past it start.
        self._fine_box = tuple(np.array([v << s for v, s in zip(bound, shift)], dtype=np.float64)
                               for bound in (self._base, [t + 1 for t in self._top]))
        extent = [t - b + 1 for b, t in zip(self._base, self._top)]
        self._ny, self._nz = extent[1], extent[2]
        # Packed keys, (x * ny + y) * nz + z, built in place one column at a time.
        keys = np.zeros(ids.size, dtype=np.int64)
        cell = np.empty_like(keys)
        for col, s, b, n in zip(cells.T, shift, self._base, (1, self._ny, self._nz)):
            np.copyto(cell, col, casting="unsafe")   # floored, so the cast is exact
            cell >>= s
            cell -= b
            keys *= n
            keys += cell
        del cell
        order = np.argsort(keys, kind="stable")
        keys = keys[order]          # packed cell keys, ascending
        self._ids = ids[order]      # member ids in key order
        # Each occupied cell's run of sorted members starts at a head.
        head = np.empty(keys.size, dtype=bool)
        head[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        self.cells = heads.size     # occupied cells
        starts = self._table[:prod(extent) + 1]
        starts.fill(0)
        starts[keys[heads] + 1] = np.diff(heads, append=keys.size)
        self._starts = np.cumsum(starts, out=starts)

    def _pack(self, x, y, z):
        """Keys of cells given relative to the base cell."""
        return (x * self._ny + y) * self._nz + z

    def candidates(self, center, radius: float) -> np.ndarray:
        """Member ids from every cell overlapping the cubic cells that the
        ball's bounding box overlaps."""
        cx, cy, cz, radius = float(center[0]), float(center[1]), float(center[2]), float(radius)
        if not (isfinite(cx) and isfinite(cy) and isfinite(cz) and isfinite(radius)):
            raise ValueError("query center and radius must be finite")
        radius *= _REACH
        inv = self._inv
        (bx, by, bz), (tx, ty, tz), (sx, sy, sz) = self._base, self._top, self._shift.tolist()
        x0, x1 = max(floor((cx - radius) * inv) >> sx, bx), min(floor((cx + radius) * inv) >> sx, tx)
        y0, y1 = max(floor((cy - radius) * inv) >> sy, by), min(floor((cy + radius) * inv) >> sy, ty)
        z0 = max(floor((cz - radius) * inv) * _Z_SPLIT >> sz, bz)
        z1 = min((floor((cz + radius) * inv) * _Z_SPLIT + _Z_SPLIT - 1) >> sz, tz)
        if x0 > x1 or y0 > y1 or z0 > z1:
            return self._ids[:0]
        ny, nz = self._ny, self._nz
        bounds = []
        for ix in range(x0 - bx, x1 - bx + 1):
            for iy in range(y0 - by, y1 - by + 1):
                first = (ix * ny + iy) * nz + z0 - bz
                bounds += (first, first + z1 - z0 + 1)
        pos = self._starts[bounds].tolist()
        ids = self._ids
        return np.concatenate([ids[pos[k]:pos[k + 1]] for k in range(0, len(pos), 2)])

    def columns(self, centers, radius: float):
        """(query row, run start, run length) for every (x, y) column of cells
        that each ball's bounding box overlaps: the run holds the sorted
        members of the column's cells the box overlaps in z. A box that misses
        the index on any axis gives no column. Rows come out in ascending
        order."""
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        radius = float(radius)
        if not (np.all(np.isfinite(centers)) and isfinite(radius)):
            raise ValueError("query centers and radius must be finite")
        radius *= _REACH
        # Each box's lowest cell, relative to the base cell, and its extent in
        # cells, one axis at a time (numpy broadcasts over a length-3 axis row
        # by row). Bounds in fine cells are clipped so that shifting them gives
        # the cells clipped to [base, top + 1] (lo) and [base - 1, top] (hi).
        lo, span = [], []
        for c, scale, s, base, first, past in zip(centers.T, _SCALE, self._shift.tolist(),
                                                  self._base, *self._fine_box):
            low = np.floor((c - radius) * self._inv * scale)
            high = np.floor((c + radius) * self._inv * scale)
            low = np.clip(low, first, past, out=low).astype(np.int64) >> s
            high = np.clip(high, first - 1, past - 1, out=high).astype(np.int64) >> s
            high -= low - 1
            span.append(np.maximum(high, 0, out=high))
            lo.append(low - base)
        # One entry per (query, x, y) column; each is a run of consecutive keys.
        # A box clipped empty on any axis has none.
        span_x, span_y, span_z = span
        columns = span_x * span_y * (span_z > 0)
        rows = np.repeat(np.arange(len(centers)), columns)
        j = np.arange(rows.size) - np.repeat(np.cumsum(columns) - columns, columns)
        dx, dy = np.divmod(j, np.repeat(span_y, columns))
        first = np.repeat(self._pack(*lo), columns) + self._pack(dx, dy, 0)
        start = self._starts[first]
        return rows, start, self._starts[first + np.repeat(span_z, columns)] - start

    def members(self, rows, start, count):
        """(query row, member id) for every member of the runs [start,
        start + count) that ``columns`` gave for ``rows``, in their order."""
        rows = np.repeat(rows, count)
        pos = np.arange(rows.size) + np.repeat(start - (np.cumsum(count) - count), count)
        return rows, self._ids[pos]
