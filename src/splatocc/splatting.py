"""Rasterize Gaussian sets into semantic occupancy grids.

Each voxel center accumulates kernel contributions from nearby Gaussians.
The occupancy score uses the complement product

    alpha(p) = 1 - prod_i (1 - a_i * g_i(p))

which is bounded in [0, 1], monotone under adding Gaussians, and reduces to
a * g for a single kernel. Semantics accumulate opacity-weighted softmax
masses per class, in one mass row per distinct softmax column (one-hot logits
make most classes share one); the voxel label is the argmax over semantic
classes (ties go to the lowest class id) when the score clears ``theta_occ``,
otherwise 0 (empty).

Each Gaussian gives every semantic row a base share, ``low``, the least of
its semantic softmax entries, and only its active rows (entry above ``low``)
the rest, ``soft - low``: exact in real arithmetic, so masses move only by
rounding. Heuristic attributes give a Gaussian one active row, so a kept
(Gaussian, voxel) pair is binned twice, not once per mass row. The class-0
(empty) mass, kept on request, is a full row of its own outside ``low``, so
labels and semantic masses do not depend on whether it is kept.

``splat`` evaluates every Gaussian the same way. Its box is the exact
axis-aligned extent of the ellipsoid of ``SPLAT_CUTOFF`` (7) standard
deviations, half-width ``SPLAT_CUTOFF * sqrt(Sigma_ii)`` on axis i around
the mean, clipped to the grid; pairs outside that ellipsoid are dropped.
The dropped tail, exp(-24.5) per kernel, stays orders of magnitude below
any score tolerance anyone would test against.

Inside a box the squared Mahalanobis distance is a quadratic form in the
integer voxel offset o from the box corner, m2(o) = c0 + b.o + o'Mo, with
M = voxel_size^2 Sigma^-1 from ``gaussians.inverse_covariances``. The ten
coefficients per Gaussian are computed once, so boxes of one shape need one
matrix product of them with the shape's table of offset monomials.

The working set is bounded: pairs are evaluated in chunks of at most the
larger of ``_CHUNK_PAIRS`` and the biggest clipped box (a box of more voxels
is a chunk of its own), whose scratch arrays are allocated once per call and
refilled in place, and nothing is kept between calls. Each chunk scatters
into its own span of flat voxel indices, from its lowest box corner to its
highest box end, so its cost follows its pairs, not the grid size. A chunk
holds one box shape and one tag (one active row, none or several), so which
Gaussians it sums, and so the scores' rounding, depends on their classes too.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Optional

import numpy as np

from .gaussians import MAX_CLASSES, GaussianSet, WORLD_FRAME, inverse_covariances, softmax

DEFAULT_THETA_OCC = 0.5
SPLAT_CUTOFF = 7.0

# Guard (in voxel-index units) against ties like a radius landing exactly on
# a voxel center; expands boxes so boundary centers are always included.
_INDEX_GUARD = 1e-9

# Cap on scratch (gaussian, voxel) pairs processed per vectorized chunk.
_CHUNK_PAIRS = 131_072


def _is_int(value) -> bool:
    """An int or numpy integer, not a bool: a float or bool count or id is
    rejected, not truncated."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned voxel lattice: counts, cell size, world origin, classes.

    The origin is the min corner of voxel (0, 0, 0); the center of voxel
    (i, j, k) sits at origin + (i + 1/2, j + 1/2, k + 1/2) * voxel_size.
    It is kept as a tuple of three floats, so specs compare and hash by value.
    """

    dims: tuple
    voxel_size: float
    origin: tuple
    num_classes: int = 12

    def __post_init__(self):
        dims = tuple(self.dims)
        if len(dims) != 3 or not all(_is_int(d) and d >= 1 for d in dims):
            raise ValueError("dims must be three integer counts >= 1")
        if not (isinstance(self.voxel_size, Real) and not isinstance(self.voxel_size, bool)
                and 0 < self.voxel_size < np.inf):
            raise ValueError("voxel_size must be a finite real number > 0")
        if not (_is_int(self.num_classes) and 2 <= self.num_classes <= MAX_CLASSES):
            raise ValueError(f"num_classes must lie in 2..{MAX_CLASSES} and be an integer")
        origin = np.asarray(self.origin, dtype=np.float64)
        if origin.shape != (3,) or not np.all(np.isfinite(origin)):
            raise ValueError("origin must be a finite 3-vector")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        object.__setattr__(self, "origin", tuple(origin.tolist()))

    @classmethod
    def for_extent(cls, min_corner, max_corner, voxel_size: float = 0.08,
                   num_classes: int = 12) -> "GridSpec":
        """Scene-level grid covering [min_corner, max_corner]: per-axis counts
        are ceil(length / voxel_size)."""
        lo = np.asarray(min_corner, dtype=np.float64)
        hi = np.asarray(max_corner, dtype=np.float64)
        if np.any(hi <= lo):
            raise ValueError("max_corner must exceed min_corner on every axis")
        dims = np.maximum(1, np.ceil((hi - lo) / voxel_size - 1e-9).astype(int))
        return cls(tuple(dims), voxel_size, lo, num_classes)

    @property
    def num_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def extent(self) -> np.ndarray:
        return np.asarray(self.dims) * self.voxel_size

    def center_axes(self) -> list:
        """Voxel-center coordinates along x, y and z: three 1-D arrays."""
        return [o + (np.arange(n) + 0.5) * self.voxel_size for o, n in zip(self.origin, self.dims)]

    def voxel_centers(self) -> np.ndarray:
        """All voxel centers, flat (num_voxels, 3), C order (z fastest)."""
        return np.stack(np.meshgrid(*self.center_axes(), indexing="ij", copy=False),
                        axis=-1).reshape(-1, 3)


@dataclass
class OccupancyGrid:
    """Voxel labels (0 = empty) and occupancy scores over a GridSpec."""

    spec: GridSpec
    labels: np.ndarray
    scores: np.ndarray
    masses: Optional[np.ndarray] = None

    def __post_init__(self):
        labels = np.asarray(self.labels)
        scores = np.asarray(self.scores, dtype=np.float64)
        if labels.shape != self.spec.dims or scores.shape != self.spec.dims:
            raise ValueError("labels and scores must match spec.dims")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must have an integer dtype")
        if labels.max(initial=0) >= self.spec.num_classes or labels.min(initial=0) < 0:
            raise ValueError("labels must lie in [0, num_classes)")
        if not np.all((scores >= -1e-12) & (scores <= 1.0 + 1e-12)):
            raise ValueError("scores must be finite and lie in [0, 1]")
        self.labels = labels.astype(np.uint8)
        self.scores = np.clip(scores, 0.0, 1.0)


def _cull_bounds(means, radii, spec: GridSpec):
    """Index boxes of voxel centers within per-axis radii of means, clipped
    to the grid: (lowest index, span) per row and axis, a span <= 0 where a
    box misses the grid."""
    t = (means - spec.origin) / spec.voxel_size - 0.5
    r = radii / spec.voxel_size
    dims = np.asarray(spec.dims)
    # Clipped in floats, so a far mean never overflows the cast.
    lo = np.clip(np.ceil(t - r - _INDEX_GUARD), 0, dims).astype(np.int64)
    return lo, np.clip(np.floor(t + r + _INDEX_GUARD) + 1, 0, dims).astype(np.int64) - lo


def _monomials(offs: np.ndarray) -> np.ndarray:
    """(10, V) table [1, ox, oy, oz, ox^2, oy^2, oz^2, ox oy, ox oz, oy oz]
    of the (3, V) offsets ``offs``."""
    ox, oy, oz = offs
    return np.stack((np.ones_like(ox), ox, oy, oz, ox * ox, oy * oy, oz * oz,
                     ox * oy, ox * oz, oy * oz))


def _coefficients(gset: GaussianSet, lo, spec: GridSpec) -> np.ndarray:
    """(n, 10) quadratic-form coefficients of each member's box, in the order
    of ``_monomials``.

    The center of voxel lo + o lies at corner + voxel_size * o from the mean
    for an integer offset o, so with P = Sigma^-1 its squared Mahalanobis
    distance is m2(o) = c0 + b.o + o'Mo with c0 = corner' P corner,
    b = 2 voxel_size P corner and M = voxel_size^2 P.
    """
    prec = inverse_covariances(gset.cov)
    corner = spec.origin + (lo + 0.5) * spec.voxel_size - gset.means
    pc = np.einsum("nij,nj->ni", prec, corner)
    coef = np.empty((len(prec), 10))
    coef[:, 0] = np.einsum("ni,ni->n", corner, pc)
    coef[:, 1:4] = 2.0 * spec.voxel_size * pc
    # M's diagonal, then its off-diagonal entries doubled, as o'Mo counts each twice.
    np.multiply(spec.voxel_size * spec.voxel_size, prec[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]],
                out=coef[:, 4:])
    coef[:, 7:] *= 2.0
    return coef


def splat(gset: GaussianSet, spec: GridSpec, theta_occ: float = DEFAULT_THETA_OCC,
          keep_masses: bool = False) -> OccupancyGrid:
    """Rasterize a world-frame GaussianSet into an occupancy grid.

    Every Gaussian is evaluated at the voxel centers of its culled box.
    One stable sort groups the Gaussians by (box shape, tag): each shape's
    table of offset monomials is built once for all its tag groups, and a
    group is evaluated in chunks of at most the larger of ``_CHUNK_PAIRS``
    (Gaussian, voxel) pairs and one clipped box: a chunk's squared
    Mahalanobis distances are its (rows, 10) quadratic-form coefficients
    times that (10, voxels) table, written with its cutoff mask, flat voxel
    indices and kept pairs into buffers allocated once per call. Kept pairs
    scatter into the voxel span that the chunk's boxes reach, with one
    bincount over that span for the score, one for the base share, and one
    into its tag's active row (several: one per row a member lifts). The
    base share is added to every semantic mass row at the end; a label maps
    its argmax row back to the column's lowest semantic class. Scores may
    differ from a grouping by shape alone by rounding. Results agree with an
    unculled brute-force evaluation to well below 1e-6 even for thousands
    of kernels.
    ``keep_masses`` also returns the per-class masses, shaped
    ``spec.dims + (num_classes,)``; without it the class-0 (empty) mass,
    which labels never read, is not accumulated.
    """
    if gset.frame != WORLD_FRAME:
        raise ValueError("splat requires a world-frame GaussianSet")
    if gset.num_classes != spec.num_classes:
        raise ValueError(
            f"class count mismatch: set has {gset.num_classes}, grid {spec.num_classes}"
        )
    if not 0.0 <= theta_occ <= 1.0:
        raise ValueError("theta_occ must lie in [0, 1]")

    nv = spec.num_voxels
    lo, spans = _cull_bounds(gset.means,
                             SPLAT_CUTOFF * np.sqrt(np.diagonal(gset.cov, axis1=1, axis2=2)), spec)
    alive = np.flatnonzero((spans[:, 0] > 0) & (spans[:, 1] > 0) & (spans[:, 2] > 0))
    coef = _coefficients(gset, lo, spec)
    strides = np.array([spec.dims[1] * spec.dims[2], spec.dims[2], 1], dtype=np.int64)
    base = lo @ strides
    del lo

    # One mass row per distinct softmax column: a class whose column is
    # bit-identical to an earlier one's gets bit-identical masses, so it
    # reads that row. Semantic classes come first, in class order; class 0,
    # which labels never read, gets a row only when the caller asks for the
    # masses, and then last. softmax is class-major, so each column compared
    # is a contiguous row of soft.
    soft = softmax(gset.logits).T
    scattered, row = [], {}
    for c in [*range(1, spec.num_classes), *([0] if keep_masses else [])]:
        row[c] = next((i for i, s in enumerate(scattered) if np.array_equal(soft[s], soft[c])),
                      len(scattered))
        if row[c] == len(scattered):
            scattered.append(c)
    soft = soft[scattered]
    nr = len(scattered) - (scattered[-1] == 0)
    # Each Gaussian gives every semantic row its base share low, the least of
    # its semantic softmax entries, and only its active rows (those above
    # low) their lift, soft - low. Its tag is its one active row, nr for none
    # and nr + 1 for several. A one-row Gaussian keeps one lift and only the
    # several-active keep a lift per row, so no (rows, n) array lives
    # through the chunk loop; class 0 keeps its own softmax entry.
    low = soft[:nr].min(axis=0)
    active = soft[:nr] > low
    count = np.count_nonzero(active, axis=0)
    tag = np.argmax(active, axis=0)
    lift = np.take_along_axis(soft, tag[None], axis=0)[0] - low
    tag[count == 0] = nr
    tag[count > 1] = nr + 1
    several = np.flatnonzero(count > 1)
    lifts = soft[:nr, several] - low[several]
    empty_soft = soft[nr].copy() if nr < len(scattered) else None
    del soft, active, count
    mass = np.zeros((len(scattered), nv))
    share = np.zeros(nv)
    log_free = np.zeros(nv)
    cutoff_sq = SPLAT_CUTOFF * SPLAT_CUTOFF

    # Boxes of one shape share an offset table, and a chunk holds one shape
    # and one tag. One stable sort of a packed (shape, tag) key, which sorts
    # like the (sx, sy, sz, tag) rows, groups them with members in set
    # order; a group ends where the sorted key changes.
    ry, rz = spec.dims[1] + 1, spec.dims[2] + 1
    keys = ((spans[alive, 0] * ry + spans[alive, 1]) * rz + spans[alive, 2]) * (nr + 2) + tag[alive]
    by_key = np.argsort(keys, kind="stable")
    order = alive[by_key]
    keys = keys[by_key]
    bounds = np.append(np.flatnonzero(np.diff(keys, prepend=-1)), order.size)
    volumes = np.prod(spans[order[bounds[:-1]]], axis=1)
    chunks = np.minimum(np.diff(bounds), np.maximum(1, _CHUNK_PAIRS // volumes))
    cap = int(np.max(chunks * volumes, initial=0))
    # The weights of a chunk reuse its m2 buffer: m2 is spent once its kept
    # pairs are gathered out.
    m2_buf, ok_buf, flat_buf = np.empty(cap), np.empty(cap, dtype=bool), np.empty(cap, np.int64)
    kept_buf, kept_flat_buf = np.empty(cap), np.empty(cap, np.int64)
    shape_key = -1
    for begin, end, chunk in zip(bounds[:-1], bounds[1:], chunks):
        group_tag = tag[order[begin]]
        if keys[begin] // (nr + 2) != shape_key:
            shape_key = keys[begin] // (nr + 2)
            offs = np.indices(spans[order[begin]]).reshape(3, -1)
            flat_offs = strides @ offs
            mono = _monomials(offs.astype(np.float64))
        for start in range(begin, end, chunk):
            rows = order[start:min(start + chunk, end)]
            size = rows.size * mono.shape[1]
            m2 = np.matmul(coef[rows], mono, out=m2_buf[:size].reshape(rows.size, -1))
            ok = np.less_equal(m2, cutoff_sq, out=ok_buf[:size].reshape(m2.shape))
            # Kept pairs stay in row order, so per-Gaussian values reach
            # them by repeating each row's value once per kept pair.
            per_row = np.count_nonzero(ok, axis=1)
            k = int(per_row.sum())
            if not k:
                continue
            # The chunk's boxes reach only voxels f0 .. f0 + span - 1, so it
            # bins over that span alone; flat indices are relative to f0.
            row_base = base[rows]
            f0 = row_base.min()
            row_base -= f0
            span = int(row_base.max()) + int(flat_offs[-1]) + 1
            flat = np.add(row_base[:, None], flat_offs, out=flat_buf[:size].reshape(m2.shape))
            # Under its default mode "raise", take copies through a scratch
            # array; idx is in range, so "clip" never clips.
            idx = np.flatnonzero(ok)
            flat = np.take(flat.ravel(), idx, out=kept_flat_buf[:k], mode="clip")
            kept = np.take(m2.ravel(), idx, out=kept_buf[:k], mode="clip")
            weights = m2_buf[:k]
            # Rounding can take m2 a hair below 0 next to the mean, which
            # would push an opacity-1 kernel above 1 and log1p to NaN.
            np.maximum(kept, 0.0, out=kept)
            kept *= -0.5
            np.exp(kept, out=kept)
            kept *= np.repeat(gset.opacities[rows], per_row)
            with np.errstate(divide="ignore"):
                np.log1p(np.negative(kept, out=weights), out=weights)
            log_free[f0:f0 + span] += np.bincount(flat, weights=weights, minlength=span)

            def scatter(into, per_gaussian):
                np.multiply(kept, np.repeat(per_gaussian, per_row), out=weights)
                into[f0:f0 + span] += np.bincount(flat, weights=weights, minlength=span)

            # The base share reaches every semantic row at the end. A chunk's
            # tag names the rows its members lift; of several, a row that no
            # member of the chunk lifts would only add zeros.
            scatter(share, low[rows])
            if group_tag < nr:
                scatter(mass[group_tag], lift[rows])
            elif group_tag > nr:
                chunk_lifts = lifts[:, np.searchsorted(several, rows)]
                for i in np.flatnonzero(chunk_lifts.any(axis=1)):
                    scatter(mass[i], chunk_lifts[i])
            if empty_soft is not None:
                scatter(mass[nr], empty_soft[rows])

    # The (n, 10) coefficients are spent: free them before the label temporaries.
    del coef
    scores = 1.0 - np.exp(log_free)
    semantic = mass[:nr]
    semantic += share
    labels = np.where(
        (scores >= theta_occ) & (semantic.max(axis=0) > 0),
        np.asarray(scattered)[np.argmax(semantic, axis=0)],
        0,
    )
    return OccupancyGrid(
        spec=spec,
        labels=labels.reshape(spec.dims),
        scores=scores.reshape(spec.dims),
        masses=(mass[[row[c] for c in range(spec.num_classes)]].T.reshape(
            spec.dims + (spec.num_classes,)) if keep_masses else None),
    )
