"""Rasterize Gaussian sets into semantic occupancy grids.

Each voxel center accumulates kernel contributions from nearby Gaussians.
The occupancy score uses the complement product

    alpha(p) = 1 - prod_i (1 - a_i * g_i(p))

which is bounded in [0, 1], monotone under adding Gaussians, and reduces to
a * g for a single kernel. Semantics accumulate opacity-weighted softmax
masses per class; the voxel label is the argmax over semantic classes (ties
go to the lowest class id) when the score clears ``theta_occ``, otherwise 0
(empty).

Each Gaussian gives every semantic class a base share, ``low``, the least of
its semantic softmax entries, and only its active classes (entry above
``low``) the rest, its lift ``soft - low``: exact in real arithmetic, so
masses move only by rounding. One shared row holds the base share, and each
class that some Gaussian lifts has a mass row of its own; a class that none
lifts has exactly the base share as its mass. Heuristic attributes give a
Gaussian one active class, so a kept (Gaussian, voxel) pair is binned twice,
not once per class. The class-0 (empty) mass, kept on request, is a full row
of its own outside ``low``, so labels and semantic masses do not depend on
whether it is kept.

``splat`` evaluates every Gaussian the same way. Its box is the exact
axis-aligned extent of the ellipsoid of ``SPLAT_CUTOFF`` (7) standard
deviations, half-width ``SPLAT_CUTOFF * sqrt(Sigma_ii)`` on axis i around
the mean, clipped to the grid; pairs outside that ellipsoid are dropped.
The dropped tail, exp(-24.5) per kernel, stays orders of magnitude below
any score tolerance anyone would test against.

Inside a box the squared Mahalanobis distance is a quadratic form in the
integer voxel offset o from the box corner, m2(o) = c0 + b.o + o'Mo, with
M = voxel_size^2 Sigma^-1 from the six unique entries that
``gaussians.inverse_covariances`` returns. The ten coefficients per Gaussian
are computed once, so boxes of one shape need one matrix product of them
with the shape's table of offset monomials.

The per-Gaussian set-up runs in one pass over blocks of ``_SETUP_ROWS``
members, so its temporaries, the block's softmax among them, are
block-sized: it fills each member's box, its coefficients, its base share,
tag and lift. Every value is computed per member, so no output depends on
the block size.

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
from typing import Optional

import numpy as np

from .gaussians import (
    MAX_CLASSES, GaussianSet, WORLD_FRAME, _is_int, _is_real, inverse_covariances, softmax,
)

DEFAULT_THETA_OCC = 0.5
SPLAT_CUTOFF = 7.0

# Guard (in voxel-index units) against ties like a radius landing exactly on
# a voxel center; expands boxes so boundary centers are always included.
_INDEX_GUARD = 1e-9

# Cap on scratch (gaussian, voxel) pairs processed per vectorized chunk.
_CHUNK_PAIRS = 131_072

# Members per block of the per-Gaussian set-up: a temporary of one float per
# member takes 64 kB, so a block's temporaries stay in cache.
_SETUP_ROWS = 8192


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
        if not (_is_real(self.voxel_size) and 0 < self.voxel_size < np.inf):
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
        are ceil(length / voxel_size), checked in floats before the cast."""
        lo = np.asarray(min_corner, dtype=np.float64)
        hi = np.asarray(max_corner, dtype=np.float64)
        if not np.all(hi > lo):
            raise ValueError("max_corner must exceed min_corner on every axis")
        if not (_is_real(voxel_size) and 0 < voxel_size < np.inf):
            raise ValueError("voxel_size must be a finite real number > 0")
        with np.errstate(over="ignore"):   # an infinite count is reported below
            counts = np.ceil((hi - lo) / voxel_size - 1e-9)
        if not np.all(counts < 2.0**63):
            raise ValueError(f"voxel counts {counts.tolist()} must be finite and fit in int64")
        return cls(tuple(np.maximum(1, counts.astype(np.int64))), voxel_size, lo, num_classes)

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


def _coefficients(means, cov, lo, spec: GridSpec, out) -> None:
    """Fill ``out`` with the (n, 10) quadratic-form coefficients of each
    member's box, in the order of ``_monomials``.

    The center of voxel lo + o lies at corner + voxel_size * o from the mean
    for an integer offset o, so with P = Sigma^-1 its squared Mahalanobis
    distance is m2(o) = c0 + b.o + o'Mo with c0 = corner' P corner,
    b = 2 voxel_size P corner and M = voxel_size^2 P. They are formed from
    P's six unique entries, each 3-term sum as (t0 + t2) + t1: the order in
    which ``einsum`` adds them, so the values are its bit for bit.
    """
    p00, p11, p22, p01, p02, p12 = inverse_covariances(cov)
    cx, cy, cz = (o + (lo[:, i] + 0.5) * spec.voxel_size - means[:, i]
                  for i, o in enumerate(spec.origin))
    # A far mean's corner overflows its coefficients; its box misses the
    # grid, so they are never read.
    with np.errstate(over="ignore", invalid="ignore"):
        pc = ((p00 * cx + p02 * cz) + p01 * cy, (p01 * cx + p12 * cz) + p11 * cy,
              (p02 * cx + p22 * cz) + p12 * cy)
        np.add(cx * pc[0] + cz * pc[2], cy * pc[1], out=out[:, 0])
        for i, v in enumerate(pc):
            np.multiply(2.0 * spec.voxel_size, v, out=out[:, 1 + i])
    # M's diagonal, then its off-diagonal entries doubled, as o'Mo counts each twice.
    for i, p in enumerate((p00, p11, p22, p01, p02, p12)):
        np.multiply(spec.voxel_size * spec.voxel_size, p, out=out[:, 4 + i])
    out[:, 7:] *= 2.0


def _set_up(gset: GaussianSet, spec: GridSpec, strides, keep_masses: bool):
    """The per-Gaussian set-up, in one pass over blocks of ``_SETUP_ROWS``
    members. Per member: its box base (the flat index of its lowest voxel),
    box spans (a span <= 0 where the box misses the grid), (n, 10)
    coefficients, base share low (the least of its semantic softmax
    entries), tag (c - 1 for its one semantic class c above low, C - 1 for
    none, C for several) and lift (that class's entry less low). Also the
    several-active members' lifts, (C - 1, several) in member order, and,
    under ``keep_masses``, each member's class-0 entry."""
    n, sem = len(gset), gset.num_classes - 1
    base, spans = np.empty(n, np.int64), np.empty((n, 3), np.int64)
    coef, low, lift, tag = np.empty((n, 10)), np.empty(n), np.empty(n), np.empty(n, np.intp)
    empty_soft = np.empty(n) if keep_masses else None
    lifts = [np.empty((sem, 0))]
    for start in range(0, n, _SETUP_ROWS):
        block = slice(start, start + _SETUP_ROWS)
        means, cov = gset.means[block], gset.cov[block]
        lo, spans[block] = _cull_bounds(
            means, SPLAT_CUTOFF * np.sqrt(np.diagonal(cov, axis1=1, axis2=2)), spec)
        np.matmul(lo, strides, out=base[block])
        _coefficients(means, cov, lo, spec, coef[block])
        # softmax is class-major, so each class's entries are a contiguous row.
        soft = softmax(gset.logits[block]).T
        if keep_masses:
            empty_soft[block] = soft[0]
        sem_soft = soft[1:]
        block_low = np.min(sem_soft, axis=0, out=low[block])
        active = sem_soft > block_low
        count = np.count_nonzero(active, axis=0)
        block_tag = np.argmax(active, axis=0)
        np.subtract(np.take_along_axis(sem_soft, block_tag[None], axis=0)[0], block_low,
                    out=lift[block])
        block_tag[count == 0] = sem
        block_tag[count > 1] = sem + 1
        tag[block] = block_tag
        lifts.append(sem_soft[:, count > 1] - block_low[count > 1])
    return base, spans, coef, low, tag, lift, np.concatenate(lifts, axis=1), empty_soft


def splat(gset: GaussianSet, spec: GridSpec, theta_occ: float = DEFAULT_THETA_OCC,
          keep_masses: bool = False) -> OccupancyGrid:
    """Rasterize a world-frame GaussianSet into an occupancy grid.

    Every Gaussian is evaluated at the voxel centers of its culled box.
    The per-Gaussian set-up runs in one pass over blocks of ``_SETUP_ROWS``
    members: it finds each box, its quadratic-form coefficients, and each
    member's base share, tag and lift, and each semantic class that some
    member lifts gets a mass row. One stable sort then groups the Gaussians
    by (box shape, tag): each shape's table of offset monomials is built
    once for all its tag groups, and a group is evaluated in chunks of at
    most the larger of ``_CHUNK_PAIRS`` (Gaussian, voxel) pairs and one
    clipped box: a chunk's squared Mahalanobis distances are its (rows, 10)
    quadratic-form coefficients times that (10, voxels) table, written with
    its cutoff mask, flat voxel indices and kept pairs into buffers
    allocated once per call. Kept pairs scatter into the voxel span that
    the chunk's boxes reach, with one bincount over that span for the
    score, one for the base share, and one into its tag's mass row
    (several: one per row a member lifts). The base share is added to every
    semantic mass row at the end; a label is the argmax over the base share (for
    class 1) and the rows, taken row by row in class order. Scores may
    differ from a grouping by shape alone by rounding. Results agree with an
    unculled brute-force evaluation to well below 1e-6 even for thousands
    of kernels, and do not depend on ``_SETUP_ROWS``.
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
    if not (_is_real(theta_occ) and 0.0 <= theta_occ <= 1.0):
        raise ValueError("theta_occ must lie in [0, 1]")

    nv = spec.num_voxels
    strides = np.array([spec.dims[1] * spec.dims[2], spec.dims[2], 1], dtype=np.int64)
    base, spans, coef, low, tag, lift, lifts, empty_soft = _set_up(gset, spec, strides, keep_masses)
    alive = np.flatnonzero((spans[:, 0] > 0) & (spans[:, 1] > 0) & (spans[:, 2] > 0))

    # Each Gaussian gives every semantic class its base share low and only
    # its active classes (those above low) their lift, soft - low, so a
    # class that no Gaussian lifts has just the share as its mass. The
    # others get one mass row each, in class order: the class of some
    # single tag, or one that some several-active Gaussian lifts. row maps a
    # semantic class to its row and renumbers the tags, none to nr and
    # several to nr + 1, keeping their order. Class 0, which labels never
    # read, gets a row of its own (its softmax entry, outside low) only when
    # the caller asks for the masses, and then last.
    sem = spec.num_classes - 1
    lifted = np.flatnonzero((np.bincount(tag, minlength=sem + 2)[:sem] > 0) | lifts.any(axis=1))
    nr = lifted.size
    row = np.zeros(sem + 2, np.intp)
    row[lifted], row[sem:] = np.arange(nr), (nr, nr + 1)
    tag = row[tag]
    several = np.flatnonzero(tag == nr + 1)
    mass = np.zeros((nr + keep_masses, nv))
    share = np.zeros(nv)
    log_free = np.zeros(nv)
    cutoff_sq = SPLAT_CUTOFF * SPLAT_CUTOFF

    # Boxes of one shape share an offset table, and a chunk holds one shape
    # and one tag. One stable sort of a packed (shape, tag) key, which sorts
    # like the (sx, sy, sz, tag) rows, groups them with members in set
    # order; a group ends where the sorted key changes. Its radices are the
    # largest spans + 1, and it is sorted at the least unsigned type that
    # holds it: a key of 16 bits or less takes numpy's radix sort.
    shapes = np.take(spans, alive, axis=0)
    ry, rz = (shapes[:, i].max(initial=0) + 1 for i in (1, 2))
    keys = ((shapes[:, 0] * ry + shapes[:, 1]) * rz + shapes[:, 2]) * (nr + 2) + tag[alive]
    del shapes
    keys = keys.astype(np.min_scalar_type(keys.max(initial=0)))
    by_key = np.argsort(keys, kind="stable")
    order = alive[by_key]
    keys = keys[by_key]
    # An alive box spans at least one voxel per axis, so every key is > 0
    # and keys[0] - 1 marks the first group's start.
    bounds = np.append(np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1)), order.size)
    volumes = np.prod(spans[order[bounds[:-1]]], axis=1)
    chunks = np.minimum(np.diff(bounds), np.maximum(1, _CHUNK_PAIRS // volumes))
    cap = int(np.max(chunks * volumes, initial=0))
    # The weights of a chunk reuse its m2 buffer: m2 is spent once its kept
    # pairs are gathered out.
    m2_buf, ok_buf, flat_buf = np.empty(cap), np.empty(cap, dtype=bool), np.empty(cap, np.int64)
    kept_buf, kept_flat_buf = np.empty(cap), np.empty(cap, np.int64)
    shape_key = None
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
                    scatter(mass[row[i]], chunk_lifts[i])
            if empty_soft is not None:
                scatter(mass[nr], empty_soft[rows])

    # The (n, 10) coefficients are spent: free them before the label temporaries.
    del coef
    scores = 1.0 - np.exp(log_free)
    semantic = mass[:nr]
    semantic += share
    # The argmax row by row from class 1 at the base share, the mass of
    # every class no Gaussian lifts: a strict > leaves a tie with the lowest
    # class, so of those classes only class 1 can win.
    top = share.copy()
    labels = np.ones(nv, dtype=np.uint8)
    for c, m in zip((lifted + 1).tolist(), semantic):
        np.copyto(labels, c, where=m > top)
        np.maximum(top, m, out=top)
    labels[(scores < theta_occ) | (top <= 0)] = 0
    masses = None
    if keep_masses:
        masses = np.empty((spec.num_classes, nv))
        masses[0], masses[1:] = mass[nr], share
        masses[lifted + 1] = semantic
        masses = masses.T.reshape(spec.dims + (spec.num_classes,))
    return OccupancyGrid(spec=spec, labels=labels.reshape(spec.dims),
                         scores=scores.reshape(spec.dims), masses=masses)
