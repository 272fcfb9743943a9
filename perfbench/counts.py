"""Counts the benchmark computes itself, outside every timed span.

splatocc does not report these, so they are recomputed from the same inputs
with the same arithmetic as the code they describe:

- ``pair_counts`` repeats the culling of ``splatting.splat``: the
  (Gaussian, voxel) pairs it evaluates (every voxel in the clipped
  ``7 * max(scale)`` cube, or the whole grid for a Gaussian whose cube covers
  a quarter of it) and the pairs among them inside the 7-sigma ellipsoid.
- ``hash_counts`` repeats the cell keys and 27-cell candidate walk of
  ``spatial_hash.SpatialHashGrid`` over the bank means as fusion saw them.
"""

from __future__ import annotations

import numpy as np
import splatocc as so
from splatocc.splatting import SPLAT_CUTOFF

_INDEX_GUARD = 1e-9      # as in splatting._cull_bounds
_CHUNK_PAIRS = 2_000_000


def pair_counts(gset: so.GaussianSet, spec: so.GridSpec, cutoff: float = SPLAT_CUTOFF):
    """(cube_pairs, ellipsoid_pairs) for one ``splat(gset, spec)`` call."""
    if not len(gset):
        return 0, 0
    dims = np.asarray(spec.dims)
    t = (gset.means - spec.origin) / spec.voxel_size - 0.5
    r = (cutoff * gset.scales.max(axis=1) / spec.voxel_size)[:, None]
    lo = np.clip(np.ceil(t - r - _INDEX_GUARD).astype(np.int64), 0, dims)
    hi = np.clip(np.floor(t + r + _INDEX_GUARD).astype(np.int64) + 1, 0, dims)
    spans = hi - lo
    alive = np.all(spans > 0, axis=1)
    dense = alive & (spans.prod(axis=1) * 4 >= spec.num_voxels)
    lo[dense] = 0
    spans[dense] = dims
    white = gset.rotation_matrices() / gset.scales[:, None, :]
    cutoff_sq = cutoff * cutoff

    shapes = {}
    for i in np.flatnonzero(alive):
        shapes.setdefault(tuple(spans[i]), []).append(i)
    cube = inside = 0
    for shape, members in shapes.items():
        per_box = shape[0] * shape[1] * shape[2]
        offs = np.stack(np.meshgrid(*(np.arange(s) for s in shape), indexing="ij"),
                        axis=-1).reshape(-1, 3)
        members = np.asarray(members)
        step = max(1, _CHUNK_PAIRS // per_box)
        for start in range(0, members.size, step):
            rows = members[start:start + step]
            centers = spec.origin + (lo[rows][:, None, :] + offs[None, :, :] + 0.5) * spec.voxel_size
            w = white[rows]
            local = np.matmul(centers, w)
            local -= np.matmul(gset.means[rows][:, None, :], w)
            np.square(local, out=local)
            cube += rows.size * per_box
            inside += int(np.count_nonzero(local.sum(axis=2) <= cutoff_sq))
    return int(cube), int(inside)


def _cell_keys(points, inv):
    return np.floor(np.asarray(points) * inv).astype(np.int64)


def hash_counts(bank_means, queries, eps: float):
    """(occupied cells, candidates summed over queries) of an epsilon-cell
    spatial hash over ``bank_means`` queried at radius eps."""
    inv = 1.0 / eps
    keys = _cell_keys(bank_means, inv)
    if not len(keys) or not len(queries):
        return len(np.unique(keys, axis=0)), 0
    q_lo = np.floor((queries - eps) * inv).astype(np.int64)
    q_hi = np.floor((queries + eps) * inv).astype(np.int64)
    base = np.minimum(keys.min(axis=0), q_lo.min(axis=0))
    size = np.maximum(keys.max(axis=0), q_hi.max(axis=0)) - base + 1

    def pack(k):
        k = k - base
        return (k[:, 0] * size[1] + k[:, 1]) * size[2] + k[:, 2]

    cells, per_cell = np.unique(pack(keys), return_counts=True)
    cum = np.concatenate([[0], np.cumsum(per_cell)])
    total = 0
    reach = int((q_hi - q_lo).max())
    for dx in range(reach + 1):
        for dy in range(reach + 1):
            for dz in range(reach + 1):
                d = np.array([dx, dy, dz])
                ok = np.all(q_lo + d <= q_hi, axis=1)
                packed = pack(q_lo[ok] + d)
                pos = np.searchsorted(cells, packed)
                hit = pos < cells.size
                hit[hit] = cells[pos[hit]] == packed[hit]
                total += int((cum[pos[hit] + 1] - cum[pos[hit]]).sum())
    return int(cells.size), total
