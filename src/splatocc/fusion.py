"""Training-free streaming fusion of per-frame Gaussians into a memory bank.

The bank holds world-frame Gaussians plus a grid index over their means:
members sorted by cell (cells epsilon wide in x and y, epsilon/16 tall in z,
coarser only for a bank spread too wide for the index's fixed-size table),
their means in that order as three contiguous columns, and a dense int32
table of where each cell's run starts. Fusing a frame:

1. every incoming Gaussian is matched to its nearest bank member within
   epsilon as the bank was before the frame (at most one anchor per
   incoming, so nothing is double counted; among members at equal distance
   the lowest id wins). Matching runs in two exact passes, each over the
   whole frame: the first searches only the cells a ball of radius
   epsilon/2 overlaps, 4 (x, y) columns about epsilon tall, and settles
   every incoming with a member strictly closer than epsilon/2, since no
   member outside those cells can be that close; the second runs the full
   epsilon search, 9 columns about 2 epsilon tall, for the rest. A pass
   looks up all its columns in one index call, measures their candidates
   in batches of whole columns cut by candidate count, one axis at a time
   from the index's key-ordered coordinate columns, looks up member ids
   only for the pairs within range, and breaks ties once;
2. each anchor with matches is updated per attribute theta in
   {mean, covariance, opacity, logits} by the confidence-weighted average

       theta <- (gamma * p_mem * theta_mem + (1 - gamma) * sum_j p_j * theta_j)
                / (gamma * p_mem + (1 - gamma) * sum_j p_j)

   where p is top-1 softmax confidence and gamma < 0.5 biases toward the
   newer evidence. One stable argsort groups the matched incoming by
   anchor, in incoming order within a group. The sums then run in rounds:
   round r adds to every anchor with at least r matches its r-th, so each
   sum starts from 0.0 and takes its terms in incoming order, one field at
   a time. There are as many rounds as the most matches of one anchor, and
   rounds after the first touch only the anchors with more than one;
3. unmatched incoming Gaussians are inserted verbatim;
4. the index is rebuilt once over the updated means, from the old members in
   their previous key order followed by the new ones, so its stable sort
   starts from nearly sorted keys.

Each attribute (``means``, ``cov``, ``opacities``, ``logits``) is a C-contiguous
row prefix of a buffer with spare capacity, so an insert copies only its own
rows until a buffer fills and is doubled. ``_append`` writes rows and rebuilds
the index; ``_members`` gives the spare rows back and hands out read-only views.

Covariances are averaged as full matrices and stored as they come out: a
convex combination of symmetric matrices each above SCALE_FLOOR^2 I is one
too, so no factorization is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussians import (
    MAX_CLASSES, GaussianSet, WORLD_FRAME, _is_int, _is_real, _row_sum, _shifted_exp,
)
from .spatial_hash import SpatialHashGrid

# Candidate (incoming, member) pairs measured per batch of whole columns, so
# the pair arrays stay a few MB however dense the bank is; a column that
# holds more is measured alone.
_MATCH_PAIRS = 2 ** 15

# The bank's per-member attributes, in the order _append takes them.
_FIELDS = ("means", "cov", "opacities", "logits")


@dataclass(frozen=True)
class FusionConfig:
    epsilon: float = 0.08
    gamma: float = 0.4

    def __post_init__(self):
        if not (_is_real(self.epsilon) and 0 < self.epsilon < np.inf):
            raise ValueError("epsilon must be finite and > 0")
        if not (_is_real(self.gamma) and 0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class FusionStats:
    """One fused frame: incoming matched and inserted, (incoming, member) pairs
    that matching gathered over both passes, incoming left open by the first,
    the index's occupied cells after the frame, and the distinct bank members
    the frame updated."""
    matched: int
    inserted: int
    candidates: int
    open: int
    cells: int
    anchors: int


def top1_confidence(logits) -> np.ndarray:
    """Per-row max softmax probability as 1 / sum(exp(z - max z)), bit-identical
    to the largest entry of the softmax: the top class's term is exp(0) = 1,
    and correctly rounded division keeps every other entry at or below 1/sum.
    Computed class-major, as ``softmax`` is, with the same sum."""
    return 1.0 / _row_sum(_shifted_exp(logits))


class GaussianMemoryBank:
    """World-frame Gaussian accumulator with an epsilon-cell spatial index.

    Single writer: fuse_frame mutates the bank and must not run concurrently
    with queries. Frames are expected in timestamp order.
    """

    def __init__(self, num_classes: int, config: FusionConfig = FusionConfig()):
        if not (_is_int(num_classes) and 2 <= num_classes <= MAX_CLASSES):
            raise ValueError(f"num_classes must lie in 2..{MAX_CLASSES} and be an integer")
        self.config = config
        self.num_classes = int(num_classes)
        self.frame_stats: list = []   # one FusionStats per fused frame
        self.means = np.zeros((0, 3))
        self.cov = np.zeros((0, 3, 3))
        self.opacities = np.zeros(0)
        self.logits = np.zeros((0, self.num_classes))
        self._buffers: dict = {}   # attribute name -> (buffer, the row view handed out)
        self._index = SpatialHashGrid(config.epsilon)

    @classmethod
    def from_set(cls, gset: GaussianSet, config: FusionConfig = FusionConfig()):
        """Restore a bank from a checkpointed world-frame GaussianSet."""
        if gset.frame != WORLD_FRAME:
            raise ValueError("bank checkpoints must be world frame")
        bank = cls(gset.num_classes, config)
        bank._append(gset)
        return bank

    def __len__(self) -> int:
        return self.means.shape[0]

    @property
    def frame_count(self) -> int:
        return len(self.frame_stats)

    # Factors derived from ``cov`` on demand, as for a GaussianSet.
    scales, rotations = GaussianSet.scales, GaussianSet.rotations

    def to_set(self) -> GaussianSet:
        return GaussianSet._of(self.means.copy(), self.cov.copy(), self.opacities.copy(),
                               self.logits.copy(), WORLD_FRAME)

    def _members(self) -> GaussianSet:
        """Give back the buffers' spare rows (each attribute is copied out of its
        buffer), then read-only views of the bank's arrays, which stay writable:
        unlike ``to_set``, no snapshot, so valid only until the next fuse."""
        for name in _FIELDS:
            self._buffers.pop(name, None)   # frees each buffer before the next copy
            setattr(self, name, getattr(self, name).copy())
        return GaussianSet._of(self.means.view(), self.cov.view(), self.opacities.view(),
                               self.logits.view(), WORLD_FRAME)

    def _append(self, gset: GaussianSet) -> None:
        """Write ``gset``'s rows after the last member, then rebuild the index. A full
        buffer, or a reassigned attribute, moves to a new buffer of max(n + k, 2n) rows."""
        n, k = len(self), len(gset)
        for name in _FIELDS:
            held = getattr(self, name)
            buf, view = self._buffers.get(name, (None, None))
            if held is not view or len(buf) < n + k:
                buf = np.empty((max(n + k, 2 * n),) + held.shape[1:])
                buf[:n] = held
            buf[n:n + k] = getattr(gset, name)
            self._buffers[name] = buf, buf[:n + k]
            setattr(self, name, self._buffers[name][1])
        # Old members in their previous key order, then the new ones: the keys
        # come nearly sorted, and the index's adaptive stable sort runs fast.
        order = np.concatenate([self._index.ids, np.arange(len(self._index), len(self))])
        self._index.insert_many(order, np.take(self.means, order, axis=0))

    def radius_neighbors(self, query, eps: float = None) -> np.ndarray:
        """Ids of members whose mean lies within the closed ball of radius
        eps (default: the match radius) around ``query``."""
        eps = self.config.epsilon if eps is None else float(eps)
        if not eps > 0:
            raise ValueError("eps must be > 0")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (3,) or not np.all(np.isfinite(query)):
            raise ValueError("query must be a finite 3-vector")
        cand = self._index.candidates(query, eps)
        diff = self.means[cand] - query
        keep = np.einsum("ij,ij->i", diff, diff) <= eps * eps
        return cand[keep]

    def _nearest_within(self, queries):
        """Per query, the nearest member id within epsilon, or -1 (ties break
        to the lowest id); the candidate pairs gathered; the queries that the
        first pass left open.

        Two passes, both exact and each batched over the whole frame (see
        ``_nearest``). The first visits only the cells that a ball of radius
        epsilon/2 overlaps, at most 2 by 2 (x, y) columns, and settles every
        query with a member strictly closer than epsilon/2.
        The index's query boxes hold every member whose rounded squared
        distance is at most the rounded squared radius, so no member outside
        the visited cells is that close, and the nearest member and its tie
        break are the ones the full search finds. A member at exactly
        epsilon/2 can sit outside the visited cells, so that distance is
        left to the second pass, which runs the full epsilon search for the
        queries the first left open.
        """
        eps = self.config.epsilon
        half = 0.5 * eps
        # d2 <= nextafter(h^2, 0) is d2 < h^2.
        anchors, gathered = self._nearest(queries, half, np.nextafter(half * half, 0.0))
        open_rows = np.flatnonzero(anchors < 0)
        anchors[open_rows], more = self._nearest(queries[open_rows], eps, eps ** 2)
        return anchors, gathered + more, open_rows.size

    def _nearest(self, queries, radius: float, limit2: float):
        """Per query, the nearest member at squared distance <= limit2 among
        the cells a ball of ``radius`` overlaps, or -1 (ties break to the
        lowest id); and the number of candidate pairs gathered.

        The index reads every query's columns in one call. Their runs are
        expanded into key-order positions and measured in batches of
        consecutive columns that hold at most _MATCH_PAIRS candidates (or one
        column), from the index's key-ordered coordinate columns and the
        queries' own columns, one axis at a time. Only the pairs within limit2
        are mapped to member ids, and they are reduced to anchors once.
        Columns come in query order, so the kept rows ascend.
        """
        index = self._index
        rows, start, count = index.columns(queries, radius)
        ends = np.cumsum(count)   # candidates up to and including each column
        query_columns = np.ascontiguousarray(queries.T)
        kept = [(rows[:0], rows[:0], np.zeros(0))]   # a pass may keep no pair
        a = 0
        while a < rows.size:
            b = max(int(np.searchsorted(ends, ends[a] - count[a] + _MATCH_PAIRS, "right")), a + 1)
            pair_rows, pos = index.members(rows[a:b], start[a:b], count[a:b])
            sq = [np.take(m, pos) for m in index.coords]
            for d, q in zip(sq, query_columns):
                d -= np.take(q, pair_rows)
                d *= d
            # (x^2 + z^2) + y^2 is the order in which einsum("ij,ij->i") sums a
            # row of three, so d2 is the oracle's, bit for bit.
            d2 = np.add(sq[0], sq[2], out=sq[0])
            d2 += sq[1]
            keep = np.flatnonzero(d2 <= limit2)
            kept.append((pair_rows[keep], index.ids[pos[keep]], d2[keep]))
            a = b
        rows, ids, d2 = (np.concatenate(part) for part in zip(*kept))
        heads = np.flatnonzero(np.diff(rows, prepend=-1))
        nearest = np.repeat(np.minimum.reduceat(d2, heads), np.diff(heads, append=rows.size))
        tied = np.where(d2 == nearest, ids, np.iinfo(np.int64).max)
        anchors = np.full(len(queries), -1, dtype=np.int64)
        anchors[rows[heads]] = np.minimum.reduceat(tied, heads)
        return anchors, int(count.sum())

    def fuse_frame(self, incoming: GaussianSet) -> FusionStats:
        """Fuse one frame's world-frame Gaussians into the bank.

        Matched incoming members are consumed by their anchors; the rest are
        inserted. matched + inserted == len(incoming).
        """
        if incoming.frame != WORLD_FRAME:
            raise ValueError("fuse_frame requires a world-frame GaussianSet")
        if incoming.num_classes != self.num_classes:
            raise ValueError(
                f"class count mismatch: incoming {incoming.num_classes}, bank {self.num_classes}"
            )

        n_in = len(incoming)
        anchors, candidates, n_open = self._nearest_within(incoming.means)
        matched = anchors >= 0

        # Matched incoming grouped by anchor, in incoming order within a group;
        # the anchors ua ascend.
        rows = np.flatnonzero(matched)
        rows = rows[np.argsort(anchors[rows], kind="stable")]
        heads = np.flatnonzero(np.diff(anchors[rows], prepend=-1))
        ua = anchors[rows[heads]]
        counts = np.diff(heads, append=rows.size)
        # Round r adds to every anchor with at least r matches its r-th:
        # (anchor slots, their grouped positions heads + r - 1).
        rounds, slots = [(slice(None), heads)], np.flatnonzero(counts > 1)
        while slots.size:
            rounds.append((slots, heads[slots] + len(rounds)))
            slots = slots[counts[slots] > len(rounds)]

        def summed(values):
            total = np.zeros((ua.size,) + values.shape[1:])
            for at, pos in rounds:
                total[at] += values[pos]
            return total

        gamma = self.config.gamma
        w_in = (1.0 - gamma) * top1_confidence(incoming.logits[rows])
        w_mem = gamma * top1_confidence(self.logits[ua])
        den = w_mem + summed(w_in)
        for name in _FIELDS:
            dst = getattr(self, name)
            shape = (-1,) + (1,) * (dst.ndim - 1)
            theta = np.take(getattr(incoming, name), rows, axis=0)
            theta *= w_in.reshape(shape)
            fused = np.take(dst, ua, axis=0)
            fused *= w_mem.reshape(shape)
            fused += summed(theta)
            fused /= den.reshape(shape)
            dst[ua] = fused

        self._append(incoming.subset(~matched))
        self.frame_stats.append(FusionStats(matched=rows.size, inserted=n_in - rows.size,
                                            candidates=candidates, open=n_open,
                                            cells=self._index.cells, anchors=ua.size))
        return self.frame_stats[-1]

