"""Spatial hash neighbor search and confidence-weighted streaming fusion."""

import numpy as np
import pytest

import splatocc as so
from splatocc import fusion
from splatocc.gaussians import GaussianSet, softmax
from splatocc.spatial_hash import _REACH, _TABLE_CELLS, _Z_SPLIT, SpatialHashGrid

from oracles import cell_pairs, linear_nearest_within, linear_radius_scan, sequential_fuse


def make_set(means, opacities=None, logits=None, scales=0.03, nc=12):
    means = np.atleast_2d(np.asarray(means, dtype=float))
    n = means.shape[0]
    if opacities is None:
        opacities = np.full(n, 0.5)
    if logits is None:
        logits = np.zeros((n, nc))
    return GaussianSet(
        means=means, scales=np.full((n, 3), scales),
        rotations=np.tile([1.0, 0, 0, 0], (n, 1)),
        opacities=opacities, logits=logits, frame="world",
    )


def saturated_logits(cls, nc=12, gain=1000.0):
    vec = np.zeros(nc)
    vec[cls] = gain
    return vec


class TestSpatialHash:
    def test_insert_and_candidates(self):
        grid = SpatialHashGrid(0.1)
        grid.insert_many([0, 1], [[0.05, 0.05, 0.05], [0.95, 0.95, 0.95]])
        assert 0 in grid.candidates([0.04, 0.04, 0.04], 0.05)
        assert 1 not in grid.candidates([0.04, 0.04, 0.04], 0.05)

    def test_pairs_agree_with_candidates(self):
        # columns and members read fine z cells, candidates whole cells: their
        # pairs are a subset of candidates, and candidates is every member of
        # the cells, by key(), that overlap the ball's bounding box.
        rng = np.random.default_rng(21)
        points = rng.uniform(0, 1, (2000, 3))
        grid = SpatialHashGrid(0.08)
        grid.insert_many(range(len(points)), points)
        keys = np.array([grid.key(p) for p in points])
        centers = rng.uniform(-0.3, 1.3, (200, 3))
        for radius in (0.0, 0.03, 0.08, 0.17, 0.25):
            rows, pos = grid.members(*grid.columns(centers, radius))
            ids = grid.ids[pos]
            assert np.all(np.diff(rows) >= 0)
            for r, c in enumerate(centers):
                got = np.sort(ids[rows == r])
                cand = np.sort(grid.candidates(c, radius))
                assert np.isin(got, cand).all()
                box = np.floor(np.stack([c - radius, c + radius]) * (1 / 0.08))
                overlap = np.flatnonzero(np.all((keys >= box[0]) & (keys <= box[1]), axis=1))
                np.testing.assert_array_equal(cand, overlap)
                diff = points[got] - c
                within = got[np.einsum("ij,ij->i", diff, diff) <= radius ** 2]
                np.testing.assert_array_equal(within, linear_radius_scan(points, c, radius))

    def test_non_finite_input_rejected(self):
        bank = so.GaussianMemoryBank.from_set(make_set([[0.5, 0.5, 0.5]]))
        grid = SpatialHashGrid(0.08)
        grid.insert_many([0], [[0.5, 0.5, 0.5]])
        for query, eps in (([np.nan, 0, 0], 0.08), ([np.inf, 0, 0], 0.08), ([0, 0, 0], np.inf)):
            with pytest.raises(ValueError, match="finite"):
                bank.radius_neighbors(query, eps)
            with pytest.raises(ValueError, match="finite"):
                grid.columns([query], eps)
        for query in ([0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [[0.5, 0.5, 0.5]]):   # not a 3-vector
            with pytest.raises(ValueError, match="finite 3-vector"):
                bank.radius_neighbors(query, 0.08)
        with pytest.raises(ValueError):
            bank.radius_neighbors([0, 0, 0], np.nan)
        with pytest.raises(ValueError, match="finite"):
            grid.insert_many([0], [[np.nan, 0.5, 0.5]])

    def test_points_beyond_int64_cell_keys_rejected(self):
        # Finite, but 3e18 cells from the origin: past the 2**61 that packed keys allow.
        grid = SpatialHashGrid(1.0)
        for point in ([3e18, 0.0, 0.0], [0.0, -3e18, 0.0], [0.0, 0.0, 2e17]):
            with pytest.raises(ValueError, match="too many cells for int64 cell keys"):
                grid.insert_many([0, 1], [[0.0, 0.0, 0.0], point])

    def test_result_does_not_depend_on_member_order(self):
        rng = np.random.default_rng(24)
        points = rng.uniform(0, 1, (3000, 3))
        points[::5] = points[1::5]                          # shared cells and exact ties
        perm = rng.permutation(len(points))
        in_order, shuffled = SpatialHashGrid(0.08), SpatialHashGrid(0.08)
        in_order.insert_many(np.arange(len(points)), points)
        shuffled.insert_many(perm, points[perm])
        centers = rng.uniform(-0.2, 1.2, (300, 3))

        def sorted_pairs(grid, radius):
            rows, pos = grid.members(*grid.columns(centers, radius))
            ids = grid.ids[pos]
            by_pair = np.lexsort((ids, rows))
            return rows[by_pair], ids[by_pair]

        for radius in (0.04, 0.08, 0.2):
            for got, want in zip(sorted_pairs(shuffled, radius), sorted_pairs(in_order, radius)):
                np.testing.assert_array_equal(got, want)
            for c in centers[:50]:
                assert set(in_order.candidates(c, radius).tolist()) == set(
                    shuffled.candidates(c, radius).tolist())


def sorted_pairs(rows, ids):
    by_pair = np.lexsort((ids, rows))
    return rows[by_pair], ids[by_pair]


def assert_pairs_match_oracle(grid, points, centers, radius):
    """The index's pairs, positions mapped to ids, against the cell oracle;
    its key-ordered coordinates against ``points`` in that order."""
    for k, column in enumerate(grid.coords):
        assert column.tobytes() == points[grid.ids, k].tobytes()
    rows, pos = grid.members(*grid.columns(centers, radius))
    got = sorted_pairs(rows, grid.ids[pos])
    want = cell_pairs(points, centers, radius, grid.cell_size, _Z_SPLIT, _REACH,
                      grid._shift.tolist())
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    return got


def sparse_lattice(rng, spacing=100.0, side=4, per_site=3):
    """Members in small clusters (within 0.05 of each other) at the sites of
    a side^3 lattice ``spacing`` metres apart."""
    sites = spacing * np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    return np.repeat(sites, per_site, axis=0) + rng.uniform(-0.025, 0.025, (len(sites) * per_site, 3))


class TestCellTable:
    """The cell-start table against a brute-force cell oracle, at its edges."""

    def test_empty_index(self):
        grid = SpatialHashGrid(0.08)
        centers = np.random.default_rng(30).uniform(-1, 1, (20, 3))
        for radius in (0.0, 0.04, 0.5):
            rows, ids = assert_pairs_match_oracle(grid, np.zeros((0, 3)), centers, radius)
            assert rows.size == ids.size == 0
            assert grid.candidates(centers[0], radius).size == 0
        assert grid.cells == 0 and grid._starts.tolist() == [0]

    def test_one_member_index(self):
        rng = np.random.default_rng(31)
        point = np.array([[0.3, -0.7, 1.1]])
        grid = SpatialHashGrid(0.08)
        grid.insert_many([0], point)
        assert grid.cells == 1 and grid._starts.tolist() == [0, 1]
        centers = point + rng.uniform(-0.2, 0.2, (200, 3))
        centers[0] = point[0]
        for radius in (0.0, 0.02, 0.04, 0.08):
            rows, _ = assert_pairs_match_oracle(grid, point, centers, radius)
            assert rows[0] == 0 and rows.size < len(centers)
        rows, _ = assert_pairs_match_oracle(grid, point, centers, 0.3)
        np.testing.assert_array_equal(rows, np.arange(len(centers)))

    def test_boxes_clipped_to_the_last_cell_read_the_final_entry(self):
        rng = np.random.default_rng(32)
        points = rng.uniform(0, 0.5, (300, 3))
        top = points.max(axis=0)
        points[7] = top                      # the member in the box's last cell
        grid = SpatialHashGrid(0.08)
        grid.insert_many(np.arange(len(points)), points)
        assert grid._starts[-1] == len(points)
        # Balls past the top corner: each box is clipped to the box's last
        # cells, and the run of the last column ends at the table's final entry.
        for radius in (0.02, 0.08, 0.2):
            centers = top + rng.uniform(0.0, radius, (50, 3))
            rows, ids = assert_pairs_match_oracle(grid, points, centers, radius)
            assert np.all(np.bincount(rows[ids == 7], minlength=len(centers)) == 1)
        lowest = points.min(axis=0) - rng.uniform(0.0, 0.05, (50, 3))
        assert_pairs_match_oracle(grid, points, lowest, 0.08)

    @pytest.mark.parametrize("cell", [0.5, 0.08])
    def test_members_on_cell_boundaries(self, cell):
        # Members on fine-cell corners, and queries whose box edges fall on them.
        rng = np.random.default_rng(33)
        fine = np.array([cell, cell, cell / _Z_SPLIT])
        points = rng.integers(-6, 7, (400, 3)) * fine
        grid = SpatialHashGrid(cell)
        grid.insert_many(np.arange(len(points)), points)
        centers = rng.integers(-7, 8, (60, 3)) * fine
        for radius in (0.0, cell / 2, cell, fine[2] * 3):
            assert_pairs_match_oracle(grid, points, centers, radius)
        for c in centers[:20]:
            got = np.sort(grid.candidates(c, cell))
            np.testing.assert_array_equal(got[np.isin(got, linear_radius_scan(points, c, cell))],
                                          linear_radius_scan(points, c, cell))


def _batch_case(name):
    """(bank means, queries, batch budget) for one batching edge."""
    rng = np.random.default_rng(36)
    spread = rng.uniform(0, 1, (2000, 3))                  # about 2 members per column
    inside = rng.uniform(0, 1, (300, 3))
    outside = rng.uniform(0, 1, (40, 3)) + [3, 0, 0]       # past the index box in x
    stack = np.vstack([np.full((50, 3), 0.5), rng.uniform(0, 1, (200, 3))])   # 50 tied
    above = rng.uniform(0, 1, (20, 3)) + [0, 0, 2]          # over the index box in z only
    return {
        "columns-split-across-batches": (spread, inside, 16),
        "queries-without-columns": (spread, np.vstack([outside[:20], inside[:100], outside[20:]]),
                                    16),
        "queries-above-the-index": (spread, np.vstack([above, inside[:100]]), 16),
        "empty-frame": (spread, np.zeros((0, 3)), 16),
        "one-cell-over-budget": (stack, 0.5 + rng.uniform(-0.05, 0.05, (60, 3)), 8),
    }[name]


class TestMatchBatches:
    """Matching measures candidates in batches of at most _MATCH_PAIRS pairs,
    or one column; anchors and counts do not depend on where batches are cut."""

    @staticmethod
    def match(monkeypatch, name):
        """Check one case against the linear scan and the index's columns; its
        batches as (rows, run lengths)."""
        means, queries, budget = _batch_case(name)
        eps = 0.08
        bank = so.GaussianMemoryBank.from_set(make_set(means), so.FusionConfig(epsilon=eps))
        d2 = ((queries[:, None, :] - means[None, :, :]) ** 2).sum(axis=-1)
        open_rows = np.flatnonzero(np.all(d2 >= (eps / 2) ** 2, axis=1))
        want = sum(int(bank._index.columns(q, r)[2].sum())
                   for q, r in ((queries, eps / 2), (queries[open_rows], eps)))
        batches, members = [], SpatialHashGrid.members

        def recorded(grid, rows, start, count):
            batches.append((rows, count))
            return members(grid, rows, start, count)

        monkeypatch.setattr(fusion, "_MATCH_PAIRS", budget)
        monkeypatch.setattr(SpatialHashGrid, "members", recorded)
        anchors, candidates, n_open = bank._nearest_within(queries)
        np.testing.assert_array_equal(anchors, linear_nearest_within(means, queries, eps))
        assert (candidates, n_open) == (want, open_rows.size)
        assert all(count.sum() <= budget or count.size == 1 for _, count in batches)
        assert sum(int(count.sum()) for _, count in batches) == want
        stats = bank.fuse_frame(make_set(queries))
        assert (stats.matched, stats.candidates) == (np.count_nonzero(anchors >= 0), want)
        return batches, budget

    @staticmethod
    def columnless(monkeypatch, name):
        """The first 20 queries' boxes miss the index on one axis: no column."""
        means, queries, _ = _batch_case(name)
        grid = SpatialHashGrid(0.08)
        grid.insert_many(np.arange(len(means)), means)
        assert grid.columns(queries[:20], 0.08)[0].size == 0
        TestMatchBatches.match(monkeypatch, name)

    def test_queries_without_columns(self, monkeypatch):
        self.columnless(monkeypatch, "queries-without-columns")

    def test_queries_above_the_index(self, monkeypatch):
        self.columnless(monkeypatch, "queries-above-the-index")

    def test_empty_frame(self, monkeypatch):
        self.match(monkeypatch, "empty-frame")

    def test_a_query_spans_batches(self, monkeypatch):
        batches, _ = self.match(monkeypatch, "columns-split-across-batches")
        assert any(a[-1] == b[0] for (a, _), (b, _) in zip(batches, batches[1:]))

    def test_a_column_over_budget_is_one_batch(self, monkeypatch):
        batches, budget = self.match(monkeypatch, "one-cell-over-budget")
        assert any(count.sum() > budget for _, count in batches)


class TestWideSparseBank:
    """Members 100 m apart: the table stays within its budget by coarsening,
    and matching and radius queries stay exact."""

    @pytest.mark.parametrize("outlier", [None, [3e5, -2e5, 7e4]])
    def test_table_within_budget_and_exact(self, outlier):
        rng = np.random.default_rng(34)
        eps = 0.08
        means = sparse_lattice(rng)
        if outlier is not None:
            means = np.vstack([means, outlier])
        bank = so.GaussianMemoryBank.from_set(make_set(means), so.FusionConfig(epsilon=eps))
        index = bank._index
        assert index._shift.any()                           # coarsened
        assert index._starts.size <= _TABLE_CELLS + 1
        assert index.cells <= len(means)
        queries = means[rng.integers(0, len(means), 300)] + rng.uniform(-0.1, 0.1, (300, 3))
        anchors, _, _ = bank._nearest_within(queries)
        np.testing.assert_array_equal(anchors, linear_nearest_within(means, queries, eps))
        assert np.count_nonzero(anchors >= 0) > 100
        for q in queries[:60]:
            r = float(rng.uniform(0.02, 0.2))
            np.testing.assert_array_equal(np.sort(bank.radius_neighbors(q, r)),
                                          linear_radius_scan(means, q, r))
        assert_pairs_match_oracle(index, means, queries[:40], eps)

    def test_growing_bank_stays_within_budget(self):
        # Frames that land ever farther out coarsen the index more, and the
        # table never passes the budget.
        rng = np.random.default_rng(35)
        bank = so.GaussianMemoryBank(12)
        for t in range(6):
            means = sparse_lattice(rng, spacing=10.0 ** t, side=2)
            want = linear_nearest_within(bank.means, means, bank.config.epsilon)
            stats = bank.fuse_frame(make_set(means))
            assert stats.matched == np.count_nonzero(want >= 0)
            assert bank._index._starts.size <= _TABLE_CELLS + 1
            assert stats.cells == bank._index.cells <= len(bank)
        assert bank._index._shift.any()


class TestRadiusNeighbors:
    def test_mutual_neighbors(self):
        bank = so.GaussianMemoryBank.from_set(
            make_set([[1.0, 1.0, 1.0], [1.05, 1.0, 1.0]]), so.FusionConfig(epsilon=0.1)
        )
        assert set(bank.radius_neighbors([1.0, 1.0, 1.0], 0.1)) == {0, 1}
        assert set(bank.radius_neighbors([1.05, 1.0, 1.0], 0.1)) == {0, 1}

    def test_empty_bank(self):
        bank = so.GaussianMemoryBank(12)
        assert bank.radius_neighbors([0, 0, 0], 0.5).size == 0

    def test_set_equal_to_linear_scan(self):
        rng = np.random.default_rng(13)
        n = 5000
        means = rng.uniform(0, 3, (n, 3))
        bank = so.GaussianMemoryBank.from_set(make_set(means), so.FusionConfig(epsilon=0.08))
        for _ in range(50):
            q = rng.uniform(-0.2, 3.2, 3)
            eps = float(rng.uniform(0.02, 0.08))
            got = set(bank.radius_neighbors(q, eps).tolist())
            want = set(linear_radius_scan(means, q, eps).tolist())
            assert got == want
        # Radii above the cell size reach past the 27-cell neighborhood.
        for _ in range(20):
            q = rng.uniform(-0.2, 3.2, 3)
            eps = float(rng.uniform(0.08, 0.25))
            got = set(bank.radius_neighbors(q, eps).tolist())
            assert got == set(linear_radius_scan(means, q, eps).tolist())

    def test_member_past_the_rounded_box_edge(self):
        # The member's distance, 0.08 + 5e-324, rounds to 0.08, but it lies
        # below 0.08 - 0.08 = 0, in the cell under the query box's lowest one.
        bank = so.GaussianMemoryBank.from_set(make_set([[0.5, 0.5, -5e-324]]))
        assert list(bank.radius_neighbors([0.5, 0.5, 0.08], 0.08)) == [0]
        assert bank.fuse_frame(make_set([[0.5, 0.5, 0.08]])).matched == 1

    def test_closed_ball_boundary(self):
        bank = so.GaussianMemoryBank.from_set(
            make_set([[0.0, 0.0, 0.0], [0.08, 0.0, 0.0]]), so.FusionConfig(epsilon=0.08)
        )
        assert set(bank.radius_neighbors([0.0, 0.0, 0.0], 0.08)) == {0, 1}


def growing_frames(seed, count=14, n=300):
    """Frames that each half revisit the bank's members (a few within epsilon)
    and half land in a block that steps outward along +-x, +-y and +-z in turn,
    past the bank's bounding box on both sides of every axis."""
    rng = np.random.default_rng(seed)
    seen = np.zeros((0, 3))
    for t in range(count):
        step = np.zeros(3)
        step[t % 3] = (t // 3 + 1) * (0.5 if t % 6 < 3 else -0.5)
        fresh = rng.uniform(0, 1, (n, 3)) + step
        if len(seen):
            near = seen[rng.integers(0, len(seen), n)] + rng.uniform(-0.06, 0.06, (n, 3))
        else:
            near = rng.uniform(0, 1, (n, 3))
        means = np.concatenate([fresh, near])
        seen = np.concatenate([seen, means])
        yield make_set(means, opacities=rng.uniform(0.1, 0.9, len(means)),
                       logits=rng.normal(size=(len(means), 12)))


class TestGrowingBank:
    def test_index_and_matches_follow_linear_scans(self):
        rng = np.random.default_rng(25)
        eps = 0.08
        bank = so.GaussianMemoryBank(12, so.FusionConfig(epsilon=eps))
        buffers, past = [], np.zeros((2, 3), dtype=bool)   # axis sides crossed
        for frame in growing_frames(25):
            before = bank.to_set()
            if len(before):
                past |= [frame.means.min(0) < before.means.min(0),
                         frame.means.max(0) > before.means.max(0)]
            want = linear_nearest_within(before.means, frame.means, eps)
            stats = bank.fuse_frame(frame)
            assert stats.matched == np.count_nonzero(want >= 0)
            # Every anchor moves; inserted members follow in incoming order.
            n = len(before)
            moved = np.flatnonzero(np.any(bank.means[:n] != before.means, axis=1))
            np.testing.assert_array_equal(moved, np.unique(want[want >= 0]))
            np.testing.assert_array_equal(bank.means[n:], frame.means[want < 0])
            for q in rng.uniform(bank.means.min(0) - 0.1, bank.means.max(0) + 0.1, (40, 3)):
                r = float(rng.uniform(0.02, eps))
                np.testing.assert_array_equal(np.sort(bank.radius_neighbors(q, r)),
                                              linear_radius_scan(bank.means, q, r))
            if all(b is not bank.means.base for b in buffers):
                buffers.append(bank.means.base)
        assert past.all()
        assert len(buffers) >= 4        # capacity grew several times
        assert bank.means.flags.c_contiguous and bank.logits.flags.c_contiguous


class TestBankStorage:
    def test_snapshot_survives_growth(self):
        frames = list(growing_frames(26, count=8))
        bank = so.GaussianMemoryBank(12)
        for frame in frames[:3]:
            bank.fuse_frame(frame)
        snap = bank.to_set()
        kept = [a.copy() for a in (snap.means, snap.cov, snap.opacities, snap.logits)]
        base = bank.means.base
        for frame in frames[3:]:
            bank.fuse_frame(frame)
        assert bank.means.base is not base
        for got, want in zip((snap.means, snap.cov, snap.opacities, snap.logits), kept):
            assert np.array_equal(got, want)

    def test_restored_bank_fuses_like_the_original(self):
        frames = list(growing_frames(27, count=12))
        config = so.FusionConfig(epsilon=0.08)
        bank = so.GaussianMemoryBank(12, config)
        for frame in frames[:5]:
            bank.fuse_frame(frame)
        restored = so.GaussianMemoryBank.from_set(bank.to_set(), config)
        for frame in frames[5:]:
            assert restored.fuse_frame(frame) == bank.fuse_frame(frame)
        for name in ("means", "cov", "opacities", "logits"):
            assert np.array_equal(getattr(restored, name), getattr(bank, name))

    @staticmethod
    def assert_index_follows_bank(bank):
        """The index holds every member once, and its key-ordered coordinate
        columns are the bank's means in that order, byte for byte."""
        index = bank._index
        np.testing.assert_array_equal(np.sort(index.ids), np.arange(len(bank)))
        assert index.coords.shape == (3, len(bank)) and index.coords.flags.c_contiguous
        for k, column in enumerate(index.coords):
            assert column.tobytes() == bank.means[index.ids, k].tobytes()

    def test_index_holds_every_member_once(self):
        # Rows enter the bank one way, and that way rebuilds the index and its
        # key-ordered coordinates: after from_set, after every fused frame,
        # also when the buffers double, a frame matches nothing or is empty.
        frames = list(growing_frames(29, count=6))
        bank = so.GaussianMemoryBank.from_set(frames[0])
        sizes, buffers = [len(bank)], [bank.means.base]
        self.assert_index_follows_bank(bank)
        for frame in frames[1:]:
            bank.fuse_frame(frame)
            sizes.append(len(bank))
            self.assert_index_follows_bank(bank)
            if bank.means.base is not buffers[-1]:
                buffers.append(bank.means.base)
        assert sizes == sorted(set(sizes))   # every frame inserted some
        assert len(buffers) > 1              # the buffers doubled
        far = make_set(frames[1].means + 100.0)
        assert bank.fuse_frame(far).matched == 0
        self.assert_index_follows_bank(bank)
        stats = bank.fuse_frame(GaussianSet.empty(12, frame="world"))
        assert (stats.matched, stats.inserted) == (0, 0)
        self.assert_index_follows_bank(bank)

    def test_assigned_attributes_are_kept(self):
        frames = list(growing_frames(28, count=4))
        bank = so.GaussianMemoryBank(12)
        for frame in frames[:3]:
            bank.fuse_frame(frame)
        fewer = bank.opacities[:-1]
        bank.opacities = fewer
        assert bank.to_set().opacities is not fewer
        assert np.array_equal(bank.to_set().opacities, fewer)
        # A reassigned attribute is what the next fuse extends, also when the
        # new rows fit in the spare capacity of the buffer it replaced.
        n = len(bank)
        bank.opacities = np.full(n, 0.25)
        far = make_set(frames[3].means[:10] + 100.0)
        assert len(bank.means.base) >= n + len(far)
        bank.fuse_frame(far)
        assert np.all(bank.opacities[:n] == 0.25)
        np.testing.assert_array_equal(bank.opacities[n:], far.opacities)


def signed_zero_set(rng, means):
    """World-frame set at ``means`` with random covariances, opacities and
    logits, where a third of the logits and of the covariances' off-diagonal
    pairs are -0.0."""
    n = len(means)
    cov = np.zeros((n, 3, 3))
    cov[:, [0, 1, 2], [0, 1, 2]] = rng.uniform(1e-4, 4e-3, (n, 3))
    off = rng.uniform(-5e-5, 5e-5, (n, 3))
    off[rng.uniform(size=(n, 3)) < 1 / 3] = -0.0
    cov[:, [0, 0, 1], [1, 2, 2]] = cov[:, [1, 2, 2], [0, 0, 1]] = off
    logits = rng.normal(size=(n, 12))
    logits[rng.uniform(size=(n, 12)) < 1 / 3] = -0.0
    return GaussianSet.from_covariances(means, cov, rng.uniform(0.05, 1.0, n), logits,
                                        frame="world")


class TestFuseOracle:
    """fuse_frame against sequential_fuse, byte for byte: every anchor's sums
    start from 0.0 and take its matches in incoming order."""

    @staticmethod
    def fuse(members, incoming, eps=0.08, gamma=0.4):
        bank = so.GaussianMemoryBank.from_set(members, so.FusionConfig(epsilon=eps, gamma=gamma))
        stats = bank.fuse_frame(incoming)
        want = sequential_fuse(members, incoming, eps, gamma)
        for name, expected in zip(("means", "cov", "opacities", "logits"), want):
            got = getattr(bank, name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name
        anchors = linear_nearest_within(members.means, incoming.means, eps)
        assert stats.matched == np.count_nonzero(anchors >= 0)
        assert stats.anchors == np.unique(anchors[anchors >= 0]).size
        return stats

    def test_anchors_with_one_to_seven_matches(self):
        # Members 0.5 apart; member i gets i % 8 matches within eps/4 of it,
        # shuffled among the frame's other incoming. Members and incoming sit
        # at -0.0 on some axes, so the first term of a sum can be -0.0.
        rng = np.random.default_rng(50)
        lattice = 0.5 * np.indices((6, 6, 2)).reshape(3, -1).T
        lattice[::3, 0] = -0.0
        counts = np.arange(len(lattice)) % 8
        near = np.repeat(lattice, counts, axis=0) + rng.uniform(-0.02, 0.02, (counts.sum(), 3))
        near[::4, 0] = -0.0
        far = rng.uniform(0, 2.5, (40, 3)) + [0.25, 0.25, 0.25]   # some match, some do not
        frame = np.vstack([near, far])[rng.permutation(counts.sum() + 40)]
        stats = self.fuse(signed_zero_set(rng, lattice), signed_zero_set(rng, frame))
        assert 0 < stats.matched < len(frame)

    def test_random_dense_frame(self):
        rng = np.random.default_rng(51)
        members = signed_zero_set(rng, rng.uniform(0, 0.6, (300, 3)))
        stats = self.fuse(members, signed_zero_set(rng, rng.uniform(-0.05, 0.65, (2000, 3))))
        assert stats.matched > 1.5 * stats.anchors

    def test_frame_that_matches_nothing(self):
        rng = np.random.default_rng(52)
        members = signed_zero_set(rng, rng.uniform(0, 1, (100, 3)))
        stats = self.fuse(members, signed_zero_set(rng, rng.uniform(3, 4, (50, 3))))
        assert (stats.matched, stats.anchors, stats.inserted) == (0, 0, 50)

    def test_frame_where_everything_matches(self):
        rng = np.random.default_rng(53)
        means = rng.uniform(0, 1, (100, 3))
        members = signed_zero_set(rng, means)
        frame = np.repeat(means, 3, axis=0)[rng.permutation(300)] + rng.uniform(-0.01, 0.01, (300, 3))
        stats = self.fuse(members, signed_zero_set(rng, frame))
        assert stats.matched == 300 and stats.inserted == 0


class TestTop1Confidence:
    def test_uniform_logits(self):
        g = GaussianSet([0, 0, 0], [1, 1, 1], [1, 0, 0, 0], 0.5, np.zeros(12))
        p = so.top1_confidence(g.logits)[0]
        assert p == pytest.approx(1 / 12, abs=1e-12)
        assert p == pytest.approx(0.08333, abs=1e-5)

    def test_one_hot_gain(self):
        vec = np.zeros(12)
        vec[4] = 6.0
        g = GaussianSet([0, 0, 0], [1, 1, 1], [1, 0, 0, 0], 0.5, vec)
        expected = np.exp(6.0) / (np.exp(6.0) + 11.0)
        p = so.top1_confidence(g.logits)[0]
        assert p == pytest.approx(expected, abs=1e-12)
        assert p == pytest.approx(0.97346, abs=1e-5)

    def test_two_way_tie(self):
        vec = np.zeros(6)
        vec[1] = vec[4] = 3.0
        g = GaussianSet([0, 0, 0], [1, 1, 1], [1, 0, 0, 0], 0.5, vec)
        expected = np.exp(3.0) / (2 * np.exp(3.0) + 4.0)
        p = so.top1_confidence(g.logits)[0]
        assert p == pytest.approx(expected, abs=1e-12)

    def test_set_vectorized(self):
        gset = make_set([[0, 0, 0], [1, 1, 1]], logits=np.array([saturated_logits(2), np.zeros(12)]))
        np.testing.assert_allclose(so.top1_confidence(gset.logits), [1.0, 1 / 12], atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 30.0, 1000.0])
    def test_bit_identical_to_softmax_max(self, scale):
        rng = np.random.default_rng(15)
        logits = scale * rng.normal(size=(3000, 12))
        logits[::7, 5] = logits[::7].max(axis=1)     # two-way ties for the top class
        logits[::11] = logits[::11, :1]              # every class tied
        gset = make_set(np.zeros((len(logits), 3)), logits=logits)
        assert np.array_equal(so.top1_confidence(gset.logits), softmax(logits).max(axis=-1))
        # Every branch of the class-major sum: pairwise blocks of 8 and splits past 128.
        for nc in (2, 7, 8, 9, 16, 17, 33, 128, 129, 300):
            logits = scale * rng.normal(size=(500, nc))
            logits[::7, nc - 1] = logits[::7].max(axis=1)
            assert np.array_equal(so.top1_confidence(logits), softmax(logits).max(axis=-1)), nc


class TestFuseFrame:
    def test_weighted_average_hand_example(self):
        logits = saturated_logits(3)
        bank = so.GaussianMemoryBank.from_set(
            make_set([[1, 1, 1]], opacities=np.array([0.8]), logits=logits[None, :]),
            so.FusionConfig(epsilon=0.08, gamma=0.3),
        )
        stats = bank.fuse_frame(
            make_set([[1, 1, 1]], opacities=np.array([0.4]), logits=logits[None, :])
        )
        assert stats == so.FusionStats(matched=1, inserted=0, candidates=1, open=0, cells=1,
                                       anchors=1)
        assert abs(bank.opacities[0] - 0.52) <= 1e-9

    def test_identical_input_is_fixed_point(self):
        rng = np.random.default_rng(14)
        gset = GaussianSet(
            means=rng.uniform(0, 2, (20, 3)), scales=rng.uniform(0.01, 0.05, (20, 3)),
            rotations=rng.normal(size=(20, 4)), opacities=rng.uniform(0.1, 0.9, 20),
            logits=rng.normal(size=(20, 12)), frame="world",
        )
        bank = so.GaussianMemoryBank.from_set(gset, so.FusionConfig(epsilon=0.02, gamma=0.4))
        before = bank.to_set()
        stats = bank.fuse_frame(gset)
        assert stats.matched == 20 and stats.inserted == 0
        after = bank.to_set()
        assert np.abs(after.means - before.means).max() <= 1e-9
        assert np.abs(after.opacities - before.opacities).max() <= 1e-9
        assert np.abs(after.logits - before.logits).max() <= 1e-9
        assert np.abs(after.cov - before.cov).max() <= 1e-9

    def test_empty_memory_inserts_everything(self):
        bank = so.GaussianMemoryBank(12)
        incoming = make_set(np.random.default_rng(15).uniform(0, 1, (5, 3)))
        stats = bank.fuse_frame(incoming)
        assert stats == so.FusionStats(matched=0, inserted=5, candidates=0, open=5, cells=5,
                                       anchors=0)
        assert len(bank) == 5
        np.testing.assert_array_equal(bank.to_set().means, incoming.means)

    def test_matched_plus_inserted_is_total(self):
        rng = np.random.default_rng(16)
        bank = so.GaussianMemoryBank.from_set(
            make_set(rng.uniform(0, 2, (200, 3))), so.FusionConfig(epsilon=0.08)
        )
        old_size = len(bank)
        incoming = make_set(rng.uniform(0, 2, (300, 3)))
        stats = bank.fuse_frame(incoming)
        assert stats.matched + stats.inserted == 300
        assert len(bank) == old_size + stats.inserted
        assert bank.frame_count == 1

    def test_stats_count_candidates_and_open_queries(self):
        rng = np.random.default_rng(20)
        eps = 0.08
        means = rng.uniform(0, 1, (1500, 3))
        bank = so.GaussianMemoryBank.from_set(make_set(means), so.FusionConfig(epsilon=eps))
        incoming = rng.uniform(-0.1, 1.1, (2500, 3))
        # Open: no member strictly closer than eps/2.
        d2 = ((incoming[:, None, :] - means[None, :, :]) ** 2).sum(axis=-1)
        open_rows = np.flatnonzero(d2.min(axis=1) >= (eps / 2) ** 2)
        # Candidates: the pairs of the eps/2 pass over every incoming, and of
        # the eps pass over the open ones.
        want = sum(int(bank._index.columns(q, r)[2].sum())
                   for q, r in ((incoming, eps / 2), (incoming[open_rows], eps)))
        stats = bank.fuse_frame(make_set(incoming))
        assert stats.candidates == want > 0
        assert stats.open == open_rows.size > 0

    def test_frame_stats_record_every_fused_frame(self):
        rng = np.random.default_rng(19)
        bank = so.GaussianMemoryBank.from_set(make_set(rng.uniform(0, 1, (100, 3))))
        assert bank.frame_stats == [] and bank.frame_count == 0
        returned = [bank.fuse_frame(make_set(rng.uniform(0, 1, (n, 3)))) for n in (150, 80, 60)]
        assert bank.frame_stats == returned
        assert bank.frame_count == len(bank.frame_stats) == 3
        assert all(s.matched > 0 and s.inserted > 0 for s in returned)

    def test_fused_attributes_are_convex_combinations(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            a_mem, a_in = rng.uniform(0, 1, 2)
            bank = so.GaussianMemoryBank.from_set(
                make_set([[1, 1, 1]], opacities=np.array([a_mem])),
                so.FusionConfig(epsilon=0.1, gamma=float(rng.uniform(0.05, 0.95))),
            )
            bank.fuse_frame(make_set([[1.02, 1, 1]], opacities=np.array([a_in])))
            lo, hi = min(a_mem, a_in), max(a_mem, a_in)
            assert lo - 1e-12 <= bank.opacities[0] <= hi + 1e-12

    def test_fused_covariance_positive_semidefinite(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            center = rng.uniform(0, 1, 3)
            mem = GaussianSet(
                means=center[None, :], scales=rng.uniform(0.005, 0.2, (1, 3)),
                rotations=rng.normal(size=(1, 4)), opacities=[0.5],
                logits=rng.normal(size=(1, 12)), frame="world",
            )
            k = int(rng.integers(1, 6))
            inc = GaussianSet(
                means=center + rng.uniform(-0.04, 0.04, (k, 3)),
                scales=rng.uniform(0.005, 0.2, (k, 3)),
                rotations=rng.normal(size=(k, 4)), opacities=rng.uniform(0, 1, k),
                logits=rng.normal(size=(k, 12)), frame="world",
            )
            bank = so.GaussianMemoryBank.from_set(mem, so.FusionConfig(epsilon=0.08))
            bank.fuse_frame(inc)
            cov = bank.to_set().cov[0]
            np.linalg.cholesky(cov + 1e-10 * np.eye(3))
            assert np.all(bank.scales[0] >= so.SCALE_FLOOR)

    def test_gamma_near_one_keeps_memory(self):
        rng = np.random.default_rng(19)
        logits_mem = rng.uniform(-0.25, 0.25, 12)
        mem = make_set([[1, 1, 1]], opacities=np.array([0.7]), logits=logits_mem[None, :])
        bank = so.GaussianMemoryBank.from_set(mem, so.FusionConfig(epsilon=0.1, gamma=0.999))
        inc = make_set(
            [[1.01, 1.0, 1.0]], opacities=np.array([0.2]),
            logits=(logits_mem + rng.uniform(-0.5, 0.5, 12))[None, :],
        )
        bank.fuse_frame(inc)
        assert abs(bank.opacities[0] - 0.7) <= 1e-3
        assert np.abs(bank.means[0] - [1, 1, 1]).max() <= 1e-3
        assert np.abs(bank.logits[0] - logits_mem).max() <= 1e-3

    def test_matches_follow_linear_nearest_within(self):
        # Coordinates on a 2^-10 lattice and a power-of-two epsilon make the
        # offsets below exact, so some incoming lie at exactly epsilon.
        rng = np.random.default_rng(22)
        eps = 0.0625
        base = np.round(rng.uniform(0, 1.5, (2500, 3)) * 1024) / 1024
        # Sites a quarter cell past a cell corner, away from the random
        # members: each has a member at 0.875 eps across the next cell
        # boundary in x, and a lower-id one farther off, at 0.9375 eps in -y.
        corners = 2.0 + 0.25 * np.indices((4, 4, 4)).reshape(3, -1).T
        sites = corners + eps / 4
        means = np.concatenate([
            base, base[:400],                               # duplicates tie exactly
            sites - [0, 0.9375 * eps, 0], sites + [0.875 * eps, 0, 0],
        ])
        bank = so.GaussianMemoryBank.from_set(make_set(means), so.FusionConfig(epsilon=eps))
        axis_steps = np.eye(3)[rng.integers(0, 3, 600)] * eps * rng.choice([-1, 1], (600, 1))
        incoming = np.concatenate([
            rng.uniform(-0.1, 1.6, (1500, 3)),
            means[rng.integers(0, len(means), 600)] + axis_steps,   # at exactly epsilon
            base[rng.integers(0, 400, 300)],                        # onto a duplicated pair
            means[rng.integers(0, len(means), 300)] + axis_steps[:300] / 2,  # at exactly eps/2
            base[rng.integers(0, 400, 200)] + axis_steps[:200] / 2,   # eps/2 from a pair
            base[rng.integers(0, 400, 200)] + axis_steps[200:400] / 4,  # a tie inside eps/2
            sites,                                                  # nearest in (eps/2, eps]
        ])
        want = linear_nearest_within(means, incoming, eps)
        before = bank.opacities.copy()
        stats = bank.fuse_frame(make_set(incoming, opacities=np.full(len(incoming), 0.9)))
        assert stats.matched == np.count_nonzero(want >= 0)
        changed = np.flatnonzero(bank.opacities[:len(means)] != before)
        np.testing.assert_array_equal(changed, np.unique(want[want >= 0]))

    def test_matches_on_fine_cell_boundaries(self):
        # epsilon = 0.08 is not a power of two, so v / epsilon rounds. Each
        # site, alone in its (x, y) column, holds members on a fine z cell
        # boundary k * eps / _Z_SPLIT, or half way between two, and on the
        # floats next to it; incoming lie exactly eps/2 and eps from them
        # along z, where the fine cells that a query's z range reads begin
        # and end.
        rng = np.random.default_rng(23)
        eps = 0.08
        xy = 0.25 * np.indices((20, 20)).reshape(2, -1).T
        z = (rng.integers(-40, 60, len(xy)) + rng.choice([0.0, 0.5], len(xy))) * eps / _Z_SPLIT
        means = np.concatenate([np.column_stack([xy, v])
                                for v in (z, np.nextafter(z, -1.0), np.nextafter(z, 1.0))])
        bank = so.GaussianMemoryBank.from_set(make_set(means), so.FusionConfig(epsilon=eps))
        steps = [[0, 0, d] for d in (-eps, -eps / 2, eps / 2, eps)]
        incoming = (means[:, None, :] + steps).reshape(-1, 3)
        want = linear_nearest_within(means, incoming, eps)
        assert 0 < np.count_nonzero(want >= 0) < len(incoming)
        before = bank.opacities.copy()
        stats = bank.fuse_frame(make_set(incoming, opacities=np.full(len(incoming), 0.9)))
        assert stats.matched == np.count_nonzero(want >= 0)
        changed = np.flatnonzero(bank.opacities[:len(means)] != before)
        np.testing.assert_array_equal(changed, np.unique(want[want >= 0]))

    def test_distances_sum_in_the_oracles_order(self):
        # Each query has two members whose offsets from it swap y and z: one
        # distance in exact arithmetic, but (x^2 + z^2) + y^2 and
        # (x^2 + y^2) + z^2 round apart for about a quarter of the pairs.
        # Coordinates in [1, 2) keep every offset exact, so the anchor follows
        # only the order in which matching sums a distance: einsum's, as in
        # the oracle.
        rng = np.random.default_rng(37)
        eps = 0.08
        queries = rng.uniform(1.05, 1.95, (500, 3))
        first = queries + rng.uniform(-0.02, 0.02, (500, 3))
        second = queries + (first - queries)[:, [0, 2, 1]]
        means = np.stack([first, second], axis=1).reshape(-1, 3)
        d2 = [np.einsum("ij,ij->i", m - queries, m - queries) for m in (first, second)]
        assert np.count_nonzero(d2[0] != d2[1]) > 50
        bank = so.GaussianMemoryBank.from_set(make_set(means), so.FusionConfig(epsilon=eps))
        anchors, _, _ = bank._nearest_within(queries)
        np.testing.assert_array_equal(anchors, linear_nearest_within(means, queries, eps))

    def test_members_at_exactly_half_epsilon(self):
        # The first pass settles only members strictly closer than eps/2. With
        # eps a power of two and coordinates on a 1/64 lattice, members at
        # eps/2 are exactly that far, so every query is left to the second
        # pass. Each query has one or two members at eps/2 along random axes
        # and one just farther off, all in random id order, so ties and the
        # farther member's id fall either way.
        rng = np.random.default_rng(38)
        eps = 0.125
        xy = np.indices((12, 12)).reshape(2, -1).T.astype(float)
        queries = np.column_stack([xy, rng.integers(-64, 64, len(xy)) / 64])
        axes = np.eye(3)[rng.integers(0, 3, (len(queries), 2))]
        signs = rng.choice([-1.0, 1.0], (len(queries), 2, 1))
        at_half = queries[:, None, :] + signs * axes * (eps / 2)
        farther = queries + [eps / 2 + 1 / 64, 0, 0]
        two = rng.random(len(queries)) < 0.5
        means = np.vstack([farther, at_half[:, 0], at_half[two, 1]])
        means = means[rng.permutation(len(means))]
        bank = so.GaussianMemoryBank.from_set(make_set(means), so.FusionConfig(epsilon=eps))
        anchors, _, n_open = bank._nearest_within(queries)
        want = linear_nearest_within(means, queries, eps)
        assert n_open == len(queries) and np.all(want >= 0)
        np.testing.assert_array_equal(anchors, want)
        d2 = np.einsum("ij,ij->i", means[want] - queries, means[want] - queries)
        assert np.all(d2 == (eps / 2) ** 2)

    def test_result_does_not_depend_on_incoming_order(self):
        # Continuous random coordinates leave no member equidistant from a
        # query with another; 3000 incoming span three match chunks.
        rng = np.random.default_rng(23)

        def random_set(n, lo, hi):
            return GaussianSet(
                means=rng.uniform(lo, hi, (n, 3)), scales=rng.uniform(0.01, 0.05, (n, 3)),
                rotations=rng.normal(size=(n, 4)), opacities=rng.uniform(0.1, 0.9, n),
                logits=rng.normal(size=(n, 12)), frame="world",
            )

        memory, incoming = random_set(1500, 0.0, 1.0), random_set(3000, -0.1, 1.1)
        perm = rng.permutation(len(incoming))
        banks = [so.GaussianMemoryBank.from_set(memory, so.FusionConfig(epsilon=0.08))
                 for _ in range(2)]
        stats = banks[0].fuse_frame(incoming)
        assert 0 < stats.matched < len(incoming)
        assert banks[1].fuse_frame(incoming.subset(perm)) == stats
        # Inserted members are appended in incoming order: compare them sorted.
        n = len(memory)
        a, b = (s.subset(np.concatenate([np.arange(n), n + np.lexsort(s.means[n:].T)]))
                for s in (bank.to_set() for bank in banks))
        # Anchors sum their matches in incoming order, so fused values may
        # differ by rounding; covariances stand in for the rotation factors,
        # which are ill-conditioned for near-isotropic covariances.
        for got, want in ((b.means, a.means), (b.scales, a.scales),
                          (b.cov, a.cov),
                          (b.opacities, a.opacities), (b.logits, a.logits)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_index_consistent_after_fusion_moves(self):
        rng = np.random.default_rng(20)
        bank = so.GaussianMemoryBank.from_set(
            make_set(rng.uniform(0, 1.5, (400, 3))), so.FusionConfig(epsilon=0.08)
        )
        bank.fuse_frame(make_set(rng.uniform(0, 1.5, (400, 3))))
        for _ in range(30):
            q = rng.uniform(0, 1.5, 3)
            got = set(bank.radius_neighbors(q).tolist())
            want = set(linear_radius_scan(bank.means, q, 0.08).tolist())
            assert got == want

    def test_frame_and_class_count_errors(self):
        bank = so.GaussianMemoryBank(12)
        with pytest.raises(ValueError, match="world"):
            bank.fuse_frame(GaussianSet.empty(12, frame="camera"))
        with pytest.raises(ValueError, match="class count"):
            bank.fuse_frame(GaussianSet.empty(6, frame="world"))

    def test_class_count_bounded_by_u8_labels(self):
        for nc in (1, 257, 12.0, True):
            with pytest.raises(ValueError, match=r"num_classes must lie in 2\.\.256"):
                so.GaussianMemoryBank(nc)
        assert so.GaussianMemoryBank(256).logits.shape == (0, 256)

    def test_empty_checkpoint_frame_is_checked(self):
        with pytest.raises(ValueError, match="world"):
            so.GaussianMemoryBank.from_set(GaussianSet.empty(4, frame="camera"))
        bank = so.GaussianMemoryBank.from_set(GaussianSet.empty(4, frame="world"))
        assert len(bank) == 0 and bank.logits.shape == (0, 4)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            so.FusionConfig(gamma=0.0)
        with pytest.raises(ValueError):
            so.FusionConfig(gamma=1.0)
        with pytest.raises(ValueError):
            so.FusionConfig(epsilon=0.0)
        for eps in (np.inf, np.nan):
            with pytest.raises(ValueError, match="epsilon"):
                so.FusionConfig(epsilon=eps)
        # True used to count as a radius of 1 m, and "0.4" to raise a TypeError.
        for key, value in (("epsilon", True), ("epsilon", "0.08"), ("gamma", "0.4"),
                           ("gamma", False)):
            with pytest.raises(ValueError, match=key):
                so.FusionConfig(**{key: value})
