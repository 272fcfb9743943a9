"""Splatting: culling and voxel classification references, superposition
semantics, oracle equivalence."""

import tracemalloc

import numpy as np
import pytest

import splatocc as so
from splatocc import quaternions, splatting
from splatocc.camera import CameraModel, RigidTransform
from splatocc.splatting import SPLAT_CUTOFF

from oracles import (
    classify_voxel,
    dense_evaluate,
    einsum_coefficients,
    naive_splat,
    neighbor_cull,
    random_gaussian_set,
)


def small_spec(nc=4):
    return so.GridSpec((16, 16, 16), 0.1, np.zeros(3), nc)


def single(mean, scale, opacity, logits, nc=4):
    vec = np.zeros(nc)
    for idx, val in logits.items():
        vec[idx] = val
    return so.GaussianSet(
        means=[mean], scales=[[scale] * 3], rotations=[[1, 0, 0, 0]],
        opacities=[opacity], logits=[vec], frame="world",
    )


class TestNeighborCull:
    def test_isotropic_box_span(self):
        spec = so.GridSpec((60, 60, 36), 0.08, np.zeros(3), 4)
        center = spec.origin + (np.array([30, 30, 18]) + 0.5) * spec.voxel_size
        g = so.GaussianSet(center, [0.08] * 3, [1, 0, 0, 0], 0.5, np.zeros(4))
        lo, hi = neighbor_cull(g, spec)
        np.testing.assert_array_equal(hi - lo, [7, 7, 7])
        np.testing.assert_array_equal(lo, [27, 27, 15])

    def test_far_outside_grid_is_empty(self):
        spec = so.GridSpec((60, 60, 36), 0.08, np.zeros(3), 4)
        g = so.GaussianSet([14.8, 0.4, 0.4], [0.1] * 3, [1, 0, 0, 0], 0.5, np.zeros(4))
        lo, hi = neighbor_cull(g, spec)
        assert np.all(hi <= lo)

    def test_box_covers_significant_contributions(self):
        rng = np.random.default_rng(8)
        spec = small_spec()
        centers = spec.voxel_centers()
        for _ in range(30):
            g = so.GaussianSet(
                rng.uniform(-0.2, 1.8, 3), rng.uniform(0.02, 0.3, 3),
                rng.normal(size=4), 1.0, np.zeros(4),
            )
            lo, hi = neighbor_cull(g, spec)
            values = dense_evaluate(g.means[0], g.cov[0], centers)
            hot = centers[values >= np.exp(-4.5)]
            if hot.size == 0:
                continue
            idx = np.floor((hot - spec.origin) / spec.voxel_size).astype(int)
            assert np.all(idx >= lo) and np.all(idx < hi)


class TestClassifyVoxel:
    def test_zero_score_is_empty(self):
        assert classify_voxel(0.0, np.ones(4)) == 0

    def test_one_hot_mass(self):
        masses = np.zeros(8)
        masses[5] = 1.0
        assert classify_voxel(0.9, masses) == 5

    def test_tie_breaks_to_lowest_class(self):
        masses = np.zeros(8)
        masses[3] = masses[7] = 2.5
        assert classify_voxel(0.9, masses) == 3

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            classify_voxel(0.5, np.array([0.0, -1.0, 0.0]))


class TestSplat:
    def test_empty_set_all_empty(self):
        grid = so.splat(so.GaussianSet.empty(4, frame="world"), small_spec())
        assert grid.labels.sum() == 0
        assert grid.scores.sum() == 0.0

    def test_empty_set_keeps_zero_masses(self):
        spec = small_spec()
        grid = so.splat(so.GaussianSet.empty(4, frame="world"), spec, keep_masses=True)
        assert not grid.labels.any() and not grid.scores.any()
        assert grid.masses.shape == spec.dims + (4,) and not grid.masses.any()

    def test_single_gaussian_on_voxel_center(self):
        spec = small_spec()
        center = spec.origin + (np.array([8, 8, 8]) + 0.5) * spec.voxel_size
        grid = so.splat(single(center, 0.05, 0.9, {2: 5.0}), spec)
        assert grid.scores[8, 8, 8] == pytest.approx(0.9, abs=1e-12)
        assert grid.labels[8, 8, 8] == 2

    def test_mass_tie_and_score_threshold(self):
        spec = small_spec()
        center = spec.origin + (np.array([8, 8, 8]) + 0.5) * spec.voxel_size
        tie = so.splat(single(center, 0.05, 0.9, {2: 5.0, 3: 5.0}), spec, keep_masses=True)
        assert tie.masses[8, 8, 8, 2] == tie.masses[8, 8, 8, 3] > 0
        assert tie.labels[8, 8, 8] == 2
        faint = single(center, 0.05, 0.4, {2: 5.0})
        assert so.splat(faint, spec, theta_occ=0.5).labels[8, 8, 8] == 0
        assert so.splat(faint, spec, theta_occ=0.3).labels[8, 8, 8] == 2

    def test_camera_frame_rejected(self):
        gset = so.GaussianSet.empty(4, frame="camera")
        with pytest.raises(ValueError, match="world"):
            so.splat(gset, small_spec())

    # A bool theta_occ used to splat as 1.0, and a str one to raise a TypeError.
    @pytest.mark.parametrize("theta_occ", [np.nan, -0.1, 1.1, True, "0.5"])
    def test_theta_occ_outside_unit_interval_rejected(self, theta_occ):
        gset = single(np.full(3, 0.8), 0.05, 0.9, {2: 5.0})
        with pytest.raises(ValueError, match=r"theta_occ must lie in \[0, 1\]"):
            so.splat(gset, small_spec(), theta_occ=theta_occ)

    def test_theta_occ_bounds_accepted(self):
        gset = single(np.full(3, 0.85), 0.05, 0.9, {2: 5.0})
        assert so.splat(gset, small_spec(), theta_occ=0.0).labels[8, 8, 8] == 2
        assert not so.splat(gset, small_spec(), theta_occ=1.0).labels.any()

    def test_class_count_mismatch_rejected(self):
        gset = so.GaussianSet.empty(6, frame="world")
        with pytest.raises(ValueError, match="class count"):
            so.splat(gset, small_spec(nc=4))

    def test_boxes_whose_pairs_all_miss_give_an_empty_grid(self):
        # A needle along the grid diagonal whose axis passes 0.041 m from
        # every voxel centre: its box holds centres, its 7-sigma ellipsoid
        # (0.7 mm in radius) none, so its chunk keeps no pair.
        spec = small_spec()
        z = np.ones(3) / np.sqrt(3.0)
        x = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        gset = so.GaussianSet(
            means=[[0.8, 0.8, 0.85]], scales=[[1e-4, 1e-4, 0.1]],
            rotations=[quaternions.from_matrix(np.column_stack([x, np.cross(z, x), z]))],
            opacities=[0.9], logits=[[0.0, 5.0, 0.0, 0.0]], frame="world",
        )
        _, spans = splatting._cull_bounds(
            gset.means, SPLAT_CUTOFF * np.sqrt(np.diagonal(gset.cov, axis1=1, axis2=2)), spec)
        assert np.all(spans > 0)
        grid = so.splat(gset, spec, keep_masses=True)
        assert not grid.labels.any() and not grid.scores.any() and not grid.masses.any()
        _, labels, masses = naive_splat(gset, spec)
        assert not labels.any() and masses.max() < 1e-9

    @pytest.mark.filterwarnings("error")   # a far box's float-to-int64 cast used to overflow
    def test_far_means_add_nothing(self):
        rng = np.random.default_rng(12)
        spec = small_spec(nc=5)
        gset = random_gaussian_set(rng, 9, 5)
        far = gset.means.copy()
        far[[0, 1, 2, 3], [0, 1, 2, 0]] = [1e20, 1e300, -1e300, -1e20]
        far_set = so.GaussianSet._of(far, gset.cov, gset.opacities, gset.logits, "world")
        lo, spans = splatting._cull_bounds(
            far, SPLAT_CUTOFF * np.sqrt(np.diagonal(gset.cov, axis1=1, axis2=2)), spec)
        assert np.all((lo >= 0) & (lo <= spec.dims)) and np.all(spans[:4].min(axis=1) <= 0)
        grid = so.splat(far_set, spec, keep_masses=True)
        near = so.splat(gset.subset(np.arange(4, 9)), spec, keep_masses=True)
        np.testing.assert_array_equal(grid.labels, near.labels)
        np.testing.assert_array_equal(grid.scores, near.scores)
        np.testing.assert_array_equal(grid.masses, near.masses)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        spec = small_spec(nc=5)
        for n in (3, 40, 200):
            gset = random_gaussian_set(rng, n, 5)
            grid = so.splat(gset, spec, keep_masses=True)
            scores, labels, masses = naive_splat(gset, spec)
            assert np.abs(grid.scores.ravel() - scores).max() <= 1e-6
            np.testing.assert_array_equal(grid.labels.ravel(), labels)
            assert np.abs(grid.masses.reshape(-1, 5) - masses).max() <= 1e-6

    def test_one_hot_logits_share_columns_and_match_brute_force_oracle(self):
        # One-hot logits as heuristic attributes give them: members favour
        # classes 2 and 4 only, so classes 0, 1, 3 and 5 have one softmax
        # column. splat lifts only classes 2 and 4; the other three semantic
        # classes read the base share, and class 0 its own row.
        rng = np.random.default_rng(21)
        spec = small_spec(nc=6)
        n = 120
        logits = np.zeros((n, 6))
        logits[np.arange(n), rng.choice([2, 4], n)] = 6.0
        gset = so.GaussianSet(
            means=rng.uniform(0.0, 1.6, (n, 3)), scales=rng.uniform(0.02, 0.3, (n, 3)),
            rotations=rng.normal(size=(n, 4)), opacities=rng.uniform(0.0, 1.0, n),
            logits=logits, frame="world",
        )
        grid = so.splat(gset, spec, keep_masses=True)
        scores, labels, masses = naive_splat(gset, spec)
        assert np.abs(grid.scores.ravel() - scores).max() <= 1e-6
        assert np.abs(grid.masses.reshape(-1, 6) - masses).max() <= 1e-6
        np.testing.assert_array_equal(grid.labels.ravel(), labels)
        assert set(np.unique(labels)) == {0, 2, 4}
        for c in (1, 3, 5):
            np.testing.assert_array_equal(grid.masses[..., c], grid.masses[..., 0])
        assert grid.masses[..., 0].max() > 0
        np.testing.assert_array_equal(so.splat(gset, spec).labels, grid.labels)

    def test_voxels_only_unlifted_members_reach_take_class_1(self):
        # Uniform logits give a member the same base share in every class
        # and no lift, and one-hot members lift class 3 alone. Where only
        # the uniform members reach, every semantic class has the same mass,
        # so the tie goes to class 1, which no member lifts.
        rng = np.random.default_rng(25)
        spec = small_spec(nc=6)
        n = 40
        means = np.vstack([rng.uniform(0.2, 0.5, (n // 2, 3)), rng.uniform(1.1, 1.4, (n // 2, 3))])
        logits = np.zeros((n, 6))
        logits[n // 2:, 3] = 6.0
        gset = so.GaussianSet(
            means=means, scales=np.full((n, 3), 0.1), rotations=np.tile([1.0, 0, 0, 0], (n, 1)),
            opacities=rng.uniform(0.5, 1.0, n), logits=logits, frame="world",
        )
        grid = so.splat(gset, spec)
        scores, labels, _ = naive_splat(gset, spec)
        assert np.abs(grid.scores.ravel() - scores).max() <= 1e-6
        np.testing.assert_array_equal(grid.labels.ravel(), labels)
        uniform = so.splat(gset.subset(range(n // 2)), spec).scores > 0
        one_hot = so.splat(gset.subset(range(n // 2, n)), spec).scores > 0
        assert np.count_nonzero(grid.labels[uniform & ~one_hot] == 1) > 50
        assert set(np.unique(grid.labels[uniform & ~one_hot])) == {0, 1}
        assert set(np.unique(grid.labels[one_hot & ~uniform])) == {0, 3}

    def test_columns_differing_in_one_member_are_scattered_apart(self):
        # Classes 1 and 2 share a column except at member 0, whose class-2
        # logit is 1e-3. Member 0 sits alone, so wherever it reaches, class
        # 2 must carry more mass than class 1; everywhere else the two match.
        rng = np.random.default_rng(22)
        spec = small_spec()
        n = 20
        means = np.vstack([[0.35, 0.35, 0.35], rng.uniform(1.0, 1.5, (n - 1, 3))])
        logits = np.zeros((n, 4))
        logits[:, 3] = 6.0
        logits[0, 2] = 1e-3
        gset = so.GaussianSet(
            means=means, scales=np.full((n, 3), 0.04), rotations=np.tile([1.0, 0, 0, 0], (n, 1)),
            opacities=np.full(n, 0.8), logits=logits, frame="world",
        )
        masses = so.splat(gset, spec, keep_masses=True).masses
        reach = so.splat(gset.subset([0]), spec, keep_masses=True).masses[..., 3] > 0
        rest = so.splat(gset.subset(range(1, n)), spec, keep_masses=True).masses[..., 3] > 0
        assert reach.sum() > 50 and not np.any(reach & rest)
        assert np.all(masses[..., 2][reach] > masses[..., 1][reach])
        np.testing.assert_array_equal(masses[..., 2][~reach], masses[..., 1][~reach])

    @pytest.mark.parametrize("chunk", ["under_box", 1000])
    def test_chunks_that_split_shape_groups_agree(self, monkeypatch, chunk):
        # Equal isotropic kernels give few box shapes, each shared by many
        # members. A chunk of 1,000 pairs holds a few boxes and one just
        # under the smallest box holds a single box, so both split every
        # group. One-hot logits over classes 2 and 4 make classes 0, 1, 3
        # and 5 share one softmax column.
        rng = np.random.default_rng(24)
        spec = small_spec(nc=6)
        n = 150
        logits = np.zeros((n, 6))
        logits[np.arange(n), rng.choice([2, 4], n)] = 6.0
        gset = so.GaussianSet(
            means=rng.uniform(0.2, 1.4, (n, 3)), scales=np.full((n, 3), 0.05),
            rotations=np.tile([1.0, 0, 0, 0], (n, 1)), opacities=rng.uniform(0.2, 1.0, n),
            logits=logits, frame="world",
        )
        _, spans = splatting._cull_bounds(gset.means, np.full((n, 3), SPLAT_CUTOFF * 0.05), spec)
        volumes = np.prod(spans, axis=1)
        if chunk == "under_box":
            chunk = int(volumes.min()) - 1
        _, members = np.unique(spans, axis=0, return_counts=True)
        assert members.max() > max(1, chunk // volumes.min())

        whole = so.splat(gset, spec, keep_masses=True)
        monkeypatch.setattr(splatting, "_CHUNK_PAIRS", chunk)
        grid = so.splat(gset, spec, keep_masses=True)
        np.testing.assert_array_equal(grid.labels, whole.labels)
        assert np.abs(grid.scores - whole.scores).max() <= 1e-12
        assert np.abs(grid.masses - whole.masses).max() <= 1e-12
        np.testing.assert_array_equal(so.splat(gset, spec).labels, grid.labels)
        for c in (1, 3, 5):
            np.testing.assert_array_equal(grid.masses[..., c], grid.masses[..., 0])
        assert set(np.unique(grid.labels)) == {0, 2, 4}
        scores, labels, masses = naive_splat(gset, spec)
        assert np.abs(grid.scores.ravel() - scores).max() <= 1e-6
        assert np.abs(grid.masses.reshape(-1, 6) - masses).max() <= 1e-6
        np.testing.assert_array_equal(grid.labels.ravel(), labels)

    def test_every_tag_group_matches_brute_force_oracle(self, monkeypatch):
        # Each member's masses are a base share (its least semantic softmax
        # entry) in every semantic row plus its lift in each row above that.
        # The set holds each kind of member: uniform logits (no row above
        # the base), one-hot rows (one), two equal top logits and dense
        # random logits (several), and a softmax that underflows to a base
        # of exactly 0.
        rng = np.random.default_rng(35)
        spec = small_spec(nc=6)
        kinds = [np.zeros((30, 6)) for _ in range(5)]
        kinds[1][np.arange(30), rng.choice([2, 4], 30)] = 6.0
        kinds[2][:, [3, 5]] = 4.0
        kinds[3] = rng.normal(size=(30, 6)) * 2.0
        kinds[4][:, 1] = 1000.0
        n = 150
        scales = np.repeat(rng.choice([0.06, 0.1], n)[:, None], 3, axis=1)
        gset = so.GaussianSet(
            means=rng.uniform(0.2, 1.4, (n, 3)), scales=scales,
            rotations=np.tile([1.0, 0, 0, 0], (n, 1)), opacities=rng.uniform(0.1, 1.0, n),
            logits=np.vstack(kinds), frame="world",
        )
        whole = so.splat(gset, spec, keep_masses=True)
        scores, labels, masses = naive_splat(gset, spec)
        np.testing.assert_array_equal(whole.labels.ravel(), labels)
        assert set(np.unique(labels)) == set(range(6))
        assert np.abs(whole.scores.ravel() - scores).max() <= 1e-6
        assert np.abs(whole.masses.reshape(-1, 6) - masses).max() <= 1e-6

        # Two kernel sizes give few box shapes, so each kind's members share
        # them; chunks of one pair hold one box each, so every group splits.
        _, spans = splatting._cull_bounds(gset.means, SPLAT_CUTOFF * scales, spec)
        for kind in np.split(spans, 5):
            assert np.unique(kind, axis=0, return_counts=True)[1].max() > 1
        monkeypatch.setattr(splatting, "_CHUNK_PAIRS", 1)
        grid = so.splat(gset, spec, keep_masses=True)
        np.testing.assert_array_equal(grid.labels, whole.labels)
        assert np.abs(grid.scores - whole.scores).max() <= 1e-12
        assert np.abs(grid.masses - whole.masses).max() <= 1e-12

    def test_keep_masses_leaves_labels_and_scores_alone(self):
        # Each member raises one of classes 1..3 above a shared logit, which
        # classes 4 and 5 keep, so no member lifts them; class 0 sits 2 below
        # it. Were class 0 to take part in the base share, every member would
        # lift several rows and move to another chunk, which equal kernels
        # (few box shapes, each shared by many members) show in the scores.
        rng = np.random.default_rng(28)
        spec = small_spec(nc=6)
        n = 120
        logits = np.repeat(rng.normal(size=(n, 1)), 6, axis=1)
        logits[np.arange(n), rng.choice([1, 2, 3], n)] += rng.uniform(1.0, 4.0, n)
        logits[:, 0] -= 2.0
        gset = so.GaussianSet(
            means=rng.uniform(0.2, 1.4, (n, 3)), scales=np.full((n, 3), 0.05),
            rotations=np.tile([1.0, 0, 0, 0], (n, 1)), opacities=rng.uniform(0.2, 1.0, n),
            logits=logits, frame="world",
        )
        kept = so.splat(gset, spec, keep_masses=True)
        plain = so.splat(gset, spec)
        np.testing.assert_array_equal(kept.labels, plain.labels)
        np.testing.assert_array_equal(kept.scores, plain.scores)
        np.testing.assert_array_equal(kept.masses[..., 4], kept.masses[..., 5])
        empty, unlifted = kept.masses[..., 0], kept.masses[..., 4]
        assert np.count_nonzero(empty) > 100 and np.all(unlifted[empty > 0] > empty[empty > 0])
        scores, labels, masses = naive_splat(gset, spec)
        np.testing.assert_array_equal(kept.labels.ravel(), labels)
        assert np.abs(kept.masses.reshape(-1, 6) - masses).max() <= 1e-6

    @pytest.mark.parametrize("boxes_per_chunk", [1, 2])
    def test_chunk_spans_reach_both_grid_ends(self, monkeypatch, boxes_per_chunk):
        # Each chunk bins only over the voxels its boxes reach. Kernels at
        # the eight corner voxels have boxes clipped to 4 voxels per axis,
        # one shape group that holds voxel 0 and the grid's last voxel, so
        # chunks of one or two boxes start and end spans at both grid ends.
        rng = np.random.default_rng(25)
        spec = small_spec()
        corners = np.array([[x, y, z] for x in (0.05, 1.55) for y in (0.05, 1.55)
                            for z in (0.05, 1.55)])
        means = np.vstack([np.repeat(corners, 2, axis=0) + rng.uniform(-0.01, 0.01, (16, 3)),
                           rng.uniform(0.4, 1.2, (6, 3))])
        n = len(means)
        gset = so.GaussianSet(
            means=means, scales=np.full((n, 3), 0.05), rotations=np.tile([1.0, 0, 0, 0], (n, 1)),
            opacities=rng.uniform(0.6, 1.0, n), logits=rng.normal(size=(n, 4)), frame="world",
        )
        _, spans = splatting._cull_bounds(means, np.full((n, 3), SPLAT_CUTOFF * 0.05), spec)
        np.testing.assert_array_equal(spans[:16], 4)

        whole = so.splat(gset, spec, keep_masses=True)
        monkeypatch.setattr(splatting, "_CHUNK_PAIRS", boxes_per_chunk * 4**3)
        grid = so.splat(gset, spec, keep_masses=True)
        np.testing.assert_array_equal(grid.labels, whole.labels)
        assert grid.labels.ravel()[[0, -1]].all()
        assert np.abs(grid.scores - whole.scores).max() <= 1e-12
        assert np.abs(grid.masses - whole.masses).max() <= 1e-12
        np.testing.assert_array_equal(grid.labels.ravel(), naive_splat(gset, spec)[1])

    def test_large_rotated_boxes_match_brute_force_oracle(self):
        # Squared Mahalanobis distances come from c0 + b.o + o'Mo over
        # integer offsets o from the box corner. With a 16:1 anisotropy and
        # boxes >= 42 voxels per axis, c0 and o'Mo reach ~4e4 at the far
        # corner while the kept m2 is <= 49: the worst cancellation this
        # kernel meets. Measured: scores within 3.7e-11 of brute force
        # (the 7-sigma tail), masses within 1.4e-11, labels identical.
        rng = np.random.default_rng(13)
        spec = so.GridSpec((48, 48, 48), 0.05, np.zeros(3), 5)
        n = 24
        gset = so.GaussianSet(
            means=rng.uniform(1.1, 1.3, (n, 3)),
            scales=np.column_stack([rng.uniform(0.15, 0.17, n), rng.uniform(0.02, 0.04, n),
                                    rng.uniform(0.01, 0.02, n)]),
            rotations=rng.normal(size=(n, 4)), opacities=rng.uniform(0.2, 0.9, n),
            logits=rng.normal(size=(n, 5)), frame="world",
        )
        for i in range(n):
            lo, hi = neighbor_cull(gset.subset([i]), spec, mahalanobis=SPLAT_CUTOFF)
            assert np.all(hi - lo >= 40)
        grid = so.splat(gset, spec, keep_masses=True)
        scores, labels, masses = naive_splat(gset, spec)
        assert np.abs(grid.scores.ravel() - scores).max() <= 1e-9
        assert np.abs(grid.masses.reshape(-1, 5) - masses).max() <= 1e-9
        np.testing.assert_array_equal(grid.labels.ravel(), labels)
        assert (labels > 0).sum() > 20

    def test_rotated_needles_match_brute_force_oracle(self):
        # Needle kernels (two scales of 1e-4 or 1e-3 m, one of 1 or 10 m),
        # half of them along the grid diagonal so their axes run through
        # voxel centers. Measured: scores within 1e-8 of brute force.
        rng = np.random.default_rng(17)
        spec = small_spec(nc=5)
        n = 12
        z = np.ones(3) / np.sqrt(3.0)
        x = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        diagonal = quaternions.from_matrix(np.column_stack([x, np.cross(z, x), z]))
        scales = np.repeat([[1e-4, 1e-4, 1.0], [1e-3, 1e-3, 1.0], [1e-4, 1e-4, 10.0]], 4, axis=0)
        gset = so.GaussianSet(
            means=(rng.integers(3, 13, (n, 3)) + 0.5) * spec.voxel_size, scales=scales,
            rotations=np.vstack([np.tile(diagonal, (n // 2, 1)), rng.normal(size=(n // 2, 4))]),
            opacities=rng.uniform(0.2, 0.9, n), logits=rng.normal(size=(n, 5)), frame="world",
        )
        grid = so.splat(gset, spec, keep_masses=True)
        scores, labels, masses = naive_splat(gset, spec)
        assert np.abs(grid.scores.ravel() - scores).max() <= 1e-6
        assert np.abs(grid.masses.reshape(-1, 5) - masses).max() <= 1e-6
        np.testing.assert_array_equal(grid.labels.ravel(), labels)
        assert (labels > 0).sum() > 10

    def test_opaque_kernels_on_voxel_centers_stay_finite(self):
        # A kernel of opacity 1 whose mean is a voxel center contributes
        # 1 there; rounding in m2 must not lift it above 1, where
        # log1p(-contribution) is NaN.
        rng = np.random.default_rng(14)
        spec = so.GridSpec((40, 40, 40), 0.05, np.zeros(3), 4)
        n = 20
        idx = rng.integers(10, 30, (n, 3))
        gset = so.GaussianSet(
            means=spec.origin + (idx + 0.5) * spec.voxel_size,
            scales=rng.uniform(0.01, 0.2, (n, 3)), rotations=rng.normal(size=(n, 4)),
            opacities=np.ones(n), logits=rng.normal(size=(n, 4)), frame="world",
        )
        grid = so.splat(gset, spec)
        assert np.all(np.isfinite(grid.scores))
        assert np.abs(grid.scores[tuple(idx.T)] - 1.0).max() <= 1e-12
        scores, labels, _ = naive_splat(gset, spec)
        assert np.abs(grid.scores.ravel() - scores).max() <= 1e-9
        np.testing.assert_array_equal(grid.labels.ravel(), labels)

    def test_adding_gaussian_never_decreases_scores(self):
        rng = np.random.default_rng(10)
        spec = small_spec()
        gset = random_gaussian_set(rng, 30, 4)
        extra = random_gaussian_set(rng, 31, 4)
        base = so.splat(gset, spec)
        grown = so.splat(extra.subset(range(31)), spec)
        sub = so.splat(extra.subset(range(30)), spec)
        assert np.all(grown.scores - sub.scores >= -1e-12)
        assert np.all(base.scores >= 0.0) and np.all(base.scores <= 1.0)

    def test_scores_bounded_with_heavy_overlap(self):
        n = 500
        gset = so.GaussianSet(
            means=np.full((n, 3), 0.8), scales=np.full((n, 3), 0.2),
            rotations=np.tile([1.0, 0, 0, 0], (n, 1)), opacities=np.full(n, 1.0),
            logits=np.zeros((n, 4)), frame="world",
        )
        grid = so.splat(gset, small_spec())
        assert np.all(grid.scores <= 1.0) and np.all(grid.scores >= 0.0)

    def test_permutation_stability(self):
        rng = np.random.default_rng(11)
        spec = small_spec()
        gset = random_gaussian_set(rng, 120, 4)
        perm = rng.permutation(120)
        a = so.splat(gset, spec)
        b = so.splat(gset.subset(perm), spec)
        assert np.abs(a.scores - b.scores).max() <= 1e-9
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rigid_consistency_quarter_turn(self):
        # Rotate the set and the grid together by 90 degrees about z plus a
        # voxel-multiple translation; per-voxel scores must be preserved.
        rng = np.random.default_rng(12)
        spec = so.GridSpec((10, 14, 8), 0.1, np.array([0.2, -0.3, 0.1]), 4)
        gset = random_gaussian_set(rng, 60, 4, span=1.2)
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        shift = np.array([0.5, -0.2, 0.3])
        pose = RigidTransform(rot, shift)
        cam = CameraModel(fx=1, fy=1, cx=0, cy=0, width=1, height=1, pose=pose)
        moved = so.to_world(cam, so.GaussianSet(
            gset.means, gset.scales, gset.rotations, gset.opacities, gset.logits,
            frame="camera",
        ))

        corners = spec.origin + np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1],
             [0, 1, 1], [1, 1, 1]]
        ) * spec.extent
        moved_corners = pose.apply(corners)
        new_origin = moved_corners.min(axis=0)
        new_spec = so.GridSpec((14, 10, 8), 0.1, new_origin, 4)

        base = so.splat(gset.subset(slice(None)), spec)
        turned = so.splat(moved, new_spec)

        centers = spec.voxel_centers()
        mapped = pose.apply(centers)
        idx = np.floor((mapped - new_spec.origin) / new_spec.voxel_size).astype(int)
        flat = idx[:, 0] * (new_spec.dims[1] * new_spec.dims[2]) + idx[:, 1] * new_spec.dims[2] + idx[:, 2]
        assert np.abs(base.scores.ravel() - turned.scores.ravel()[flat]).max() <= 1e-6

    def test_scene_scale_grid_from_extent(self):
        spec = so.GridSpec.for_extent([-0.5, 0.0, 0.0], [3.7, 4.0, 2.9], voxel_size=0.08)
        assert spec.dims == (53, 50, 37)
        np.testing.assert_allclose(spec.origin, [-0.5, 0.0, 0.0])

    def test_occupancy_grid_checks_shapes_and_labels(self):
        spec = so.GridSpec((2, 3, 4), 0.1, np.zeros(3), 4)
        ones = np.ones(spec.dims)
        for labels, scores in ((np.ones((4, 3, 2)), ones), (ones, np.ones((2, 3)))):
            with pytest.raises(ValueError, match="must match spec.dims"):
                so.OccupancyGrid(spec=spec, labels=labels, scores=scores)
        for bad in (4, -1):
            labels = np.zeros(spec.dims, dtype=int)
            labels[1, 2, 3] = bad
            with pytest.raises(ValueError, match=r"labels must lie in \[0, num_classes\)"):
                so.OccupancyGrid(spec=spec, labels=labels, scores=ones)
        # A float label used to be truncated (2.5 stored as 2) and NaN stored as 0.
        for labels in (np.full(spec.dims, 2.5), np.full(spec.dims, np.nan), np.ones(spec.dims),
                       np.ones(spec.dims, dtype=bool)):
            with pytest.raises(ValueError, match="labels must have an integer dtype"):
                so.OccupancyGrid(spec=spec, labels=labels, scores=ones)
        spec = so.GridSpec((2, 3, 4), 0.1, np.zeros(3), 256)   # the most classes u8 labels hold
        grid = so.OccupancyGrid(spec=spec, labels=np.full(spec.dims, 255), scores=ones)
        assert grid.labels.dtype == np.uint8 and np.all(grid.labels == 255)

    @pytest.mark.filterwarnings("error")   # for_extent's counts used to warn as they were cast
    def test_invalid_grid_spec_rejected(self):
        # A bool voxel size used to make a 1 m grid.
        for voxel_size in (0.0, -0.08, np.inf, np.nan, True, "0.08", None):
            with pytest.raises(ValueError, match="voxel_size"):
                so.GridSpec((4, 4, 4), voxel_size, np.zeros(3))
        # Float and bool counts used to be truncated: (4.5, 4, 4) became (4, 4, 4).
        for dims in ((4, 0, 4), (4.5, 4, 4), (4.0, 4, 4), (True, 4, 4), (4, 4), (4, 4, 4, 4),
                     (4, np.float64(4), 4)):
            with pytest.raises(ValueError, match="dims"):
                so.GridSpec(dims, 0.08, np.zeros(3))
        spec = so.GridSpec(np.array([4, 5, 6]), np.float32(0.25), np.zeros(3), np.int64(5))
        assert spec.dims == (4, 5, 6) and all(type(d) is int for d in spec.dims)
        with pytest.raises(ValueError, match="origin"):
            so.GridSpec((4, 4, 4), 0.08, [0.0, np.inf, 0.0])
        # Labels are stored as u8: a 300-class grid used to store label 299 as 43.
        # A float class count used to pass here and raise a TypeError in splat.
        for nc in (1, 257, 300, 12.0, True, np.float64(5)):
            with pytest.raises(ValueError, match=r"num_classes must lie in 2\.\.256"):
                so.GridSpec((4, 4, 4), 0.08, np.zeros(3), nc)
        lo = np.array([-0.5, 0.0, 0.0])
        for hi in (lo, lo + [1.0, 0.0, 1.0], lo + [1.0, 1.0, -1.0], lo + [np.nan, 1.0, 1.0]):
            with pytest.raises(ValueError, match="max_corner must exceed min_corner"):
                so.GridSpec.for_extent(lo, hi)
        # A count past int64 used to cast to INT64_MIN and clamp to 1: the
        # first two made dims (1, 13, 13) and the third (1, 1, 1).
        for lo, hi, voxel_size in (((0, 0, 0), (1e300, 1, 1), 0.08),
                                   ((0, 0, 0), (np.inf, 1, 1), 0.08),
                                   ((0, 0, 0), (1, 1, 1), 1e-300),
                                   ((-1e308, 0, 0), (1e308, 1, 1), 0.08)):
            with pytest.raises(ValueError, match="voxel counts .* must be finite and fit in int64"):
                so.GridSpec.for_extent(lo, hi, voxel_size)
        for voxel_size in (0.0, np.nan, -0.08, True, "0.08"):
            with pytest.raises(ValueError, match="voxel_size must be a finite real number > 0"):
                so.GridSpec.for_extent((0, 0, 0), (1, 1, 1), voxel_size)
        assert so.GridSpec.for_extent((0, 0, 0), (1, 1, 1), 1e-6).dims == (10**6,) * 3

    def test_monocular_default_geometry(self):
        spec = so.frontal_grid(so.standard_camera([0.0, 0.0, 0.0]))
        assert spec.dims == (60, 60, 36)
        assert spec.voxel_size == 0.08
        np.testing.assert_allclose(spec.extent, [4.8, 4.8, 2.88])
        assert spec.num_classes == 12


class TestSetUp:
    """splat's per-Gaussian set-up, which runs in blocks of ``_SETUP_ROWS`` members."""

    def test_coefficients_match_the_einsum_oracle_bit_for_bit(self):
        # Random anisotropic kernels, and needles at TestEvaluate's scales
        # (two of 1e-4 or 1e-3 m, one of 1 or 10 m), from their culled box
        # corners and from random ones.
        rng = np.random.default_rng(41)
        spec = so.GridSpec((40, 40, 40), 0.05, np.array([-0.3, 0.1, -0.2]), 4)
        n = 3000
        needle_scales = np.repeat([[1e-4, 1e-4, 1.0], [1e-3, 1e-3, 1.0], [1e-4, 1e-4, 10.0]],
                                  n // 3, axis=0)
        for scales in (rng.uniform(1e-3, 0.5, (n, 3)), needle_scales):
            gset = so.GaussianSet(rng.uniform(-0.5, 2.5, (n, 3)), scales, rng.normal(size=(n, 4)),
                                  np.ones(n), np.zeros((n, 4)), frame="world")
            culled, _ = splatting._cull_bounds(
                gset.means, SPLAT_CUTOFF * np.sqrt(np.diagonal(gset.cov, axis1=1, axis2=2)), spec)
            for lo in (culled, rng.integers(0, 41, (n, 3))):
                coef = np.empty((n, 10))
                splatting._coefficients(gset.means, gset.cov, lo, spec, coef)
                oracle = einsum_coefficients(gset.means, gset.cov, lo, spec)
                np.testing.assert_array_equal(coef.view(np.uint64), oracle.view(np.uint64))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_outputs_do_not_depend_on_the_block_size(self, monkeypatch, rows):
        # 1,000 members, a multiple of neither block size: one-hot members,
        # members with two equal top logits or random logits (several
        # active rows) and uniform ones, with classes 1 and 3 sharing one
        # softmax column, and some boxes clear of the grid.
        rng = np.random.default_rng(43)
        spec = small_spec(nc=6)
        n = 1000
        logits = np.zeros((n, 6))
        logits[:400][np.arange(400), rng.choice([2, 4, 5], 400)] = 6.0
        logits[400:600, [2, 4]] = 4.0
        logits[600:800] = rng.normal(size=(200, 6)) * 2.0
        logits[:, 3] = logits[:, 1]
        means = rng.uniform(-0.4, 2.0, (n, 3))
        means[::40, 0] += 3.0
        gset = so.GaussianSet(means=means, scales=rng.uniform(0.02, 0.1, (n, 3)),
                              rotations=rng.normal(size=(n, 4)), opacities=rng.uniform(0.1, 1.0, n),
                              logits=logits, frame="world")
        _, spans = splatting._cull_bounds(
            means, SPLAT_CUTOFF * np.sqrt(np.diagonal(gset.cov, axis1=1, axis2=2)), spec)
        assert 25 <= np.count_nonzero(spans.min(axis=1) <= 0) < n // 2

        whole = so.splat(gset, spec, keep_masses=True)
        np.testing.assert_array_equal(whole.masses[..., 1], whole.masses[..., 3])
        assert set(np.unique(whole.labels)) == {0, 1, 2, 4, 5}
        monkeypatch.setattr(splatting, "_SETUP_ROWS", rows)
        kept = so.splat(gset, spec, keep_masses=True)
        np.testing.assert_array_equal(kept.masses.view(np.uint64), whole.masses.view(np.uint64))
        for grid in (kept, so.splat(gset, spec)):
            np.testing.assert_array_equal(grid.labels, whole.labels)
            np.testing.assert_array_equal(grid.scores.view(np.uint64), whole.scores.view(np.uint64))

    def test_peak_memory_is_bounded(self):
        # tracemalloc's peak reproduces to a few kB. Measured with numpy
        # 2.4.6: 12.01 MB above entry. A set-up that holds a (classes, n)
        # class-major softmax peaks at 13.67 MB, and one that also holds an
        # (n, 3, 3) precision, a copy of that softmax and a (classes, n)
        # bool at 15.33 MB; the bound leaves 0.8 MB of margin.
        rng = np.random.default_rng(47)
        n, nc = 50_000, 12
        logits = np.zeros((n, nc))
        logits[np.arange(n), rng.integers(1, nc, n)] = 6.0
        gset = so.GaussianSet(means=rng.uniform(0.0, 2.4, (n, 3)),
                              scales=rng.uniform(0.01, 0.04, (n, 3)),
                              rotations=rng.normal(size=(n, 4)),
                              opacities=rng.uniform(0.1, 1.0, n), logits=logits, frame="world")
        spec = so.GridSpec((30, 30, 30), 0.08, np.zeros(3), nc)
        tracemalloc.start()
        try:
            grid = so.splat(gset, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.labels.any()
        assert peak <= 12.8e6, peak
