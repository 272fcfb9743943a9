"""Frustum masking, confusion accumulation, and IoU / mIoU reduction."""

import dataclasses

import numpy as np
import pytest

import splatocc as so
from splatocc.splatting import GridSpec, OccupancyGrid

from oracles import projection_frustum_mask, tally_confusion


def grid_from_labels(labels, spec):
    labels = np.asarray(labels, dtype=np.uint8)
    return OccupancyGrid(spec=spec, labels=labels, scores=(labels > 0).astype(float))


def spec_small(nc=12):
    return GridSpec((6, 5, 4), 0.25, np.array([-0.75, -0.6, -0.5]), nc)


class TestFrustumMask:
    def test_voxel_behind_camera_excluded(self):
        spec = GridSpec((8, 8, 8), 0.25, np.array([-1.0, -1.0, -1.0]), 4)
        cam = so.standard_camera([0.0, 0.0, 0.0], width=64, height=64, focal=32.0)
        mask = so.frustum_mask(spec, cam, near=0.01, far=10.0)
        centers = spec.voxel_centers().reshape(spec.dims + (3,))
        behind = centers[..., 0] < 0
        assert not np.any(mask & behind)
        assert mask.sum() > 0

    def test_far_below_nearest_voxel_is_empty(self):
        spec = GridSpec((4, 4, 4), 0.2, np.array([5.0, -0.4, -0.4]), 4)
        cam = so.standard_camera([0.0, 0.0, 0.0])
        mask = so.frustum_mask(spec, cam, near=0.01, far=1.0)
        assert mask.sum() == 0

    def test_matches_projection_oracle(self):
        rng = np.random.default_rng(21)
        spec = GridSpec((7, 6, 5), 0.3, np.array([-1.0, -0.9, -0.7]), 4)
        for _ in range(10):
            cam = so.CameraModel(
                fx=float(rng.uniform(30, 120)), fy=float(rng.uniform(30, 120)),
                cx=float(rng.uniform(20, 60)), cy=float(rng.uniform(15, 45)),
                width=80, height=60,
                pose=so.standard_pose(rng.uniform(-1.5, 1.5, 3), float(rng.uniform(0, 360))),
            )
            near = float(rng.uniform(0.01, 0.3))
            far = near + float(rng.uniform(0.5, 4.0))
            np.testing.assert_array_equal(
                so.frustum_mask(spec, cam, near, far),
                projection_frustum_mask(spec, cam, near, far),
            )
        # Centers on a 0.5 m lattice around a camera at the origin, f = c = 4 on
        # an 8 x 8 image, near 1 and far 2.5.
        spec = GridSpec((10, 9, 9), 0.5, np.full(3, -2.25), 4)
        for yaw in (0, 90, 180, 270):
            cam = so.CameraModel(4.0, 4.0, 4.0, 4.0, 8, 8, so.standard_pose(np.zeros(3), yaw))
            mask = so.frustum_mask(spec, cam, 1.0, 2.5)
            np.testing.assert_array_equal(mask, projection_frustum_mask(spec, cam, 1.0, 2.5))
        # At yaw 0 the rotation's entries are 0 or +-1: camera (x, y, z) is
        # world (-y, -z, x), so centers land exactly on every bound.
        cam = so.CameraModel(4.0, 4.0, 4.0, 4.0, 8, 8, so.standard_pose(np.zeros(3), 0.0))
        mask = so.frustum_mask(spec, cam, 1.0, 2.5)
        wx, wy, wz = np.moveaxis(spec.voxel_centers().reshape(spec.dims + (3,)), -1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            u, v = 4 - 4 * wy / wx, 4 - 4 * wz / wx
        dist2 = wx * wx + wy * wy + wz * wz
        bounds = {"u": (u >= 0) & (u < 8), "v": (v >= 0) & (v < 8),
                  "dist": (dist2 >= 1.0) & (dist2 <= 2.5 ** 2), "z": wx > 0}
        np.testing.assert_array_equal(mask, np.logical_and.reduce(list(bounds.values())))
        for key, edge, kept in (("u", u == 0, True), ("u", u == 8, False), ("v", v == 0, True),
                                ("v", v == 8, False), ("dist", dist2 == 1.0, True),
                                ("dist", dist2 == 2.5 ** 2, True), ("z", wx < 0, False)):
            on = edge & np.logical_and.reduce([b for k, b in bounds.items() if k != key])
            assert on.any() and np.all(mask[on] == kept), (key, kept)
        assert np.any(wx == 0) and not np.any(mask[wx == 0])

    def test_invalid_range_rejected(self):
        cam = so.standard_camera([0, 0, 0])
        with pytest.raises(ValueError):
            so.frustum_mask(spec_small(), cam, near=0.0, far=1.0)
        with pytest.raises(ValueError):
            so.frustum_mask(spec_small(), cam, near=2.0, far=1.0)


class TestConfusion:
    def test_identical_grids_have_no_errors(self):
        rng = np.random.default_rng(22)
        spec = spec_small()
        g = grid_from_labels(rng.integers(0, 12, spec.dims), spec)
        counts = so.confusion(g, g)
        assert counts.fp.sum() == 0 and counts.fn.sum() == 0
        assert counts.evaluated == spec.num_voxels

    def test_empty_prediction_counts_misses(self):
        spec = spec_small()
        gt_labels = np.zeros(spec.dims, dtype=np.uint8)
        gt_labels[0, 0, 0] = 3
        gt_labels[1, 2, 3] = 7
        pred = grid_from_labels(np.zeros(spec.dims), spec)
        counts = so.confusion(pred, grid_from_labels(gt_labels, spec))
        assert counts.occupied_fn == 2
        assert counts.fn[3] == 1 and counts.fn[7] == 1

    def test_matches_tally_oracle(self):
        rng = np.random.default_rng(23)
        spec = spec_small()
        for _ in range(10):
            pred = grid_from_labels(rng.integers(0, 12, spec.dims), spec)
            gt = grid_from_labels(rng.integers(0, 12, spec.dims), spec)
            mask = rng.uniform(size=spec.dims) < 0.7
            counts = so.confusion(pred, gt, mask)
            tp, fp, fn, otp, ofp, ofn = tally_confusion(pred.labels, gt.labels, mask, 12)
            np.testing.assert_array_equal(counts.tp, tp)
            np.testing.assert_array_equal(counts.fp, fp)
            np.testing.assert_array_equal(counts.fn, fn)
            assert (counts.occupied_tp, counts.occupied_fp, counts.occupied_fn) == (otp, ofp, ofn)
            assert counts.evaluated == int(mask.sum())

    def test_spec_mismatch_rejected(self):
        a = grid_from_labels(np.zeros((6, 5, 4)), spec_small())
        other = GridSpec((6, 5, 4), 0.25, np.array([0.0, 0.0, 0.0]), 12)
        b = grid_from_labels(np.zeros((6, 5, 4)), other)
        with pytest.raises(ValueError, match="spec"):
            so.confusion(a, b)

    def test_mask_shape_must_match_the_grid(self):
        g = grid_from_labels(np.zeros((6, 5, 4)), spec_small())
        with pytest.raises(ValueError, match="mask shape"):
            so.confusion(g, g, np.ones((6, 5, 3), dtype=bool))

    def test_totals_read_off_the_matrix(self):
        # Ground truth in rows, prediction in columns; classes 0 (empty), 1, 2.
        counts = so.ConfusionCounts(np.array([[5, 1, 4], [3, 7, 4], [0, 9, 8]]))
        assert [f.name for f in dataclasses.fields(counts)] == ["matrix"]
        assert counts.num_classes == 3
        np.testing.assert_array_equal(counts.tp, [0, 7, 8])
        np.testing.assert_array_equal(counts.fp, [0, 10, 8])
        np.testing.assert_array_equal(counts.fn, [0, 7, 9])
        assert (counts.occupied_tp, counts.occupied_fp, counts.occupied_fn) == (28, 5, 3)
        assert counts.evaluated == 41
        doubled = counts + counts
        np.testing.assert_array_equal(doubled.matrix, 2 * counts.matrix)
        assert doubled.evaluated == 82

    def test_merging_different_class_counts_rejected(self):
        a = so.confusion(*[grid_from_labels(np.zeros((6, 5, 4)), spec_small(12))] * 2)
        b = so.confusion(*[grid_from_labels(np.zeros((6, 5, 4)), spec_small(4))] * 2)
        with pytest.raises(ValueError, match="different class counts"):
            a + b

    def test_mask_shrink_leaves_outside_counts_alone(self):
        rng = np.random.default_rng(24)
        spec = spec_small()
        pred = grid_from_labels(rng.integers(0, 12, spec.dims), spec)
        gt = grid_from_labels(rng.integers(0, 12, spec.dims), spec)
        keep = np.ones(spec.dims, dtype=bool)
        removed = np.zeros(spec.dims, dtype=bool)
        removed[2:, :, :] = True
        shrunk = so.confusion(pred, gt, keep & ~removed)
        region_only = so.confusion(pred, gt, removed)
        full = so.confusion(pred, gt, keep)
        merged = shrunk + region_only
        np.testing.assert_array_equal(merged.tp, full.tp)
        assert merged.occupied_fp == full.occupied_fp
        assert merged.evaluated == full.evaluated


class TestIouMiou:
    def _counts(self, pred, gt, spec=None):
        spec = spec or spec_small()
        return so.confusion(grid_from_labels(pred, spec), grid_from_labels(gt, spec))

    def test_perfect_match_scores_one(self):
        rng = np.random.default_rng(25)
        labels = rng.integers(0, 12, spec_small().dims)
        labels[0, 0, 0] = 5  # at least one occupied voxel
        report = so.iou_miou(self._counts(labels, labels))
        assert report.iou == 1.0
        assert report.miou == 1.0
        present = ~np.isnan(report.per_class)
        assert np.all(report.per_class[present] == 1.0)

    def test_half_overlap_formula(self):
        spec = spec_small()
        pred = np.zeros(spec.dims, dtype=np.uint8)
        gt = np.zeros(spec.dims, dtype=np.uint8)
        pred[0, 0, :4] = 4  # two overlap gt, two false positives
        gt[0, 0, 2:4] = 4
        gt[0, 1, 0:2] = 4
        report = so.iou_miou(self._counts(pred, gt, spec))
        assert report.per_class[3] == pytest.approx(2 / 6, abs=1e-12)
        assert report.per_class[3] == pytest.approx(0.3333, abs=1e-4)

    def test_disjoint_prediction_is_zero(self):
        spec = spec_small()
        pred = np.zeros(spec.dims, dtype=np.uint8)
        gt = np.zeros(spec.dims, dtype=np.uint8)
        pred[0, 0, 0] = 2
        gt[3, 3, 3] = 2
        report = so.iou_miou(self._counts(pred, gt, spec))
        assert report.per_class[1] == 0.0

    def test_absent_classes_excluded_from_mean(self):
        spec = spec_small()
        pred = np.zeros(spec.dims, dtype=np.uint8)
        gt = np.zeros(spec.dims, dtype=np.uint8)
        pred[0, 0, :2] = 5
        gt[0, 0, :2] = 5
        gt[1, 1, :3] = 8  # class 8 missed entirely
        report = so.iou_miou(self._counts(pred, gt, spec))
        assert report.per_class[4] == 1.0
        assert report.per_class[7] == 0.0
        assert np.isnan(report.per_class[0])
        assert report.miou == pytest.approx(0.5)

    def test_all_absent_raises_undefined(self):
        spec = spec_small()
        empty = np.zeros(spec.dims, dtype=np.uint8)
        with pytest.raises(so.UndefinedMetricError):
            so.iou_miou(self._counts(empty, empty, spec))

    def test_voxel_order_invariance(self):
        rng = np.random.default_rng(26)
        spec = spec_small()
        pred = rng.integers(0, 12, spec.dims).astype(np.uint8)
        gt = rng.integers(0, 12, spec.dims).astype(np.uint8)
        a = so.iou_miou(self._counts(pred, gt, spec))
        axes = (2, 0, 1)
        permuted_spec = GridSpec(
            tuple(spec.dims[a] for a in axes), spec.voxel_size, spec.origin, 12
        )
        b = so.iou_miou(self._counts(np.transpose(pred, axes), np.transpose(gt, axes), permuted_spec))
        assert a.iou == b.iou and a.miou == pytest.approx(b.miou, abs=1e-15)

    def test_report_lines_format(self):
        spec = spec_small()
        pred = np.zeros(spec.dims, dtype=np.uint8)
        pred[0, 0, 0] = 3
        report = so.iou_miou(self._counts(pred, pred, spec))
        lines = report.lines()
        assert "wall = 1.0000" in lines
        assert lines[-2].startswith("iou = ") and lines[-1].startswith("miou = ")
