"""Gaussian primitives: covariance factorization, kernel values through
splat's inverse, pruning, heuristic attribute provider."""

import numpy as np
import pytest

import splatocc as so
from splatocc import quaternions
from splatocc.gaussians import softmax

from oracles import (
    dense_covariance, dense_evaluate, naive_splat, random_gaussian_set, softmax_rows,
)

ROT_Z_90 = quaternions.from_matrix(
    np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
)


def iso(scale=1.0, opacity=1.0, nc=4):
    return so.GaussianSet([0, 0, 0], [scale] * 3, [1, 0, 0, 0], opacity, np.zeros(nc),
                          frame="world")


def splat_at(g, points):
    """Scores of splatting the one-row set g into one-voxel grids, one centred
    on each point: its kernel values there when its opacity is 1."""
    return np.array([so.splat(g, so.GridSpec((1, 1, 1), 1.0, p - 0.5, g.num_classes)).scores.item()
                     for p in np.asarray(points, dtype=float)])


def sample_row(k, position, spacing):
    """One-row SampleBatch for the attribute provider."""
    return so.SampleBatch(
        pixels=np.zeros((1, 2)), ks=np.array([k]),
        positions=np.atleast_2d(np.asarray(position, dtype=float)), spacings=np.array([spacing]),
    )


class TestCovariance:
    def test_identity_rotation_diagonal(self):
        g = so.GaussianSet([0, 0, 0], [1, 2, 3], [1, 0, 0, 0], 1.0, np.zeros(3))
        np.testing.assert_allclose(g.cov[0], np.diag([1.0, 4.0, 9.0]), atol=1e-12)

    def test_quarter_turn_swaps_axes(self):
        g = so.GaussianSet([0, 0, 0], [1, 2, 1], ROT_Z_90, 1.0, np.zeros(3))
        np.testing.assert_allclose(g.cov[0], np.diag([4.0, 1.0, 1.0]), atol=1e-12)

    def test_eigenvalues_are_squared_scales(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scale = rng.uniform(0.01, 2.0, 3)
            g = so.GaussianSet(
                rng.normal(size=3), scale, rng.normal(size=4), 0.5, np.zeros(5)
            )
            cov = g.cov[0]
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(cov)), np.sort(scale ** 2), atol=1e-9
            )

    def test_positive_definite(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = so.GaussianSet(
                rng.normal(size=3), rng.uniform(1e-4, 1.0, 3), rng.normal(size=4),
                0.5, np.zeros(3),
            )
            np.linalg.cholesky(g.cov[0])

    def test_derived_factors_rebuild_the_covariance(self):
        rng = np.random.default_rng(7)
        # Random rotations, the identity, half turns (w = 0) and turns of
        # pi - 10^-k about random axes, where w is tiny but not zero.
        angles = np.pi - 10.0 ** -np.arange(1, 13)
        axes = np.random.default_rng(70).normal(size=(angles.size, 3))
        near_half = np.column_stack([np.cos(angles / 2), np.sin(angles / 2)[:, None] * axes
                                     / np.linalg.norm(axes, axis=1, keepdims=True)])
        quats = np.vstack([rng.normal(size=(40, 4)), np.eye(4), [[0, 1, 1, 0], [0, 0, 1, -1]],
                           near_half])
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        back = quaternions.from_matrix(quaternions.to_matrix(quats))
        np.testing.assert_allclose(np.abs(np.sum(back * quats, axis=1)), 1.0, atol=1e-12)
        gset = random_gaussian_set(rng, 40, 3)
        scales, rotations = gset.scales, gset.rotations
        assert np.all(np.diff(scales, axis=1) >= 0)
        for i in range(len(gset)):
            np.testing.assert_allclose(dense_covariance(scales[i], rotations[i]),
                                       gset.cov[i], atol=1e-12)


class TestEvaluate:
    """Kernel values as ``splat`` computes them: its quadratic-form
    coefficients come from the six unique precision entries that
    ``inverse_covariances`` returns, with no (n, 3, 3) precision."""

    def test_isotropic_unit_distance(self):
        values = splat_at(iso(), [[1, 0, 0], [-1, 0, 0]])
        assert values[0] == values[1] == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert values[0] == pytest.approx(0.606531, abs=1e-6)

    def test_matches_dense_inverse_oracle(self):
        # Rotated needles (two small scales): an inverse through the
        # determinant cancels here. Points lie 1.5 sigma out and along the
        # long axis. The LU oracle is itself accurate only to about
        # condition number x epsilon (checked against an exact rational
        # inverse), so that is the tolerance.
        rng = np.random.default_rng(3)
        for scale in ((1e-4, 1e-4, 1.0), (1e-3, 1e-3, 1.0), (1e-4, 1e-4, 10.0)):
            cond = (scale[2] / scale[0]) ** 2
            for _ in range(20):
                mean, q = rng.normal(size=3), rng.normal(size=4)
                g = so.GaussianSet(mean, scale, q, 1.0, np.zeros(3), frame="world")
                rot = quaternions.to_matrix(quaternions.normalize(q))
                pts = np.vstack([
                    mean + (rng.normal(size=(10, 3)) * 1.5 * np.asarray(scale)) @ rot.T,
                    mean + np.linspace(-2.0, 2.0, 9)[:, None] * scale[2] * rot[:, 2],
                ])
                np.testing.assert_allclose(
                    splat_at(g, pts), dense_evaluate(mean, g.cov[0], pts),
                    atol=cond * np.finfo(float).eps,
                )

    def test_decreasing_in_mahalanobis_distance(self):
        radii = np.linspace(0.1, 3.0, 15)
        values = splat_at(iso(0.5), radii[:, None] * [1.0, 0.0, 0.0])
        assert np.all(np.diff(values) < 0)


class TestSoftmax:
    # Below, at and above numpy's 8-wide and 16-wide summation blocks, and
    # past 128 classes, where its pairwise sum splits in two.
    @pytest.mark.parametrize("num_classes", [2, 7, 8, 9, 12, 16, 17, 33, 128, 129, 300])
    def test_bit_identical_to_oracle(self, num_classes):
        rng = np.random.default_rng(num_classes)
        logits = rng.normal(0.0, 4.0, (500, num_classes))
        logits[::7] = 0.0                                  # uniform rows
        logits[1::7, 0] = 1000.0                           # saturated rows
        assert np.array_equal(softmax(logits), softmax_rows(logits))

    def test_any_leading_shape(self):
        logits = np.random.default_rng(3).normal(size=(4, 5, 13))
        assert np.array_equal(softmax(logits), softmax_rows(logits))
        assert np.array_equal(softmax(logits[0, 0]), softmax_rows(logits[0, 0]))


class TestPrune:
    def _set(self, opacities, nc=3):
        n = len(opacities)
        return so.GaussianSet(
            means=np.zeros((n, 3)),
            scales=np.full((n, 3), 0.1),
            rotations=np.tile([1.0, 0, 0, 0], (n, 1)),
            opacities=np.asarray(opacities, dtype=float),
            logits=np.zeros((n, nc)),
            frame="world",
        )

    def test_threshold_keeps_at_or_above(self):
        kept = so.prune(self._set([0.005, 0.5, 0.011]), 0.01)
        np.testing.assert_allclose(kept.opacities, [0.5, 0.011])

    def test_zero_tau_is_identity(self):
        gset = self._set([0.0, 0.3, 1.0])
        assert so.prune(gset, 0.0) is gset   # nothing dropped: no copy
        assert so.prune(gset, 0.3).opacities.tolist() == [0.3, 1.0]

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        gset = self._set(rng.uniform(0, 1, 40))
        once = so.prune(gset, 0.07)
        twice = so.prune(once, 0.07)
        np.testing.assert_array_equal(once.opacities, twice.opacities)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            so.prune(self._set([0.5]), 1.5)
        # A bool tau used to prune as 1.0, and a str one to raise a TypeError.
        for tau in (True, "0.5"):
            with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\]"):
                so.prune(self._set([0.5]), tau)

    def test_score_change_bounded_by_pruned_opacity(self):
        rng = np.random.default_rng(5)
        spec = so.GridSpec((8, 8, 8), 0.2, np.zeros(3), 4)
        gset = random_gaussian_set(rng, 60, 4, span=1.6, scale_range=(0.05, 0.25))
        scores_full, _, _ = naive_splat(gset, spec)
        pruned = so.prune(gset, 0.15)
        scores_pruned, _, _ = naive_splat(pruned, spec)
        budget = gset.opacities[gset.opacities < 0.15].sum()
        assert np.abs(scores_full - scores_pruned).max() <= budget + 1e-12


class TestHeuristicAttributes:
    def test_surface_sample_defaults(self):
        g = so.heuristic_attributes_batch(sample_row(1, [0.0, 0.0, 2.0], 0.032), [3])
        np.testing.assert_allclose(g.scales[0], [0.024, 0.024, 0.024], atol=1e-12)
        assert g.opacities[0] == pytest.approx(0.9)
        assert g.logits[0, 3] == 6.0 and g.logits[0].sum() == 6.0

    def test_deep_sample_opacity_decay(self):
        g = so.heuristic_attributes_batch(sample_row(16, np.zeros(3) + 1, 0.032), [1])
        assert g.opacities[0] == pytest.approx(0.9 * np.exp(-2.25), abs=1e-12)
        assert g.opacities[0] == pytest.approx(0.0949, abs=1e-4)

    def test_zero_decay_constant_opacity(self):
        cfg = so.AttributeConfig(opacity_decay=0.0)
        for k in (1, 5, 16):
            g = so.heuristic_attributes_batch(sample_row(k, np.ones(3), 0.05), [2], cfg)
            assert g.opacities[0] == pytest.approx(0.9)

    @pytest.mark.filterwarnings("error")   # the exponent used to overflow with a RuntimeWarning
    def test_huge_decay_gives_its_limit(self):
        cfg = so.AttributeConfig(opacity_decay=1e308)
        batch = so.SampleBatch(pixels=np.zeros((4, 2)), ks=np.arange(1, 5),
                               positions=np.ones((4, 3)), spacings=np.full(4, 0.05))
        g = so.heuristic_attributes_batch(batch, np.full(4, 2), cfg)
        np.testing.assert_array_equal(g.opacities, [0.9, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("key", ["sigma_factor", "opacity_decay"])
    def test_nonfinite_config_rejected(self, key):
        # Each of these would make a set that fails to load or splats to nothing.
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=key):
                so.AttributeConfig(**{key: value})

    def test_class_count_bounded_by_u8_labels(self):
        # 12.0 used to pass here and raise a TypeError in the attribute provider.
        for nc in (1, 257, 12.0, True):
            with pytest.raises(ValueError, match=r"num_classes must lie in 2\.\.256"):
                so.AttributeConfig(num_classes=nc)
        assert so.AttributeConfig(num_classes=256).num_classes == 256
        for key in ("sigma_factor", "opacity_decay"):
            for value in (True, "0.5"):
                with pytest.raises(ValueError, match=key):
                    so.AttributeConfig(**{key: value})

    def test_label_out_of_range_rejected(self):
        s = sample_row(1, np.ones(3), 0.05)
        with pytest.raises(ValueError):
            so.heuristic_attributes_batch(s, [0])
        with pytest.raises(ValueError):
            so.heuristic_attributes_batch(s, [12])

    def test_batch_matches_closed_form(self):
        rng = np.random.default_rng(6)
        depth = so.DepthMap(rng.uniform(1, 3, (4, 4)))
        cam = so.CameraModel(fx=40, fy=40, cx=2, cy=2, width=4, height=4)
        batch = so.volumetric_sample(depth, cam, so.SamplingConfig(k=3, scale=0.3, stride=1))
        labels = rng.integers(1, 12, len(batch))
        gset = so.heuristic_attributes_batch(batch, labels)
        assert len(gset) == len(batch) and gset.frame == "camera"
        for i in (0, 7, len(batch) - 1):
            one_hot = np.zeros(12)
            one_hot[labels[i]] = 6.0
            np.testing.assert_allclose(gset.means[i], batch.positions[i])
            np.testing.assert_allclose(gset.scales[i], np.full(3, 0.75 * batch.spacings[i]))
            assert gset.opacities[i] == pytest.approx(
                0.9 * np.exp(-0.15 * (batch.ks[i] - 1)), abs=1e-12
            )
            np.testing.assert_array_equal(gset.logits[i], one_hot)

    def test_empty_batch_gives_empty_camera_set(self):
        depth = so.DepthMap(np.full((4, 4), np.nan))
        cam = so.CameraModel(fx=40, fy=40, cx=2, cy=2, width=4, height=4)
        batch = so.volumetric_sample(depth, cam, so.SamplingConfig(k=3, scale=0.3, stride=1))
        classes = np.full((4, 4), 3, dtype=np.uint8)
        labels = classes[batch.pixels[:, 1].astype(np.int64), batch.pixels[:, 0].astype(np.int64)]
        gset = so.heuristic_attributes_batch(batch, labels)
        assert len(batch) == 0 and gset.frame == "camera"
        assert (gset.means.shape, gset.cov.shape, gset.opacities.shape, gset.logits.shape) == (
            (0, 3), (0, 3, 3), (0,), (0, 12))
        assert {a.dtype for a in (gset.means, gset.cov, gset.opacities, gset.logits)} == {
            np.dtype(np.float64)}

    def test_non_integer_labels_rejected(self):
        s = sample_row(1, np.ones(3), 0.05)
        with pytest.raises(ValueError, match="integer"):
            so.heuristic_attributes_batch(s, [2.0])


class TestGaussianTypes:
    def test_opacity_bounds_enforced(self):
        with pytest.raises(ValueError):
            so.GaussianSet([0, 0, 0], [1, 1, 1], [1, 0, 0, 0], 1.2, np.zeros(3))
        with pytest.raises(ValueError):
            so.GaussianSet([0, 0, 0], [1, 1, 1], [1, 0, 0, 0], -0.1, np.zeros(3))

    def test_scale_floor_applied(self):
        g = so.GaussianSet([0, 0, 0], [1e-9, 1, 1], [1, 0, 0, 0], 0.5, np.zeros(3))
        assert g.scales[0, 0] == so.SCALE_FLOOR

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            so.GaussianSet([0, 0, 0], [0, 1, 1], [1, 0, 0, 0], 0.5, np.zeros(3))

    def test_rotation_normalized(self):
        g = so.GaussianSet([0, 0, 0], [1, 1, 1], [2, 0, 0, 0], 0.5, np.zeros(3))
        assert np.linalg.norm(g.rotations[0]) == pytest.approx(1.0, abs=1e-12)

    def test_set_is_immutable(self):
        gset = so.GaussianSet([0, 0, 0], [1] * 3, [1, 0, 0, 0], 1.0, np.zeros(4), frame="world")
        with pytest.raises(ValueError):
            gset.means[0, 0] = 5.0

    def test_checked_constructors_copy_their_inputs(self):
        rng = np.random.default_rng(8)
        means, cov = rng.normal(size=(4, 3)), np.tile(np.eye(3), (4, 1, 1))
        opacities, logits = np.full(4, 0.5), np.zeros((4, 3))
        view = means[:2]   # taken before the sets are built
        sets = (so.GaussianSet.from_covariances(means, cov, opacities, logits),
                so.GaussianSet(means, np.ones((4, 3)), np.tile([1.0, 0, 0, 0], (4, 1)),
                               opacities, logits))
        before = [[a.copy() for a in (g.means, g.cov, g.opacities, g.logits)] for g in sets]
        for arr in (means, cov, opacities, logits):
            assert arr.flags.writeable
            arr += 1.0
        view[0, 0] = 5.0
        for gset, old in zip(sets, before):
            for kept, now in zip(old, (gset.means, gset.cov, gset.opacities, gset.logits)):
                np.testing.assert_array_equal(kept, now)

    def test_unknown_frame_rejected(self):
        with pytest.raises(ValueError):
            so.GaussianSet.empty(3, frame="object")

    def test_class_count_bounded_by_u8_labels(self):
        for nc in (1, 257):
            logits = np.zeros((1, nc))
            with pytest.raises(ValueError, match=r"num_classes in 2\.\.256"):
                so.GaussianSet([0, 0, 0], [1, 1, 1], [1, 0, 0, 0], 0.5, logits)
            with pytest.raises(ValueError, match=r"num_classes in 2\.\.256"):
                so.GaussianSet.from_covariances([0, 0, 0], np.eye(3)[None], 0.5, logits)
        gset = so.GaussianSet([0, 0, 0], [1, 1, 1], [1, 0, 0, 0], 0.5, np.zeros(256))
        assert gset.num_classes == 256

    @pytest.mark.parametrize("field, value, words", [
        ("means", np.zeros((2, 2)), r"means must have shape \(n, 3\)"),
        ("opacities", [0.5], r"opacities must be \(n,\)"),
        ("logits", np.zeros((3, 3)), r"logits \(n, num_classes"),
        ("scales", np.ones((2, 2)), r"scales must be \(n, 3\)"),
        ("rotations", np.eye(4)[:1], r"rotations \(n, 4\)"),
    ], ids=["means", "opacities", "logits", "scales", "rotations"])
    def test_shapes_checked(self, field, value, words):
        two = {"means": np.zeros((2, 3)), "scales": np.ones((2, 3)),
               "rotations": np.eye(4)[:2], "opacities": [0.5, 0.5], "logits": np.zeros((2, 3))}
        with pytest.raises(ValueError, match=words):
            so.GaussianSet(**two | {field: value})

    def test_covariance_shape_checked(self):
        with pytest.raises(ValueError, match=r"covariances must have shape \(n, 3, 3\)"):
            so.GaussianSet.from_covariances(np.zeros((2, 3)), np.ones((3, 3, 3)), [0.5, 0.5],
                                            np.zeros((2, 3)))

    def test_nan_logits_rejected(self):
        with pytest.raises(ValueError):
            so.GaussianSet([0, 0, 0], [1, 1, 1], [1, 0, 0, 0], 0.5, [np.nan, 0.0])
