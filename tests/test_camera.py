"""Pinhole geometry: analytic ray cases, projection round trips, rigid moves."""

import numpy as np
import pytest

import splatocc as so
from splatocc import quaternions

from oracles import dense_evaluate, random_rigid

SQ2 = np.sqrt(2.0)


def unit_cam(**kwargs):
    defaults = dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
    defaults.update(kwargs)
    return so.CameraModel(**defaults)


class TestRayDirection:
    def test_principal_point_ray(self):
        np.testing.assert_allclose(so.ray_direction(unit_cam(), (0, 0)), [0, 0, 1])

    def test_unit_offset_ray(self):
        ray = so.ray_direction(unit_cam(), (1, 0))
        np.testing.assert_allclose(ray, [1 / SQ2, 0, 1 / SQ2], atol=1e-9)
        assert abs(ray[0] - 0.70711) < 1e-5

    def test_vertical_offset_with_intrinsics(self):
        cam = unit_cam(fx=100, fy=100, cx=50, cy=50, width=200, height=200)
        ray = so.ray_direction(cam, (50, 150))
        np.testing.assert_allclose(ray, [0, 1 / SQ2, 1 / SQ2], atol=1e-12)

    def test_unit_norm_and_forward(self):
        rng = np.random.default_rng(7)
        cam = unit_cam(fx=320, fy=290, cx=161.5, cy=120.2, width=320, height=240)
        px = np.stack(
            [rng.uniform(-50, 400, 2000), rng.uniform(-50, 300, 2000)], axis=-1
        )
        rays = so.ray_direction(cam, px)
        np.testing.assert_allclose(np.linalg.norm(rays, axis=-1), 1.0, atol=1e-9)
        assert np.all(rays[:, 2] > 0)

    def test_nonfinite_pixel_rejected(self):
        with pytest.raises(ValueError):
            so.ray_direction(unit_cam(), (np.nan, 0.0))
        with pytest.raises(ValueError):
            so.ray_direction(unit_cam(), (0.0, np.inf))


class TestBackproject:
    def test_principal_ray_distance(self):
        cam = unit_cam(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
        np.testing.assert_allclose(so.backproject(cam, (50, 50), 2.0), [0, 0, 2])

    def test_diagonal_pixel(self):
        np.testing.assert_allclose(so.backproject(unit_cam(), (1, 0), SQ2), [1, 0, 1], atol=1e-12)

    def test_norm_matches_distance(self):
        rng = np.random.default_rng(3)
        cam = unit_cam(fx=80, fy=90, cx=40, cy=30, width=80, height=60)
        for _ in range(50):
            px = rng.uniform(0, 80, 2)
            d = rng.uniform(0.1, 10)
            assert abs(np.linalg.norm(so.backproject(cam, px, d)) - d) < 1e-9

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            so.backproject(unit_cam(), (0, 0), 0.0)
        with pytest.raises(ValueError):
            so.backproject(unit_cam(), (0, 0), -1.0)


class TestProject:
    def test_principal_point(self):
        cam = unit_cam(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
        u, v, d = so.project(cam, (0, 0, 2))
        assert (u, v, d) == (50.0, 50.0, 2.0)

    def test_diagonal_point(self):
        u, v, d = so.project(unit_cam(), (1, 0, 1))
        np.testing.assert_allclose([u, v, d], [1, 0, SQ2], atol=1e-12)

    def test_behind_camera_rejected(self):
        with pytest.raises(ValueError):
            so.project(unit_cam(), (0, 0, -1))
        with pytest.raises(ValueError):
            so.project(unit_cam(), (1, 1, 0))

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        cam = unit_cam(fx=250, fy=230, cx=120.3, cy=95.7, width=256, height=192)
        px = np.stack([rng.uniform(0, 256, 3000), rng.uniform(0, 192, 3000)], axis=-1)
        d = rng.uniform(0.05, 20.0, 3000)
        u, v, d_back = so.project(cam, so.backproject(cam, px, d))
        np.testing.assert_allclose(u, px[:, 0], atol=1e-6)
        np.testing.assert_allclose(v, px[:, 1], atol=1e-6)
        np.testing.assert_allclose(d_back / d, 1.0, atol=1e-9)


class TestZDepthConversion:
    def test_principal_pixel_identity(self):
        cam = unit_cam(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
        assert so.z_depth_to_ray_distance(cam, (50, 50), 3.0) == pytest.approx(3.0, abs=1e-12)

    def test_diagonal_pixel(self):
        assert so.z_depth_to_ray_distance(unit_cam(), (1, 0), 1.0) == pytest.approx(SQ2, abs=1e-12)

    def test_backprojection_lands_at_z(self):
        rng = np.random.default_rng(5)
        cam = unit_cam(fx=120, fy=140, cx=64, cy=48, width=128, height=96)
        for _ in range(200):
            px = rng.uniform(0, 128, 2)
            z = rng.uniform(0.1, 15)
            d = so.z_depth_to_ray_distance(cam, px, z)
            assert abs(so.backproject(cam, px, d)[2] - z) < 1e-9

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            so.z_depth_to_ray_distance(unit_cam(), (0, 0), -2.0)


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            so.RigidTransform(np.eye(3) * 1.1, np.zeros(3))

    def test_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            so.RigidTransform(m, np.zeros(3))

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = random_rigid(rng)
            pts = rng.normal(size=(10, 3))
            np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-12)


class TestToWorld:
    def _gaussian(self, rng):
        return so.GaussianSet(
            means=rng.normal(size=3),
            scales=rng.uniform(0.05, 0.8, 3),
            rotations=quaternions.normalize(rng.normal(size=4)),
            opacities=float(rng.uniform(0, 1)),
            logits=rng.normal(size=12),
        )

    def test_identity_pose_is_noop(self):
        rng = np.random.default_rng(13)
        g = self._gaussian(rng)
        cam = unit_cam()
        out = so.to_world(cam, g)
        np.testing.assert_allclose(out.means[0], g.means[0])
        np.testing.assert_allclose(out.cov[0], g.cov[0], atol=1e-12)

    def test_world_frame_set_rejected(self):
        # Its pose is already applied; mapping it again would move it.
        g = so.GaussianSet([0, 0, 0], [0.1, 0.1, 0.1], [1, 0, 0, 0], 0.5, np.zeros(4),
                           frame="world")
        cam = unit_cam(pose=so.RigidTransform(np.eye(3), np.array([1.0, 2.0, 1.0])))
        with pytest.raises(ValueError, match="camera-frame"):
            so.to_world(cam, g)

    def test_pure_translation(self):
        g = so.GaussianSet([0, 0, 0], [0.1, 0.2, 0.3], [1, 0, 0, 0], 0.5, np.zeros(4))
        cam = unit_cam(pose=so.RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0])))
        out = so.to_world(cam, g)
        np.testing.assert_allclose(out.means[0], [1, 2, 3])
        np.testing.assert_allclose(out.cov[0], g.cov[0], atol=1e-12)

    def test_covariance_eigenvalues_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            g = self._gaussian(rng)
            cam = unit_cam(pose=random_rigid(rng))
            out = so.to_world(cam, g)
            before = np.sort(np.linalg.eigvalsh(g.cov[0]))
            after = np.sort(np.linalg.eigvalsh(out.cov[0]))
            np.testing.assert_allclose(after, before, atol=1e-9)
            assert out.opacities[0] == g.opacities[0]
            np.testing.assert_array_equal(out.logits[0], g.logits[0])

    def test_covariance_conjugation(self):
        rng = np.random.default_rng(19)
        g = self._gaussian(rng)
        pose = random_rigid(rng)
        out = so.to_world(unit_cam(pose=pose), g)
        expected = pose.rotation @ g.cov[0] @ pose.rotation.T
        np.testing.assert_allclose(out.cov[0], expected, atol=1e-10)

    def test_set_transform_matches_per_primitive(self):
        rng = np.random.default_rng(23)
        parts = [self._gaussian(rng) for _ in range(5)]
        fields = ("means", "scales", "rotations", "opacities", "logits")
        gset = so.GaussianSet(
            *(np.concatenate([getattr(g, f) for g in parts]) for f in fields), frame="camera"
        )
        cam = unit_cam(pose=random_rigid(rng))
        moved = so.to_world(cam, gset)
        assert moved.frame == "world"
        for i in range(len(gset)):
            single = so.to_world(cam, gset.subset([i]))
            np.testing.assert_allclose(moved.means[i], single.means[0], atol=1e-12)
            np.testing.assert_allclose(
                moved.cov[i], single.cov[0], atol=1e-10
            )

    def test_evaluate_invariant_under_rigid_motion(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            g = self._gaussian(rng)
            pose = random_rigid(rng)
            p = rng.normal(size=3)
            moved = so.to_world(unit_cam(pose=pose), g)
            before = dense_evaluate(g.means[0], g.cov[0], p)[0]
            after = dense_evaluate(moved.means[0], moved.cov[0], pose.apply(p))[0]
            assert abs(before - after) <= 1e-9
