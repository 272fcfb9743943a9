"""Ray-based volumetric sampling: offsets, sample geometry, invalid handling."""

import numpy as np
import pytest

import splatocc as so


def principal_cam(w=1, h=1):
    return so.CameraModel(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=w, height=h)


class TestSampleOffsets:
    def test_linspace_values(self):
        offs = so.sample_offsets(so.SamplingConfig(k=4, scale=1.2))
        np.testing.assert_allclose(offs, [0.0, 0.4, 0.8, 1.2], atol=1e-12)

    def test_single_sample(self):
        np.testing.assert_array_equal(so.sample_offsets(so.SamplingConfig(k=1, scale=0.5)), [0.0])

    def test_default_spacing(self):
        offs = so.sample_offsets(so.SamplingConfig(k=16, scale=0.48))
        assert offs[0] == 0.0
        assert offs[-1] == pytest.approx(0.48, abs=1e-15)
        np.testing.assert_allclose(np.diff(offs), 0.032, atol=1e-12)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = so.SamplingConfig(k=int(rng.integers(2, 40)), scale=float(rng.uniform(0.01, 3)))
            offs = so.sample_offsets(cfg)
            assert np.all(np.diff(offs) > 0)
            assert offs[0] == 0.0 and offs[-1] == pytest.approx(cfg.scale, rel=1e-12)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            so.SamplingConfig(k=0)
        with pytest.raises(ValueError):
            so.SamplingConfig(scale=0.0)
        with pytest.raises(ValueError):
            so.SamplingConfig(stride=0)
        for scale in (np.inf, np.nan):
            with pytest.raises(ValueError, match="scale"):
                so.SamplingConfig(scale=scale)
        # k=2.5 used to pass here and raise a TypeError in sampling; a bool
        # stride used to count as 1.
        for key, value in (("k", 2.5), ("k", 16.0), ("k", True), ("stride", True),
                           ("stride", 4.0), ("scale", True), ("scale", "0.48")):
            with pytest.raises(ValueError, match=key):
                so.SamplingConfig(**{key: value})
        cfg = so.SamplingConfig(k=np.int64(4), scale=np.float32(0.5), stride=np.int32(2))
        assert cfg.spacing == pytest.approx(0.5 / 3)


class TestVolumetricSample:
    def test_single_pixel_two_samples(self):
        depth = so.DepthMap(np.full((1, 1), 2.0))
        batch = so.volumetric_sample(depth, principal_cam(), so.SamplingConfig(k=2, scale=1.0, stride=1))
        assert len(batch) == 2
        np.testing.assert_allclose(batch.positions, [[0, 0, 2], [0, 0, 3]], atol=1e-12)
        assert list(batch.ks) == [1, 2]

    def test_all_invalid_yields_empty(self):
        values = np.array([[np.nan, -1.0], [0.0, np.inf]])
        batch = so.volumetric_sample(
            so.DepthMap(values), principal_cam(2, 2), so.SamplingConfig(k=4, scale=0.5, stride=1)
        )
        assert len(batch) == 0
        assert batch.num_invalid == 4
        for array, shape, dtype in ((batch.pixels, (0, 2), np.float64),
                                    (batch.ks, (0,), np.int64),
                                    (batch.positions, (0, 3), np.float64),
                                    (batch.spacings, (0,), np.float64)):
            assert array.shape == shape and array.dtype == dtype

    def test_stride_and_count(self):
        depth = so.DepthMap(np.full((8, 8), 3.0))
        cam = so.CameraModel(fx=100, fy=100, cx=4, cy=4, width=8, height=8)
        cfg = so.SamplingConfig(k=16, scale=0.48, stride=4)
        batch = so.volumetric_sample(depth, cam, cfg)
        assert len(batch) == 4 * 16

    def test_samples_collinear_with_ray(self):
        depth = so.DepthMap(np.full((8, 8), 3.0))
        cam = so.CameraModel(fx=100, fy=100, cx=4, cy=4, width=8, height=8)
        batch = so.volumetric_sample(depth, cam, so.SamplingConfig(k=16, scale=0.48, stride=4))
        for start in range(0, len(batch), 16):
            pts = batch.positions[start:start + 16]
            steps = np.diff(pts, axis=0)
            crosses = np.cross(steps[:-1], steps[1:])
            assert np.linalg.norm(crosses, axis=1).max() <= 1e-9

    def test_sample_norm_is_distance_plus_offset(self):
        rng = np.random.default_rng(31)
        values = rng.uniform(0.5, 6.0, (6, 7))
        cam = so.CameraModel(fx=55, fy=60, cx=3.5, cy=3.0, width=7, height=6)
        cfg = so.SamplingConfig(k=5, scale=0.9, stride=2)
        batch = so.volumetric_sample(so.DepthMap(values), cam, cfg)
        offs = so.sample_offsets(cfg)
        u, v = batch.pixels.astype(int).T
        expected = values[v, u] + offs[batch.ks - 1]
        assert np.abs(np.linalg.norm(batch.positions, axis=1) - expected).max() <= 1e-9
        np.testing.assert_array_equal(batch.spacings, np.full(len(batch), 0.9 / 4))
        single = so.volumetric_sample(so.DepthMap(values), cam, so.SamplingConfig(k=1, scale=0.9))
        np.testing.assert_array_equal(single.spacings, np.full(len(single), 0.9))

    def test_monotone_distance_along_ray(self):
        depth = so.DepthMap(np.full((4, 4), 2.5))
        cam = so.CameraModel(fx=40, fy=40, cx=2, cy=2, width=4, height=4)
        batch = so.volumetric_sample(depth, cam, so.SamplingConfig(k=8, scale=0.6, stride=1))
        norms = np.linalg.norm(batch.positions, axis=1).reshape(-1, 8)
        assert np.all(np.diff(norms, axis=1) > 0)

    def test_first_sample_on_surface(self):
        rng = np.random.default_rng(41)
        values = rng.uniform(1.0, 4.0, (5, 5))
        cam = so.CameraModel(fx=45, fy=45, cx=2.5, cy=2.5, width=5, height=5)
        batch = so.volumetric_sample(so.DepthMap(values), cam, so.SamplingConfig(k=3, scale=0.4, stride=1))
        first = batch.ks == 1
        px = batch.pixels[first]
        d = values[px[:, 1].astype(int), px[:, 0].astype(int)]
        assert first.sum() == 25
        np.testing.assert_allclose(batch.positions[first], so.backproject(cam, px, d), atol=1e-12)

    def test_pixel_major_then_k_ordering(self):
        depth = so.DepthMap(np.arange(1.0, 5.0).reshape(2, 2))
        cam = so.CameraModel(fx=10, fy=10, cx=1, cy=1, width=2, height=2)
        batch = so.volumetric_sample(depth, cam, so.SamplingConfig(k=2, scale=0.1, stride=1))
        pixels = [tuple(p) for p in batch.pixels]
        assert pixels == [(0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1)]
        assert list(batch.ks) == [1, 2] * 4

    def test_partial_invalid_pixels_skipped(self):
        values = np.array([[1.0, np.nan], [-3.0, 2.0]])
        cam = so.CameraModel(fx=10, fy=10, cx=1, cy=1, width=2, height=2)
        batch = so.volumetric_sample(so.DepthMap(values), cam, so.SamplingConfig(k=3, scale=0.3, stride=1))
        assert len(batch) == 2 * 3
        assert batch.num_invalid == 2
