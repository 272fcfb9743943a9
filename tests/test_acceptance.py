"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is fixed here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

import splatocc as so
from splatocc.losses import softmax

from oracles import (
    central_difference_gradient,
    linear_radius_scan,
    lovasz_prefix_extension,
    naive_splat,
    random_gaussian_set,
)


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def make_plain_set(means, nc=12, scales=0.02, opacity=0.5, logits=None):
    means = np.atleast_2d(means)
    n = means.shape[0]
    if logits is None:
        logits = np.zeros((n, nc))
    return so.GaussianSet(
        means=means, scales=np.full((n, 3), scales),
        rotations=np.tile([1.0, 0, 0, 0], (n, 1)),
        opacities=np.full(n, opacity), logits=logits, frame="world",
    )


class TestAcceptance:
    def test_01_geometry_roundtrips(self):
        rng = np.random.default_rng(100)
        n = 10_000
        start = time.perf_counter()
        cam = so.CameraModel(
            fx=float(rng.uniform(80, 500)), fy=float(rng.uniform(80, 500)),
            cx=float(rng.uniform(100, 200)), cy=float(rng.uniform(80, 150)),
            width=320, height=240,
        )
        px = np.stack([rng.uniform(-40, 360, n), rng.uniform(-40, 280, n)], axis=-1)
        d = rng.uniform(0.05, 25.0, n)
        rays = so.ray_direction(cam, px)
        u, v, d_back = so.project(cam, so.backproject(cam, px, d))
        elapsed = time.perf_counter() - start

        assert np.abs(np.linalg.norm(rays, axis=-1) - 1.0).max() <= 1e-9
        assert np.abs(u - px[:, 0]).max() <= 1e-6
        assert np.abs(v - px[:, 1]).max() <= 1e-6
        assert np.abs(d_back / d - 1.0).max() <= 1e-6
        assert elapsed < 1.0
        _report(1, f"{n} project/backproject round trips within 1e-6 in {elapsed:.3f}s")

    def test_02_splatting_oracle_equivalence(self):
        rng = np.random.default_rng(101)
        spec = so.GridSpec((16, 16, 16), 0.1, np.zeros(3), 6)
        start = time.perf_counter()
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(50, 1001))
            gset = random_gaussian_set(rng, n, 6)
            grid = so.splat(gset, spec)
            scores, labels, _ = naive_splat(gset, spec)
            worst = max(worst, float(np.abs(grid.scores.ravel() - scores).max()))
            assert np.abs(grid.scores.ravel() - scores).max() <= 1e-6
            np.testing.assert_array_equal(grid.labels.ravel(), labels)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        _report(2, f"50 culled splats match brute force (worst {worst:.2e}) in {elapsed:.1f}s")

    def test_03_pruning_bound(self):
        rng = np.random.default_rng(102)
        spec = so.GridSpec((16, 16, 16), 0.1, np.zeros(3), 6)
        tau = 0.01
        changed = 0
        occupied = 0
        for trial in range(20):
            gset = random_gaussian_set(rng, int(rng.integers(100, 400)), 6)
            # ensure some members fall below the threshold
            opac = gset.opacities.copy()
            weak = rng.uniform(size=opac.size) < 0.1
            opac[weak] = rng.uniform(0.0, tau, int(weak.sum()))
            gset = so.GaussianSet(gset.means, gset.scales, gset.rotations, opac,
                                  gset.logits, frame="world")
            full = so.splat(gset, spec)
            pruned = so.splat(so.prune(gset, tau), spec)
            budget = gset.opacities[gset.opacities < tau].sum()
            assert np.abs(full.scores - pruned.scores).max() <= budget + 1e-12
            occ = full.labels > 0
            occupied += int(occ.sum())
            changed += int((full.labels[occ] != pruned.labels[occ]).sum())
        rate = changed / max(occupied, 1)
        assert rate < 0.01
        _report(3, f"pruning score shift bounded by dropped opacity; label churn {rate:.4%}")

    def test_04_superposition_invariants(self):
        rng = np.random.default_rng(103)
        spec = so.GridSpec((16, 16, 16), 0.1, np.zeros(3), 6)
        for trial in range(5):
            gset = random_gaussian_set(rng, 150, 6)
            base = so.splat(gset.subset(range(149)), spec)
            grown = so.splat(gset, spec)
            assert np.all(grown.scores - base.scores >= -1e-12)
            assert np.all(grown.scores >= 0.0) and np.all(grown.scores <= 1.0)
            perm = rng.permutation(150)
            shuffled = so.splat(gset.subset(perm), spec)
            assert np.abs(grown.scores - shuffled.scores).max() <= 1e-9
            np.testing.assert_array_equal(grown.labels, shuffled.labels)
        _report(4, "adding kernels is monotone, scores stay in [0,1], order is immaterial")

    def test_05_spatial_index_exactness(self):
        rng = np.random.default_rng(104)
        trials = 0
        while trials < 200:
            n = int(rng.integers(100, 10_001))
            means = rng.uniform(0, 3.0, (n, 3))
            bank = so.GaussianMemoryBank.from_set(
                make_plain_set(means), so.FusionConfig(epsilon=0.08)
            )
            for _ in range(min(10, 200 - trials)):
                q = rng.uniform(-0.1, 3.1, 3)
                eps = float(rng.uniform(0.02, 0.08))
                got = np.sort(bank.radius_neighbors(q, eps))
                want = np.sort(linear_radius_scan(means, q, eps))
                np.testing.assert_array_equal(got, want)
                trials += 1
        _report(5, f"{trials} randomized radius queries set-equal to linear scan")

    def test_06_fusion_semantics(self):
        # hand-computed weighted average
        hot = np.zeros(12)
        hot[3] = 1000.0
        bank = so.GaussianMemoryBank.from_set(
            make_plain_set([[1, 1, 1]], opacity=0.8, logits=hot[None, :]),
            so.FusionConfig(epsilon=0.08, gamma=0.3),
        )
        bank.fuse_frame(make_plain_set([[1, 1, 1]], opacity=0.4, logits=hot[None, :]))
        assert abs(bank.opacities[0] - 0.52) <= 1e-9

        # idempotence on identical inputs
        rng = np.random.default_rng(105)
        gset = so.GaussianSet(
            means=rng.uniform(0, 2, (30, 3)), scales=rng.uniform(0.01, 0.05, (30, 3)),
            rotations=rng.normal(size=(30, 4)), opacities=rng.uniform(0.1, 0.9, 30),
            logits=rng.normal(size=(30, 12)), frame="world",
        )
        bank = so.GaussianMemoryBank.from_set(gset, so.FusionConfig(epsilon=0.02, gamma=0.4))
        before = bank.to_set()
        bank.fuse_frame(gset)
        after = bank.to_set()
        for name in ("means", "opacities", "logits"):
            assert np.abs(getattr(after, name) - getattr(before, name)).max() <= 1e-9
        assert np.abs(after.cov - before.cov).max() <= 1e-9

        # positive semidefinite fused covariances, 1000 random fusions
        for _ in range(1000):
            center = rng.uniform(0, 1, 3)
            k = int(rng.integers(1, 5))
            mem = so.GaussianSet(
                means=center[None, :], scales=rng.uniform(0.002, 0.3, (1, 3)),
                rotations=rng.normal(size=(1, 4)), opacities=[float(rng.uniform(0, 1))],
                logits=rng.normal(size=(1, 12)) * 3, frame="world",
            )
            inc = so.GaussianSet(
                means=center + rng.uniform(-0.05, 0.05, (k, 3)),
                scales=rng.uniform(0.002, 0.3, (k, 3)),
                rotations=rng.normal(size=(k, 4)), opacities=rng.uniform(0, 1, k),
                logits=rng.normal(size=(k, 12)) * 3, frame="world",
            )
            b = so.GaussianMemoryBank.from_set(mem, so.FusionConfig(epsilon=0.1))
            b.fuse_frame(inc)
            np.linalg.cholesky(b.to_set().cov[0] + 1e-10 * np.eye(3))

        # continuity: gamma -> 1 recovers the memory attributes
        logits_mem = rng.uniform(-0.25, 0.25, 12)
        mem = make_plain_set([[1, 1, 1]], opacity=0.7, logits=logits_mem[None, :])
        b = so.GaussianMemoryBank.from_set(mem, so.FusionConfig(epsilon=0.1, gamma=0.999))
        b.fuse_frame(make_plain_set(
            [[1.01, 1.0, 1.0]], opacity=0.2,
            logits=(logits_mem + rng.uniform(-0.5, 0.5, 12))[None, :],
        ))
        assert abs(b.opacities[0] - 0.7) <= 1e-3
        assert np.abs(b.means[0] - 1.0).max() <= 1e-3
        assert np.abs(b.logits[0] - logits_mem).max() <= 1e-3
        _report(6, "weighted-average fusion: hand value, idempotence, SPD, gamma->1")

    def test_07_loss_gradients(self):
        rng = np.random.default_rng(106)

        # focal: analytic vs central differences, 100 instances
        for _ in range(100):
            n = int(rng.integers(1, 6))
            nc = int(rng.integers(2, 6))
            gamma = float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0]))
            logits = rng.normal(size=(n, nc)) * 1.5
            targets = rng.integers(0, nc, n)
            _, grad = so.focal_loss(logits, targets, gamma=gamma)
            fd = central_difference_gradient(
                lambda z: so.focal_loss(z, targets, gamma=gamma)[0], logits, h=1e-5
            )
            assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-3) <= 1e-4

        # huber: same protocol, keeping residuals off the kink
        for _ in range(100):
            n = int(rng.integers(2, 10))
            delta = float(rng.uniform(0.3, 2.0))
            target = rng.uniform(0.5, 5.0, n)
            pred = target + rng.normal(size=n) * delta * 2
            pred[np.abs(np.abs(pred - target) - delta) < 1e-3] += 0.01
            _, grad = so.huber_depth(pred, target, delta=delta)
            fd = central_difference_gradient(
                lambda x: so.huber_depth(x, target, delta=delta)[0], pred, h=1e-5
            )
            assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-3) <= 1e-4

        # focal at gamma=0 is exactly cross-entropy
        logits = rng.normal(size=(50, 8)) * 2
        targets = rng.integers(0, 8, 50)
        value, _ = so.focal_loss(logits, targets, gamma=0.0)
        p = softmax(logits)
        assert abs(value - (-np.mean(np.log(p[np.arange(50), targets])))) <= 1e-12

        # lovasz equals the exhaustive prefix oracle on binary inputs
        for _ in range(60):
            n = int(rng.integers(1, 9))
            logits = rng.normal(size=(n, 2)) * 3
            targets = rng.integers(0, 2, n)
            p = softmax(logits)
            expected = np.mean([
                lovasz_prefix_extension(
                    np.abs((targets == c).astype(float) - p[:, c]),
                    (targets == c).astype(float),
                )
                for c in np.unique(targets)
            ])
            assert abs(so.lovasz_softmax(logits, targets) - expected) <= 1e-9
        _report(7, "focal/huber gradients <=1e-4 of finite differences; lovasz matches oracle")

    def test_08_end_to_end_monocular(self):
        cfg = so.PipelineConfig(
            sampling=so.SamplingConfig(k=16, scale=0.48, stride=4),
            attributes=so.AttributeConfig(opacity_decay=0.0),
            tau=0.01,
            theta_occ=0.6,
        )
        passing = 0
        slowest = 0.0
        for seed in range(10):
            scene, cam = so.generate_frontal_room(seed)
            depth, classes = so.render_depth(scene, cam)
            grid_spec = so.frontal_grid(cam)
            start = time.perf_counter()
            pred = so.run_monocular(depth, classes, cam, grid_spec, cfg)
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            gt = so.oracle_occupancy(scene, grid_spec)
            mask = so.frustum_mask(grid_spec, cam)
            report = so.iou_miou(so.confusion(pred, gt, mask))
            if report.iou >= 0.90 and report.miou >= 0.85:
                passing += 1
        assert passing >= 8
        assert slowest < 5.0
        _report(8, f"{passing}/10 seeds reach IoU>=0.90 and mIoU>=0.85; slowest frame {slowest:.2f}s")

    def test_09_sample_count_sweep(self):
        scene, cam, box = so.thick_box_room()
        depth, classes = so.render_depth(scene, cam)
        grid_spec = so.frontal_grid(cam)
        centers = grid_spec.voxel_centers()
        in_box = (
            np.all(centers >= box.min_corner, axis=1)
            & np.all(centers <= box.max_corner, axis=1)
        ).reshape(grid_spec.dims)

        # Hold the kernel width at its 16-sample value so the sweep isolates
        # sample density; otherwise shrinking k inflates the kernels.
        scale = 0.48
        ref_spacing = scale / 15
        fills = []
        for k in (1, 2, 4, 8, 16):
            spacing = scale if k == 1 else scale / (k - 1)
            cfg = so.PipelineConfig(
                sampling=so.SamplingConfig(k=k, scale=scale, stride=4),
                attributes=so.AttributeConfig(
                    sigma_factor=0.75 * ref_spacing / spacing, opacity_decay=0.0
                ),
                theta_occ=0.6,
            )
            pred = so.run_monocular(depth, classes, cam, grid_spec, cfg)
            fills.append((pred.labels[in_box] > 0).mean())
        assert all(b >= a - 1e-12 for a, b in zip(fills, fills[1:]))
        _report(9, "interior fill fraction non-decreasing over k in {1,2,4,8,16}: "
                   + ", ".join(f"{f:.3f}" for f in fills))

    def test_10_streaming_coverage(self):
        cfg = so.PipelineConfig(
            attributes=so.AttributeConfig(opacity_decay=0.0), theta_occ=0.6,
            fusion=so.FusionConfig(epsilon=0.08, gamma=0.4),
        )
        scene = so.SyntheticScene(extent=np.array([4.0, 4.8, 2.88]), shell_thickness=0.48)
        grid_spec = so.scene_grid(scene)
        gt = so.oracle_occupancy(scene, grid_spec)
        frames = []
        for pos, yaw in ([0.3, 2.4, 1.44], 0.0), ([3.7, 2.4, 1.44], 180.0):
            cam = so.standard_camera(pos, yaw_deg=yaw)
            d, c = so.render_depth(scene, cam)
            frames.append((d, c, cam))

        def iou(grid):
            return so.iou_miou(so.confusion(grid, gt)).iou

        _, only_a = so.run_streaming(frames[:1], grid_spec, cfg)
        _, only_b = so.run_streaming(frames[1:], grid_spec, cfg)
        _, fused = so.run_streaming(frames, grid_spec, cfg)
        assert iou(fused) > iou(only_a)
        assert iou(fused) > iou(only_b)

        bank1, _ = so.run_streaming(frames[:1], grid_spec, cfg)
        bank5, _ = so.run_streaming(frames[:1] * 5, grid_spec, cfg)
        assert len(bank5) <= len(bank1)
        _report(10, f"fused IoU {iou(fused):.3f} > single views "
                    f"({iou(only_a):.3f}, {iou(only_b):.3f}); duplicate frames keep bank at {len(bank5)}")

    def test_11_index_performance(self):
        rng = np.random.default_rng(107)
        n, q = 50_000, 5_000
        eps = 0.08
        means = rng.uniform(0, 4.0, (n, 3))
        bank = so.GaussianMemoryBank.from_set(
            make_plain_set(means), so.FusionConfig(epsilon=eps)
        )
        queries = rng.uniform(0, 4.0, (q, 3))

        start = time.perf_counter()
        hash_hits = sum(bank.radius_neighbors(pt, eps).size for pt in queries)
        hash_seconds = time.perf_counter() - start

        start = time.perf_counter()
        linear_hits = sum(linear_radius_scan(means, pt, eps).size for pt in queries)
        linear_seconds = time.perf_counter() - start

        assert hash_hits == linear_hits
        speedup = linear_seconds / hash_seconds
        assert speedup >= 10.0

        incoming = make_plain_set(rng.uniform(0, 4.0, (5_000, 3)),
                                  logits=rng.normal(size=(5_000, 12)))
        start = time.perf_counter()
        stats = bank.fuse_frame(incoming)
        fuse_seconds = time.perf_counter() - start
        assert stats.matched + stats.inserted == 5_000
        assert fuse_seconds < 0.5
        _report(11, f"hash {speedup:.0f}x faster than linear scan; "
                    f"fuse of 5000 took {fuse_seconds * 1000:.0f}ms")
