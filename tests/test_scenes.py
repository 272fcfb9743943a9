"""Synthetic scenes: analytic depth rendering against an independent slab
oracle, and exact ground-truth voxelization."""

import warnings

import numpy as np
import pytest

import splatocc as so
from splatocc.scenes import (CEILING_LABEL, FLOOR_LABEL, WALL_LABEL, Box, SyntheticScene,
                             WallPatch)

from oracles import slab_ray_box


def simple_room(**kwargs):
    defaults = dict(extent=np.array([4.0, 4.8, 2.88]), shell_thickness=0.48)
    defaults.update(kwargs)
    return SyntheticScene(**defaults)


class TestRenderDepth:
    def test_principal_ray_hits_far_wall_exactly(self):
        scene = simple_room()
        cam = so.standard_camera([1.0, 2.4, 1.44])
        depth, classes = so.render_depth(scene, cam)
        cy, cx = cam.height // 2, cam.width // 2
        assert depth.values[cy, cx] == pytest.approx(3.0, abs=1e-12)
        assert classes[cy, cx] == WALL_LABEL

    def test_camera_outside_facing_away_misses(self):
        scene = simple_room()
        cam = so.standard_camera([-5.0, 2.4, 1.44], yaw_deg=180.0)
        depth, classes = so.render_depth(scene, cam)
        assert not depth.valid_mask().any()
        assert classes.sum() == 0

    def test_camera_outside_facing_room_hits_outer_face(self):
        scene = simple_room()
        cam = so.standard_camera([-2.0, 2.4, 1.44])
        depth, classes = so.render_depth(scene, cam)
        cy, cx = cam.height // 2, cam.width // 2
        assert depth.values[cy, cx] == pytest.approx(2.0 - scene.shell_thickness, abs=1e-12)
        assert classes[cy, cx] == WALL_LABEL

    def test_camera_in_shell_rejected(self):
        scene = simple_room()
        cam = so.standard_camera([-0.2, 2.4, 1.44])
        with pytest.raises(ValueError, match="shell"):
            so.render_depth(scene, cam)

    def test_box_occludes_wall(self):
        box = Box(np.array([2.0, 2.0, 1.0]), np.array([2.5, 2.8, 2.0]), label=6)
        scene = simple_room(boxes=(box,))
        cam = so.standard_camera([0.5, 2.4, 1.44])
        depth, classes = so.render_depth(scene, cam)
        cy, cx = cam.height // 2, cam.width // 2
        assert depth.values[cy, cx] == pytest.approx(1.5, abs=1e-12)
        assert classes[cy, cx] == 6

    def test_patch_overrides_wall_class_only(self):
        patch = WallPatch(axis=0, side="max", lo=(2.0, 1.0), hi=(3.0, 2.0), label=4)
        scene = simple_room(patches=(patch,))
        cam = so.standard_camera([0.5, 2.4, 1.44])
        depth, classes = so.render_depth(scene, cam)
        cy, cx = cam.height // 2, cam.width // 2
        assert classes[cy, cx] == 4  # hit lands at (y, z) = (2.4, 1.44), inside the rect
        assert depth.values[cy, cx] == pytest.approx(3.5, abs=1e-12)
        assert WALL_LABEL in np.unique(classes)

    def test_matches_independent_slab_oracle(self):
        rng = np.random.default_rng(34)
        for trial in range(5):
            boxes = tuple(
                Box(lo, np.minimum(lo + rng.uniform(0.2, 0.8, 3), [3.9, 4.7, 2.8]),
                    label=int(rng.integers(4, 12)))
                for lo in [rng.uniform([0.8, 0.5, 0.3], [2.6, 3.5, 1.9]) for _ in range(3)]
            )
            scene = simple_room(boxes=boxes)
            cam = so.standard_camera(
                [0.4, float(rng.uniform(1.5, 3.3)), float(rng.uniform(0.9, 1.9))],
                yaw_deg=float(rng.uniform(-25, 25)), width=48, height=36, focal=52.0,
            )
            depth, _ = so.render_depth(scene, cam)
            pix = np.stack(
                [rng.integers(0, 48, 40), rng.integers(0, 36, 40)], axis=-1
            ).astype(float)
            rays = cam.pose.rotate(so.ray_direction(cam, pix))
            origin = cam.position
            for (u, v), ray in zip(pix.astype(int), rays):
                hits = []
                interior = slab_ray_box(origin, ray, np.zeros(3), scene.extent)
                assert interior is not None
                hits.append(interior[1])  # shell begins where the interior ends
                for box in scene.boxes:
                    r = slab_ray_box(origin, ray, box.min_corner, box.max_corner)
                    if r is not None and r[0] > 1e-12 and r[0] <= r[1]:
                        hits.append(r[0])
                assert depth.values[v, u] == pytest.approx(min(hits), abs=1e-9)


def random_patched_scene(rng):
    """Non-quantized room with two patches on each of the six faces (they
    often overlap, and often reach past the face into the floor or ceiling
    band) and two disjoint boxes in the far part of the room."""
    extent = rng.uniform([3.0, 3.0, 2.4], [5.0, 5.0, 3.2])
    shell = float(rng.uniform(0.3, 0.6))
    patches = []
    for axis in (0, 1, 2):
        span = extent[[a for a in (0, 1, 2) if a != axis]]
        for side in ("min", "max"):
            for _ in range(2):
                lo = rng.uniform(-shell, 0.7 * span)
                hi = lo + rng.uniform(0.4, 0.6 * span + shell)
                patches.append(WallPatch(axis=axis, side=side, lo=tuple(lo), hi=tuple(hi),
                                         label=int(rng.choice([4, 5, 9, 10, 11]))))
    boxes = tuple(
        Box(lo, lo + rng.uniform([0.05, 0.2, 0.2], [0.15, 0.5, 0.5]) * extent,
            label=int(rng.integers(6, 9)))
        for lo in (rng.uniform([x0, 0.1, 0.1], [x0, 0.4, 0.4]) * extent for x0 in (0.4, 0.6))
    )
    return SyntheticScene(extent=extent, shell_thickness=shell, boxes=boxes,
                          patches=tuple(patches))


def random_cameras(rng, scene):
    """One camera in the near part of the interior, looking roughly along +x,
    and one outside the shell, looking at the room from a random side and
    height; 48 x 36 px."""
    ext = scene.extent
    inside = rng.uniform([0.05, 0.1, 0.1], [0.3, 0.9, 0.9]) * ext
    phi = rng.uniform(0, 2 * np.pi)
    outside = np.append(ext[:2] / 2 + rng.uniform(5.0, 7.0) * np.array([np.cos(phi), np.sin(phi)]),
                        rng.uniform(-1.5, ext[2] + 1.5))
    yaw = np.rad2deg(phi) + 180.0 + rng.uniform(-15, 15)
    return [so.standard_camera(pos, yaw_deg=float(y), width=48, height=36, focal=30.0)
            for pos, y in ((inside, rng.uniform(-70, 70)), (outside, yaw))]


class TestRenderMatchesOracle:
    def test_every_hit_pixel_carries_the_oracle_label(self):
        # Probe the oracle with one tiny voxel 1e-7 past each hit along its
        # ray, so it lies inside the struck solid.
        rng = np.random.default_rng(2024)
        checked, mismatched = 0, []
        for _ in range(4):
            scene = random_patched_scene(rng)
            for cam in random_cameras(rng, scene):
                depth, classes = so.render_depth(scene, cam)
                pix = np.stack(np.meshgrid(np.arange(48), np.arange(36)), axis=-1).astype(float)
                dirs = cam.pose.rotate(so.ray_direction(cam, pix))
                for v, u in zip(*np.nonzero(depth.valid_mask())):
                    probe = cam.position + (depth.values[v, u] + 1e-7) * dirs[v, u]
                    spec = so.GridSpec((1, 1, 1), 1e-8, probe - 0.5e-8, 12)
                    truth = so.oracle_occupancy(scene, spec).labels[0, 0, 0]
                    checked += 1
                    if truth != classes[v, u]:
                        mismatched.append((tuple(probe), int(classes[v, u]), int(truth)))
        assert checked > 8000
        assert not mismatched, (len(mismatched), mismatched[:5])

    def test_missed_rays_raise_no_warning(self):
        patch = WallPatch(axis=0, side="min", lo=(1.0, 0.5), hi=(3.0, 2.0), label=9)
        scene = simple_room(patches=(patch,))
        cam = so.standard_camera([-3.0, 2.4, 1.44], width=48, height=36, focal=12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            depth, classes = so.render_depth(scene, cam)
        valid = depth.valid_mask()
        assert valid.any() and not valid.all()
        assert 9 in classes and np.all(classes[~valid] == 0)


class TestOracleOccupancy:
    def test_box_spanning_eight_voxels(self):
        spec = so.GridSpec((10, 10, 10), 0.08, np.zeros(3), 12)
        box = Box(np.array([0.16, 0.16, 0.16]), np.array([0.32, 0.32, 0.32]), label=5)
        scene = SyntheticScene(
            extent=np.array([10.0, 10.0, 10.0]), shell_thickness=0.4, boxes=(box,)
        )
        grid = so.oracle_occupancy(scene, spec)
        assert (grid.labels == 5).sum() == 8
        assert set(np.unique(grid.labels)) == {0, 5}

    def test_room_interior_is_empty(self):
        scene = simple_room()
        spec = so.GridSpec((8, 8, 8), 0.16, np.array([1.0, 1.0, 0.64]), 12)
        grid = so.oracle_occupancy(scene, spec)
        assert grid.labels.sum() == 0

    def test_shell_face_classes(self):
        scene = simple_room()
        spec = so.scene_grid(scene)
        grid = so.oracle_occupancy(scene, spec)
        lab = np.unique(grid.labels)
        assert {0, FLOOR_LABEL, CEILING_LABEL, WALL_LABEL} <= set(lab)
        centers = spec.voxel_centers().reshape(spec.dims + (3,))
        below = centers[..., 2] < 0
        in_outer = np.all(
            (centers >= scene.outer_min) & (centers <= scene.outer_max), axis=-1
        )
        assert np.all(grid.labels[below & in_outer] == FLOOR_LABEL)

    def test_overlapping_boxes_later_wins(self):
        outer = Box(np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.0, 2.0]), label=5)
        inner = Box(np.array([1.3, 1.3, 1.3]), np.array([1.7, 1.7, 1.7]), label=8)
        scene = simple_room(boxes=(outer, inner))
        spec = so.GridSpec((20, 20, 20), 0.1, np.array([0.75, 0.75, 0.75]), 12)
        grid = so.oracle_occupancy(scene, spec)
        centers = spec.voxel_centers().reshape(spec.dims + (3,))
        in_inner = np.all((centers >= inner.min_corner) & (centers <= inner.max_corner), axis=-1)
        assert np.all(grid.labels[in_inner] == 8)
        in_outer_only = np.all(
            (centers >= outer.min_corner) & (centers <= outer.max_corner), axis=-1
        ) & ~in_inner
        assert np.all(grid.labels[in_outer_only] == 5)

    def test_patch_region_labeled_in_shell(self):
        patch = WallPatch(axis=0, side="max", lo=(2.0, 1.0), hi=(3.0, 2.0), label=9)
        scene = simple_room(patches=(patch,))
        spec = so.scene_grid(scene)
        grid = so.oracle_occupancy(scene, spec)
        centers = spec.voxel_centers().reshape(spec.dims + (3,))
        in_slab = (
            (centers[..., 0] >= scene.extent[0])
            & (centers[..., 0] <= scene.extent[0] + scene.shell_thickness)
            & (centers[..., 1] >= 2.0) & (centers[..., 1] <= 3.0)
            & (centers[..., 2] >= 1.0) & (centers[..., 2] <= 2.0)
        )
        assert np.all(grid.labels[in_slab] == 9)

    def test_render_and_oracle_agree_on_straight_prism(self):
        # A head-on camera samples the patch; the voxelized prism must carry
        # the same label where the rays land.
        patch = WallPatch(axis=0, side="max", lo=(2.0, 1.2), hi=(2.8, 1.8), label=10)
        scene = simple_room(patches=(patch,))
        cam = so.standard_camera([0.4, 2.4, 1.44])
        depth, classes = so.render_depth(scene, cam)
        cy, cx = cam.height // 2, cam.width // 2
        assert classes[cy, cx] == 10

    def test_boxes_outside_room_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            simple_room(boxes=(Box(np.array([3.5, 0.5, 0.5]), np.array([4.5, 1.0, 1.0]), 5),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_floats_rejected(self, bad):
        # NaN fails every comparison, so a sign test alone would pass it.
        with pytest.raises(ValueError, match="extent must be three finite lengths"):
            simple_room(extent=np.array([bad, 4.8, 2.88]))
        with pytest.raises(ValueError, match="box corners must be finite"):
            Box(np.array([bad, 0.5, 0.5]), np.array([1.0, 1.0, 1.0]), 5)
        with pytest.raises(ValueError, match="box corners must be finite"):
            Box(np.array([0.5, 0.5, 0.5]), np.array([1.0, bad, 1.0]), 5)
        with pytest.raises(ValueError, match="patch bounds must be finite"):
            WallPatch(axis=0, side="max", lo=(bad, 0.5), hi=(1.0, 1.0), label=4)
        with pytest.raises(ValueError, match="patch bounds must be finite"):
            WallPatch(axis=0, side="max", lo=(0.5, 0.5), hi=(1.0, bad), label=4)


class TestGenerators:
    def test_frontal_room_reproducible(self):
        a_scene, a_cam = so.generate_frontal_room(3)
        b_scene, b_cam = so.generate_frontal_room(3)
        np.testing.assert_array_equal(a_scene.extent, b_scene.extent)
        assert len(a_scene.patches) == len(b_scene.patches)
        np.testing.assert_array_equal(a_cam.position, b_cam.position)

    def test_frontal_room_every_ray_hits_far_wall(self):
        for seed in (0, 4, 9):
            scene, cam = so.generate_frontal_room(seed)
            depth, classes = so.render_depth(scene, cam)
            assert depth.valid_mask().all()
            # all hits land on the +x wall plane (no floor/ceiling/side hits)
            assert classes.min() >= 3

    def test_standard_pose_orientation(self):
        pose = so.standard_pose([1.0, 2.0, 3.0], yaw_deg=0.0)
        forward = pose.rotation @ np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(forward, [1, 0, 0], atol=1e-12)
        up_image = pose.rotation @ np.array([0.0, -1.0, 0.0])
        np.testing.assert_allclose(up_image, [0, 0, 1], atol=1e-12)

    def test_frontal_grid_placement(self):
        cam = so.standard_camera([0.24, 2.56, 1.44])
        grid = so.frontal_grid(cam)
        assert grid.dims == (60, 60, 36)
        np.testing.assert_allclose(grid.origin, [0.24, 0.16, 0.0], atol=1e-12)

    def test_thick_box_room_box_depth_exceeds_reach(self):
        scene, cam, box = so.thick_box_room()
        assert box.max_corner[0] - box.min_corner[0] > 0.48
        depth, classes = so.render_depth(scene, cam)
        cy, cx = cam.height // 2, cam.width // 2
        assert classes[cy, cx] == box.label
