"""End-to-end composition: monocular reconstruction quality, K behavior,
streaming equivalences."""

import numpy as np
import pytest

import splatocc as so
from splatocc.scenes import WALL_LABEL


# Coverage-oriented settings used by the synthetic-room checks: constant
# sample opacity (no depth fade) and a slightly raised occupancy threshold,
# with the scene shell thickness equal to the sampling reach.
ROOM_CFG = so.PipelineConfig(
    attributes=so.AttributeConfig(opacity_decay=0.0),
    theta_occ=0.6,
)


def fixed_kernel_config(k, scale=0.48, reference_k=16, **kwargs):
    """Sampling config for ray-count sweeps: holds the kernel width at the
    value it would have for ``reference_k``, so changing k varies only the
    sample density."""
    ref_spacing = scale / (reference_k - 1)
    spacing = scale if k == 1 else scale / (k - 1)
    return so.PipelineConfig(
        sampling=so.SamplingConfig(k=k, scale=scale, stride=4),
        attributes=so.AttributeConfig(
            sigma_factor=0.75 * ref_spacing / spacing, opacity_decay=0.0
        ),
        theta_occ=0.6,
        **kwargs,
    )


class TestRunMonocular:
    def test_flat_wall_scene_reconstruction(self):
        scene, cam = so.generate_frontal_room(0, num_patches=(0, 0))
        depth, classes = so.render_depth(scene, cam)
        grid_spec = so.frontal_grid(cam)
        pred = so.run_monocular(depth, classes, cam, grid_spec, ROOM_CFG)
        gt = so.oracle_occupancy(scene, grid_spec)
        mask = so.frustum_mask(grid_spec, cam)
        report = so.iou_miou(so.confusion(pred, gt, mask))
        assert report.iou >= 0.9
        occupied = pred.labels[mask]
        wall_voxels = occupied[occupied > 0]
        assert wall_voxels.size and np.all(wall_voxels == WALL_LABEL)

    def test_all_invalid_depth_yields_empty_grid(self):
        cam = so.standard_camera([0.0, 0.0, 1.0], width=16, height=12)
        depth = so.DepthMap(np.full((12, 16), np.nan))
        classes = np.zeros((12, 16), dtype=np.uint8)
        grid = so.run_monocular(
            depth, classes, cam, so.GridSpec((60, 60, 36), 0.08, np.zeros(3)), ROOM_CFG
        )
        assert grid.labels.sum() == 0 and grid.scores.sum() == 0.0

    def test_deterministic_across_runs(self):
        scene, cam = so.generate_frontal_room(2)
        depth, classes = so.render_depth(scene, cam)
        grid_spec = so.frontal_grid(cam)
        a = so.run_monocular(depth, classes, cam, grid_spec, ROOM_CFG)
        b = so.run_monocular(depth, classes, cam, grid_spec, ROOM_CFG)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert np.abs(a.scores - b.scores).max() <= 1e-9

    def test_class_map_shape_mismatch_rejected(self):
        cam = so.standard_camera([0, 0, 1], width=8, height=8)
        depth = so.DepthMap(np.full((8, 8), 2.0))
        with pytest.raises(ValueError, match="shape"):
            so.frame_gaussians(depth, np.zeros((4, 4)), cam, ROOM_CFG)

    def test_more_samples_fill_more_interior(self):
        scene, cam, box = so.thick_box_room()
        depth, classes = so.render_depth(scene, cam)
        grid_spec = so.frontal_grid(cam)
        centers = grid_spec.voxel_centers()
        in_box = (
            np.all(centers >= box.min_corner, axis=1)
            & np.all(centers <= box.max_corner, axis=1)
        ).reshape(grid_spec.dims)

        counts = {}
        for k in (1, 16):
            pred = so.run_monocular(depth, classes, cam, grid_spec, fixed_kernel_config(k))
            counts[k] = int((pred.labels[in_box] > 0).sum())
        assert counts[16] > counts[1]


class TestRunStreaming:
    def _frames(self, scene, positions_yaws):
        frames = []
        for pos, yaw in positions_yaws:
            cam = so.standard_camera(pos, yaw_deg=yaw)
            depth, classes = so.render_depth(scene, cam)
            frames.append((depth, classes, cam))
        return frames

    def test_single_frame_matches_monocular(self):
        scene, cam = so.generate_frontal_room(1)
        depth, classes = so.render_depth(scene, cam)
        grid_spec = so.frontal_grid(cam)
        mono = so.run_monocular(depth, classes, cam, grid_spec, ROOM_CFG)
        bank, streamed = so.run_streaming([(depth, classes, cam)], grid_spec, ROOM_CFG)
        np.testing.assert_array_equal(mono.labels, streamed.labels)
        assert np.abs(mono.scores - streamed.scores).max() <= 1e-9
        assert len(bank) > 0

    def test_duplicate_frame_is_idempotent(self):
        scene, cam = so.generate_frontal_room(1)
        depth, classes = so.render_depth(scene, cam)
        grid_spec = so.frontal_grid(cam)
        _, once = so.run_streaming([(depth, classes, cam)], grid_spec, ROOM_CFG)
        bank2, twice = so.run_streaming([(depth, classes, cam)] * 2, grid_spec, ROOM_CFG)
        np.testing.assert_array_equal(once.labels, twice.labels)

    def test_duplicate_frames_do_not_grow_bank(self):
        scene = so.SyntheticScene(extent=np.array([4.0, 4.8, 2.88]), shell_thickness=0.48)
        frames = self._frames(scene, [([0.3, 2.4, 1.44], 0.0)])
        grid_spec = so.scene_grid(scene)
        bank1, _ = so.run_streaming(frames, grid_spec, ROOM_CFG)
        bank4, _ = so.run_streaming(frames * 4, grid_spec, ROOM_CFG)
        assert len(bank4) <= len(bank1)

    def test_opposite_views_fuse_to_larger_coverage(self):
        scene = so.SyntheticScene(extent=np.array([4.0, 4.8, 2.88]), shell_thickness=0.48)
        frames = self._frames(scene, [([0.3, 2.4, 1.44], 0.0), ([3.7, 2.4, 1.44], 180.0)])
        grid_spec = so.scene_grid(scene)
        gt = so.oracle_occupancy(scene, grid_spec)

        def scene_iou(grid):
            return so.iou_miou(so.confusion(grid, gt)).iou

        _, only_a = so.run_streaming(frames[:1], grid_spec, ROOM_CFG)
        _, only_b = so.run_streaming(frames[1:], grid_spec, ROOM_CFG)
        _, fused = so.run_streaming(frames, grid_spec, ROOM_CFG)
        assert scene_iou(fused) > scene_iou(only_a)
        assert scene_iou(fused) > scene_iou(only_b)

    def test_splats_the_bank_without_copying_it(self):
        # run_streaming splats read-only views of the bank's arrays, not a
        # to_set() copy: the grid must be the copy's, the bank must stay
        # writable and fuse on, and a snapshot taken before must not move.
        scene = so.SyntheticScene(extent=np.array([4.0, 4.8, 2.88]), shell_thickness=0.48)
        frames = self._frames(scene, [([0.3, 2.4, 1.44], 0.0), ([0.3, 2.4, 1.44], 20.0)])
        grid_spec = so.scene_grid(scene)
        bank, grid = so.run_streaming(frames[:1], grid_spec, ROOM_CFG)
        copied = so.splat(bank.to_set(), grid_spec, theta_occ=ROOM_CFG.theta_occ)
        np.testing.assert_array_equal(grid.labels, copied.labels)
        np.testing.assert_array_equal(grid.scores, copied.scores)

        names = ("means", "cov", "opacities", "logits")
        assert all(getattr(bank, name).flags.writeable for name in names)
        snapshot = bank.to_set()
        frozen = [getattr(snapshot, name).copy() for name in names]
        depth, classes, cam = frames[1]
        stats = bank.fuse_frame(so.frame_gaussians(depth, classes, cam, ROOM_CFG))
        assert stats.matched > 0 and bank.frame_count == 2
        assert not np.array_equal(bank.means[:len(snapshot)], snapshot.means)
        for name, before in zip(names, frozen):
            np.testing.assert_array_equal(getattr(snapshot, name), before)

    def test_bank_arrays_own_exactly_their_rows(self):
        # The splat's read-only views come after the buffers' spare rows are
        # given back: each bank array owns its memory, one row per member.
        scene = so.SyntheticScene(extent=np.array([4.0, 4.8, 2.88]), shell_thickness=0.48)
        frames = self._frames(scene, [([0.3, 2.4, 1.44], 0.0), ([0.3, 2.4, 1.44], 20.0)])
        bank, _ = so.run_streaming(frames, so.scene_grid(scene), ROOM_CFG)
        for name in ("means", "cov", "opacities", "logits"):
            array = getattr(bank, name)
            assert array.base is None and len(array) == len(bank), name

    def test_frames_accumulate_in_bank_counter(self):
        scene, cam = so.generate_frontal_room(5)
        depth, classes = so.render_depth(scene, cam)
        bank, _ = so.run_streaming(
            [(depth, classes, cam)] * 3, so.frontal_grid(cam), ROOM_CFG
        )
        assert bank.frame_count == 3
