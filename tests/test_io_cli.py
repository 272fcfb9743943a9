"""File formats (bit-identical round trips) and the command-line interface."""

import dataclasses
import json
import struct

import numpy as np
import pytest

import splatocc as so
from splatocc import cli, io
from splatocc.cli import main
from splatocc.scenes import Box, SyntheticScene, WallPatch

from oracles import random_gaussian_set


def file_bytes(path):
    return path.read_bytes()


class TestDepthMapFormat:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(35)
        values = rng.uniform(0.1, 9.0, (13, 17))
        values[2, 3] = np.nan
        first = tmp_path / "a.dmap"
        second = tmp_path / "b.dmap"
        io.save_depth_map(first, so.DepthMap(values))
        loaded = io.load_depth_map(first)
        io.save_depth_map(second, loaded)
        assert file_bytes(first) == file_bytes(second)
        assert loaded.width == 17 and loaded.height == 13
        assert np.isnan(loaded.values[2, 3])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dmap"
        path.write_bytes(b"WRONG" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            io.load_depth_map(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.dmap"
        io.save_depth_map(path, so.DepthMap(np.ones((4, 4))))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            io.load_depth_map(path)


class TestClassMapFormat:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(36)
        classes = rng.integers(0, 12, (9, 11)).astype(np.uint8)
        first = tmp_path / "a.cmap"
        second = tmp_path / "b.cmap"
        io.save_class_map(first, classes)
        loaded = io.load_class_map(first)
        io.save_class_map(second, loaded)
        assert file_bytes(first) == file_bytes(second)
        np.testing.assert_array_equal(loaded, classes)

    @pytest.mark.parametrize("classes", [[[300, -1], [2.7, 3]], [[300, 1]], [[-1, 1]],
                                         [[2.0, 3.0]], [[True, False]]],
                             ids=["mixed", "300", "negative", "float", "bool"])
    def test_ids_that_are_not_u8_integers_rejected(self, tmp_path, classes):
        # Cast unchecked, [[300, -1], [2.7, 3]] would reload as [[44, 255], [2, 3]].
        path = tmp_path / "bad.cmap"
        with pytest.raises(ValueError, match=r"integer class ids in 0\.\.255"):
            io.save_class_map(path, np.array(classes))
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4)], ids=["1-d", "3-d"])
    def test_map_that_is_not_2d_rejected(self, tmp_path, shape):
        path = tmp_path / "bad.cmap"
        with pytest.raises(ValueError, match="2-d"):
            io.save_class_map(path, np.ones(shape, dtype=np.uint8))
        assert not path.exists()

    def test_integer_ids_save_as_their_u8_map(self, tmp_path):
        classes = np.random.default_rng(39).integers(0, 256, (5, 7))
        io.save_class_map(tmp_path / "u8.cmap", classes.astype(np.uint8))
        io.save_class_map(tmp_path / "i64.cmap", classes)
        assert file_bytes(tmp_path / "u8.cmap") == file_bytes(tmp_path / "i64.cmap")


class TestGaussianSetFormat:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(37)
        gset = random_gaussian_set(rng, 50, 12)
        first = tmp_path / "a.gset"
        second = tmp_path / "b.gset"
        io.save_gaussians(first, gset)
        loaded = io.load_gaussians(first)
        io.save_gaussians(second, loaded)
        assert file_bytes(first) == file_bytes(second)
        np.testing.assert_array_equal(loaded.cov, gset.cov)
        assert loaded.frame == "world"
        assert loaded.num_classes == 12 and len(loaded) == 50

    def test_empty_set_roundtrip(self, tmp_path):
        path = tmp_path / "empty.gset"
        io.save_gaussians(path, so.GaussianSet.empty(12, frame="world"))
        loaded = io.load_gaussians(path)
        assert len(loaded) == 0 and loaded.num_classes == 12

    def test_camera_frame_set_is_not_saved(self, tmp_path):
        # GSET2 stores no frame and loads as world frame, so a camera-frame
        # set would come back mislabelled.
        path = tmp_path / "cam.gset"
        with pytest.raises(ValueError, match="world-frame"):
            io.save_gaussians(path, random_gaussian_set(np.random.default_rng(38), 3, 4,
                                                        frame="camera"))
        assert not path.exists()

    def test_class_count_bounded_by_u8_labels(self, tmp_path):
        path = tmp_path / "wide.gset"
        path.write_bytes(b"GSET2" + struct.pack("<II", 0, 257))
        with pytest.raises(ValueError, match="class count 257 out of range"):
            io.load_gaussians(path)
        io.save_gaussians(path, so.GaussianSet.empty(256, frame="world"))
        assert io.load_gaussians(path).num_classes == 256


class TestGridFormat:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(39)
        spec = so.GridSpec((7, 6, 5), 0.08, np.array([0.4, -0.8, 0.0]), 12)
        labels = rng.integers(0, 12, spec.dims).astype(np.uint8)
        scores = rng.uniform(0, 1, spec.dims)
        scores[labels == 0] = 0.0
        grid = so.OccupancyGrid(spec=spec, labels=labels, scores=scores)
        first = tmp_path / "a.ogrid"
        second = tmp_path / "b.ogrid"
        io.save_grid(first, grid)
        loaded = io.load_grid(first)
        io.save_grid(second, loaded)
        assert file_bytes(first) == file_bytes(second)
        np.testing.assert_array_equal(loaded.labels, labels)
        assert loaded.spec.dims == (7, 6, 5)
        assert loaded.spec.num_classes == 12


class TestSceneFormat:
    def test_roundtrip(self, tmp_path):
        scene = SyntheticScene(
            extent=np.array([4.0, 4.8, 2.88]),
            shell_thickness=0.4,
            boxes=(Box(np.array([1.0, 1.0, 0.0]), np.array([2.0, 2.0, 1.0]), 7),),
            patches=(WallPatch(axis=0, side="max", lo=(1.0, 1.0), hi=(2.0, 2.0), label=4),),
        )
        path = tmp_path / "scene.json"
        io.save_scene(path, scene)
        loaded = io.load_scene(path)
        np.testing.assert_array_equal(loaded.extent, scene.extent)
        assert loaded.shell_thickness == scene.shell_thickness
        assert loaded.boxes[0].label == 7
        assert loaded.patches[0].hi == (2.0, 2.0)
        # numpy integer ids save as the same JSON numbers.
        numpy_ids = tmp_path / "numpy_ids.json"
        io.save_scene(numpy_ids, dataclasses.replace(
            scene, boxes=(dataclasses.replace(scene.boxes[0], label=np.int64(7)),),
            patches=(dataclasses.replace(scene.patches[0], axis=np.int64(0), label=np.uint8(4)),)))
        assert numpy_ids.read_text() == path.read_text()

    def test_label_keys_load_only_at_their_class_ids(self, tmp_path):
        # Earlier files name the shell's class ids; current ones leave them out.
        path = tmp_path / "scene.json"
        io.save_scene(path, SyntheticScene(extent=np.array([4.0, 4.8, 2.88])))
        payload = json.loads(path.read_text())
        assert not any(key.endswith("_label") for key in payload)
        path.write_text(json.dumps({**payload, "floor_label": 2, "ceiling_label": 1,
                                    "wall_label": 3}))
        assert io.load_scene(path).shell_thickness == 0.48
        for key, value in (("floor_label", 3), ("ceiling_label", 2), ("wall_label", 5)):
            path.write_text(json.dumps({**payload, key: value}))
            with pytest.raises(ValueError, match=f"{path}: scene JSON field '{key}' must be"):
                io.load_scene(path)


class TestConfigFormat:
    def test_parse_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# settings\nk = 8\nscale = 0.4  # meters\n\ntau=0.02\n")
        assert io.load_config(path) == {"k": "8", "scale": "0.4", "tau": "0.02"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = 8\nnot a pair\n")
        with pytest.raises(ValueError, match=f"{path}: line 2"):
            io.load_config(path)

    def test_config_text_reaches_every_field(self, tmp_path):
        from splatocc.pipeline import config_from_mapping, config_types

        path = tmp_path / "run.cfg"
        path.write_text("""# every pipeline key, none at its default
k = 8
scale = 0.3
stride = 2
num_classes = 10
sigma_factor = 0.5
opacity_decay = 0.0   # no fading
epsilon = 0.1
gamma = 0.25
tau = 0.02
theta_occ = 0.6
width = 320
""")
        expected = {
            "k": 8, "scale": 0.3, "stride": 2, "num_classes": 10, "sigma_factor": 0.5,
            "opacity_decay": 0.0, "epsilon": 0.1, "gamma": 0.25, "tau": 0.02, "theta_occ": 0.6,
        }
        assert set(expected) == set(config_types())
        cfg = config_from_mapping(io.load_config(path))
        default = so.PipelineConfig()

        def lookup(config, key):
            nested = (config.sampling, config.attributes, config.fusion)
            return next(getattr(c, key) for c in (config, *nested) if hasattr(c, key))

        for key, cast in config_types().items():
            value = lookup(cfg, key)
            assert type(value) is cast and value == expected[key], key
            assert value != lookup(default, key), key


def _run(capsys, argv) -> dict:
    """Run one CLI command that must succeed; its "key = value" lines as a dict."""
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 0
    return dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())


def _render_room(tmp_path, capsys):
    """Scene, depth map and class map of a plain room under the default camera,
    where every pixel is valid."""
    scene_path = tmp_path / "scene.json"
    io.save_scene(scene_path, SyntheticScene(extent=np.array([4.0, 4.8, 2.88])))
    depth_path = tmp_path / "d.dmap"
    cmap_path = tmp_path / "c.cmap"
    _run(capsys, ["render", "--scene", scene_path, "--pose", "0.3,2.4,1.44",
                  "--out", depth_path, "--classes-out", cmap_path])
    return scene_path, depth_path, cmap_path


def _samples_per_pixel(tmp_path, capsys, extra):
    _, depth_path, cmap_path = _render_room(tmp_path, capsys)
    out = _run(capsys, ["sample", "--depth", depth_path, "--classes", cmap_path, "--stride", "8",
                        "--out", tmp_path / "g.gset"] + extra)
    return str(int(out["count"]) // (len(range(0, 240, 8)) * len(range(0, 180, 8))))


def _render_width(tmp_path, capsys, extra):
    scene_path, _, _ = _render_room(tmp_path, capsys)
    out = _run(capsys, ["render", "--scene", scene_path, "--pose", "0.3,2.4,1.44",
                        "--out", tmp_path / "w.dmap"] + extra)
    return str(int(out["valid_pixels"]) // 180)


def _splat_dims(tmp_path, capsys, extra):
    gset_path = tmp_path / "empty.gset"
    io.save_gaussians(gset_path, so.GaussianSet.empty(12, frame="world"))
    grid_path = tmp_path / "o.ogrid"
    _run(capsys, ["splat", "--gaussians", gset_path, "--out", grid_path] + extra)
    return ",".join(str(d) for d in io.load_grid(grid_path).spec.dims)


class TestCli:
    @pytest.mark.parametrize(
        "probe, key, default, file_value, flag_value",
        [
            (_samples_per_pixel, "k", "16", "2", "3"),
            (_render_width, "width", "240", "200", "160"),
            (_splat_dims, "grid-dims", "60,60,36", "8,8,8", "4,5,6"),
        ],
        ids=["k", "width", "grid-dims"],
    )
    def test_flag_beats_file_beats_default(self, tmp_path, capsys, probe, key, default,
                                           file_value, flag_value):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{key} = {file_value}\n")
        config = ["--config", cfg_path]
        assert probe(tmp_path, capsys, []) == default
        assert probe(tmp_path, capsys, config) == file_value
        assert probe(tmp_path, capsys, config + [f"--{key}", flag_value]) == flag_value

    def test_prune_takes_tau_from_config(self, tmp_path, capsys):
        _, depth_path, cmap_path = _render_room(tmp_path, capsys)
        gset_path = tmp_path / "g.gset"
        _run(capsys, ["sample", "--depth", depth_path, "--classes", cmap_path, "--out", gset_path])
        cfg_path = tmp_path / "prune.cfg"
        cfg_path.write_text("tau = 0.5\n")
        prune = ["prune", "--gaussians", gset_path, "--out", tmp_path / "p.gset"]
        # Opacity 0.9 * exp(-0.15 (k - 1)) stays >= 0.5 for the first 4 of 16 samples.
        assert _run(capsys, prune + ["--config", cfg_path]) == {"kept": "10800", "total": "43200"}
        assert _run(capsys, prune + ["--tau", "0.5"])["kept"] == "10800"
        assert _run(capsys, prune)["kept"] == "43200"

    def test_unknown_config_key_is_one_line_error(self, tmp_path, capsys):
        gset_path = tmp_path / "empty.gset"
        io.save_gaussians(gset_path, so.GaussianSet.empty(12, frame="world"))
        cfg_path = tmp_path / "run.cfg"
        splat = ["splat", "--config", cfg_path, "--gaussians", gset_path,
                 "--out", tmp_path / "o.ogrid"]
        for text, named in (("theta-occ = 0.95\n", ["'theta-occ'", "'theta_occ'"]),
                            ("k = 4\nthreshold = 0.95\n", ["'threshold'"])):
            cfg_path.write_text(text)
            capsys.readouterr()
            assert main([str(a) for a in splat]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "unknown config key" in err[0]
            assert all(name in err[0] for name in named), err[0]
        cfg_path.write_text("theta_occ = 0.95\n")
        assert _run(capsys, splat)["occupied_voxels"] == "0"

    def test_gen_scene_reads_config(self, tmp_path, capsys):
        out = tmp_path / "z.json"
        bad = tmp_path / "bad.cfg"
        bad.write_text("k = 8\nnot a pair\n")
        for cfg_path, words in ((tmp_path / "missing.cfg", "missing.cfg"), (bad, "line 2")):
            capsys.readouterr()
            assert main(["gen-scene", "--config", str(cfg_path), "--out", str(out)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and words in err[0]
        assert not out.exists()
        good = tmp_path / "good.cfg"
        good.write_text("k = 8\n")
        assert _run(capsys, ["gen-scene", "--config", good, "--out", out])["scene"] == str(out)

    def test_full_synthetic_workflow(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        assert main(["gen-scene", "--seed", "1", "--out", str(scene_path)]) == 0
        out = capsys.readouterr().out
        assert "extent = " in out

        depth_path = tmp_path / "d.dmap"
        cmap_path = tmp_path / "c.cmap"
        scene = io.load_scene(scene_path)
        cam_pos = f"0.24,{scene.extent[1] / 2:.4f},1.44"
        assert main([
            "render", "--scene", str(scene_path), "--pose", cam_pos,
            "--out", str(depth_path), "--classes-out", str(cmap_path),
        ]) == 0

        gset_path = tmp_path / "g.gset"
        assert main([
            "sample", "--depth", str(depth_path), "--classes", str(cmap_path),
            "--pose", cam_pos, "--out", str(gset_path), "--k", "8", "--stride", "8",
        ]) == 0
        counted = io.load_gaussians(gset_path)
        assert len(counted) > 0

        pruned_path = tmp_path / "p.gset"
        assert main([
            "prune", "--gaussians", str(gset_path), "--tau", "0.01",
            "--out", str(pruned_path),
        ]) == 0

        grid_path = tmp_path / "o.ogrid"
        cam = so.standard_camera([0.24, scene.extent[1] / 2, 1.44])
        grid_spec = so.frontal_grid(cam)
        origin = ",".join(str(v) for v in grid_spec.origin)
        assert main([
            "splat", "--gaussians", str(pruned_path), "--out", str(grid_path),
            "--grid-dims", "60,60,36", "--voxel-size", "0.08",
            "--grid-origin", origin, "--theta-occ", "0.6",
        ]) == 0

        capsys.readouterr()
        assert main([
            "eval", "--pred", str(grid_path), "--gt-scene", str(scene_path),
            "--pose", cam_pos,
        ]) == 0
        out = capsys.readouterr().out
        assert "iou = " in out and "miou = " in out

    def test_stream_command(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene = SyntheticScene(extent=np.array([4.0, 4.8, 2.88]), shell_thickness=0.48)
        io.save_scene(scene_path, scene)
        poses = tmp_path / "poses.txt"
        out_grid = tmp_path / "scene.ogrid"
        out_bank = tmp_path / "bank.gset"
        runs = []
        # Runs of spaces, tabs and commas separate a pose's numbers as one space does.
        for sep in (" ", "  ", "\t", ", "):
            # The third pose revisits the first, so its frame updates bank members.
            poses.write_text(f"0.3{sep}2.4{sep}1.44{sep}0\n3.7{sep}2.4{sep}1.44{sep}180\n"
                             f"0.3{sep}2.4{sep}1.44{sep}0\n")
            out = _run(capsys, ["stream", "--scene", scene_path, "--poses", poses,
                                "--out-grid", out_grid, "--out-bank", out_bank,
                                "--k", "4", "--stride", "8"])
            runs.append((out, out_grid.read_bytes(), out_bank.read_bytes()))
        assert all(run == runs[0] for run in runs[1:])
        assert "frame_1_inserted" in out and "bank_size" in out
        # One line per FusionStats field, in field order, frame by frame.
        assert [key for key in out if key.startswith("frame_")] == [
            f"frame_{t}_{f.name}" for t in range(3) for f in dataclasses.fields(so.FusionStats)]
        assert "frame_1_candidates" in out and "frame_1_open" in out and "frame_1_cells" in out
        assert 0 < int(out["frame_2_anchors"]) <= int(out["frame_2_matched"])
        assert io.load_grid(out_grid).spec.num_classes == 12
        assert len(io.load_gaussians(out_bank)) > 0

    def test_grid_too_large_to_allocate_is_one_line_error(self, tmp_path, capsys):
        gset_path = tmp_path / "empty.gset"
        io.save_gaussians(gset_path, so.GaussianSet.empty(12, frame="world"))
        # 10^18 voxels: numpy refuses the allocation at once.
        code = main(["splat", "--gaussians", str(gset_path), "--out", str(tmp_path / "o.ogrid"),
                     "--grid-dims", "1000000,1000000,1000000"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and "allocate" in err[0]

    def test_grid_over_voxel_budget_is_one_line_error(self, tmp_path, capsys):
        gset_path = tmp_path / "empty.gset"
        io.save_gaussians(gset_path, so.GaussianSet.empty(12, frame="world"))
        scene_path, poses = tmp_path / "hall.json", tmp_path / "poses.txt"
        io.save_scene(scene_path, SyntheticScene(extent=np.array([1000.0, 1000.0, 10.0])))
        poses.write_text("0.3 2.4 1.44 0\n")
        out = tmp_path / "o.ogrid"
        splat = ["splat", "--gaussians", gset_path, "--grid-dims", "2000,2000,500", "--out", out]
        stream = ["stream", "--scene", scene_path, "--poses", poses, "--out-grid", out]
        for argv, source in ((splat, "grid-dims"), (stream, scene_path)):
            code = main([str(a) for a in argv])
            err = capsys.readouterr().err.splitlines()
            assert code == 1
            assert len(err) == 1 and err[0].startswith(f"error: {source}: "), err
            assert str(2**24) in err[0] and not out.exists()

    def test_voxel_budget_is_inclusive(self):
        assert cli._grid_spec({"grid-dims": (256, 256, 256)}, 12).num_voxels == 2**24
        with pytest.raises(ValueError, match="grid-dims: 16842752 voxels exceed"):
            cli._grid_spec({"grid-dims": (256, 256, 257)}, 12)

    def test_pixel_and_sample_budgets_are_inclusive(self):
        # Checked on the sizes alone: nothing of these sizes is allocated.
        pose = so.standard_pose((0.0, 0.0, 0.0))
        assert cli._camera({"width": 4096, "height": 4096}, pose).width == 4096
        with pytest.raises(ValueError, match="width, height: 16781312 pixels exceed"):
            cli._camera({"width": 4097, "height": 4096}, pose)
        cfg = so.PipelineConfig(sampling=so.SamplingConfig(k=4, stride=2))
        cli._samples_budgeted("k", 2048, 2048, cfg)   # 1024 * 1024 * 4 samples = 2**22
        cli._samples_budgeted("k", 2047, 2047, cfg)   # odd sizes round up, to the same count
        with pytest.raises(ValueError, match="k: 4198400 samples per frame exceed"):
            cli._samples_budgeted("k", 2049, 2048, cfg)

    # Sizes whose arrays numpy cannot allocate: before the budgets each of
    # these failed only when render_depth or volumetric_sample asked for them.
    @pytest.mark.parametrize("command, flags, words", [
        ("render", ["--width", "100000000"], ["width, height", "pixels"]),
        ("stream", ["--width", "100000000"], ["width, height", "pixels"]),
        ("stream", ["--k", "1000000000000"], ["k, stride, width, height", "samples per frame"]),
        ("sample", ["--k", "1000000000000"], ["ok.dmap: k, stride", "samples per frame"]),
    ])
    def test_size_over_budget_is_one_line_naming_its_keys(self, tmp_path, capsys, command,
                                                          flags, words):
        ok, poses, out = _valid_inputs(tmp_path), tmp_path / "poses.txt", tmp_path / "out"
        poses.write_text("0.3 2.4 1.44 0\n")
        argv = (["stream", "--scene", ok["json"], "--poses", poses, "--out-grid", out]
                if command == "stream" else _command_argv(command, ok, out))
        code = main([str(a) for a in argv + flags])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert all(word in err[0] for word in words) and "allocate" in err[0], err[0]
        assert not out.exists()

    def test_nonfinite_setting_is_one_line_error(self, tmp_path, capsys):
        # Each value used to write a set that failed to load or splatted to nothing.
        _, depth_path, cmap_path = _render_room(tmp_path, capsys)
        cfg_path = tmp_path / "bad.cfg"
        out = tmp_path / "g.gset"
        sample = ["sample", "--depth", depth_path, "--classes", cmap_path, "--out", out]
        cases = [(["--config", cfg_path], f"{key} = {value}\n", key)
                 for key, value in (("scale", "inf"), ("scale", "nan"), ("sigma_factor", "nan"),
                                    ("sigma_factor", "inf"), ("opacity_decay", "nan"),
                                    ("opacity_decay", "inf"))]
        for extra, text, key in cases + [(["--scale", "nan"], "", "scale")]:
            cfg_path.write_text(text)
            capsys.readouterr()
            assert main([str(a) for a in sample + extra]) == 1, text
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and key in err[0], err
            assert not out.exists()

    @pytest.mark.filterwarnings("error")   # the overflow is reported once, not warned about
    @pytest.mark.parametrize("command", ["sample", "stream"])
    def test_kernel_variance_overflow_is_one_line_error(self, tmp_path, capsys, command):
        # Finite settings whose kernel variance overflows float64: sample used
        # to write non-finite covariances, stream to fuse them into an empty
        # grid or to fail on cell keys without naming a setting.
        scene_path, depth_path, cmap_path = _render_room(tmp_path, capsys)
        poses = tmp_path / "poses.txt"
        poses.write_text("0.3 2.4 1.44 0\n")
        cfg_path = tmp_path / "big.cfg"
        cfg_path.write_text("sigma_factor = 1e160\n")
        out = tmp_path / "out"
        argv = {"sample": ["sample", "--depth", depth_path, "--classes", cmap_path, "--out", out],
                "stream": ["stream", "--scene", scene_path, "--poses", poses, "--out-grid", out,
                           "--k", "4", "--stride", "8"]}[command]
        for extra in (["--config", cfg_path], ["--scale", "1e300"]):
            capsys.readouterr()
            assert main([str(a) for a in argv + extra]) == 1, extra
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), err
            assert "sigma_factor" in err[0] and "scale" in err[0], err
            assert not out.exists()
        # opacity_decay = 1e308 overflows its exponent only where exp gives 0 anyway.
        cfg_path.write_text("opacity_decay = 1e308\n")
        assert main([str(a) for a in argv + ["--config", cfg_path]]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")   # the slopes used to overflow with RuntimeWarnings
    @pytest.mark.parametrize("flag", ["--fx=1e-153", "--fy=1e-153", "--cx=1e300"])
    def test_ray_slope_overflow_is_one_line_error(self, tmp_path, capsys, flag):
        # Each slope overflows for this 240 x 180 image, not for every image.
        scene_path, _, _ = _render_room(tmp_path, capsys)
        out = tmp_path / "w.dmap"
        capsys.readouterr()
        argv = ["render", "--scene", scene_path, "--pose", "0.3,2.4,1.44", "--out", out, flag]
        assert main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "ray slopes" in err[0], err
        assert not out.exists()

    def test_negative_flag_value_needs_equals_form(self, tmp_path, capsys):
        # argparse takes "-0.48,..." after a space for an option; "--flag=-0.48,..." works.
        gset_path = tmp_path / "g.gset"
        io.save_gaussians(gset_path, random_gaussian_set(np.random.default_rng(42), 30, 12))
        cfg_path = tmp_path / "origin.cfg"
        cfg_path.write_text("grid-origin = -0.48,-0.48,-0.48\n")
        splat = ["splat", "--gaussians", gset_path, "--grid-dims", "12,12,12", "--voxel-size", "0.2"]
        from_file, from_flag = tmp_path / "file.ogrid", tmp_path / "flag.ogrid"
        _run(capsys, splat + ["--config", cfg_path, "--out", from_file])
        _run(capsys, splat + ["--grid-origin=-0.48,-0.48,-0.48", "--out", from_flag])
        assert from_file.read_bytes() == from_flag.read_bytes()
        assert io.load_grid(from_flag).spec.origin == (float(np.float32(-0.48)),) * 3
        assert (io.load_grid(from_flag).labels > 0).any()
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in splat + ["--grid-origin", "-0.48,-0.48,-0.48", "--out", from_flag]])
        assert exc.value.code == 2
        assert "--grid-origin: expected one argument" in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.dmap"
        code = main(["sample", "--depth", str(missing), "--classes", str(missing),
                     "--out", str(tmp_path / "x.gset")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_scene_with_nan_extent_is_one_line_error(self, tmp_path, capsys):
        # json writes and reads NaN, so a scene file can carry one.
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps({"extent": [float("nan"), 4.0, 3.0],
                                          "shell_thickness": 0.48}))
        code = main(["render", "--scene", str(scene_path), "--pose", "0.3,2.4,1.44",
                     "--out", str(tmp_path / "d.dmap")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")
        assert "scene.json" in err[0] and "extent must be three finite lengths" in err[0]

    def test_scene_without_shell_thickness_is_one_line_error(self, tmp_path, capsys):
        room = {"extent": [4.0, 4.8, 2.88], "shell_thickness": 0.48}
        for payload, field in (
            ({"extent": [4.0, 4.8, 2.88]}, "shell_thickness"),
            (dict(room, boxes=5), "boxes"),
            (dict(room, patches="x"), "patches"),
            ([1, 2], "object"),
            (dict(room, patches=[{"axis": 0, "side": "min", "lo": 3, "hi": [1, 1],
                                  "label": 4}]), "scene.json"),
            (dict(room, patches=[{"axis": 0, "side": "min", "lo": [0], "hi": [1, 1],
                                  "label": 4}]), "scene.json"),
        ):
            scene_path = tmp_path / "scene.json"
            scene_path.write_text(json.dumps(payload))
            code = main(["render", "--scene", str(scene_path), "--pose", "0.3,2.4,1.44",
                         "--out", str(tmp_path / "d.dmap")])
            err = capsys.readouterr().err.splitlines()
            assert code == 1
            assert len(err) == 1 and err[0].startswith("error:") and field in err[0]

    def test_oversized_gaussian_count_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "huge.gset"
        path.write_bytes(b"GSET2" + struct.pack("<II", 2**32 - 1, 12) + b"\x00" * 64)
        code = main(["prune", "--gaussians", str(path), "--out", str(tmp_path / "p.gset")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and "truncated" in err[0]

    def test_malformed_gaussian_file_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "g.gset"
        io.save_gaussians(path, random_gaussian_set(np.random.default_rng(40), 2, 12))
        good = path.read_bytes()
        header, row = 13, 8 * (10 + 12)

        def entry(row_index, column):
            return header + row * row_index + 8 * column

        nan_cov = bytearray(good)
        nan_cov[entry(1, 4):entry(1, 5)] = struct.pack("<d", np.nan)
        indefinite = bytearray(good)   # xx = yy = 1, xy = 2: eigenvalues -1 and 3
        indefinite[entry(0, 3):entry(0, 9)] = struct.pack("<6d", 1, 2, 0, 1, 0, 1)
        tiny = bytearray(good)   # Sigma = 1e-12 I: positive definite, below the floor
        tiny[entry(1, 3):entry(1, 9)] = struct.pack("<6d", 1e-12, 0, 0, 1e-12, 0, 1e-12)
        for data, words in ((nan_cov, "finite"), (indefinite, "positive definite"),
                            (tiny, "SCALE_FLOOR"), (b"GSET1" + good[5:], "magic")):
            path.write_bytes(bytes(data))
            code = main(["prune", "--gaussians", str(path), "--out", str(tmp_path / "p.gset")])
            err = capsys.readouterr().err.splitlines()
            assert code == 1
            assert len(err) == 1 and err[0].startswith("error:") and words in err[0]

    def test_nan_grid_scores_are_one_line_error(self, tmp_path, capsys):
        spec = so.GridSpec((4, 3, 2), 0.1, np.zeros(3), 12)
        labels = np.full(spec.dims, 3, dtype=np.uint8)
        path = tmp_path / "nan.ogrid"
        io.save_grid(path, so.OccupancyGrid(spec=spec, labels=labels, scores=np.ones(spec.dims)))
        data = bytearray(path.read_bytes())
        data[-4:] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(data))
        code = main(["eval", "--pred", str(path), "--gt", str(path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and "scores" in err[0]

    def test_config_file_drives_pipeline(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("k = 2\nscale = 0.3\nstride = 8\n")
        scene_path = tmp_path / "scene.json"
        io.save_scene(scene_path, SyntheticScene(extent=np.array([4.0, 4.8, 2.88])))
        depth_path = tmp_path / "d.dmap"
        cmap_path = tmp_path / "c.cmap"
        main(["render", "--scene", str(scene_path), "--pose", "0.3,2.4,1.44",
              "--out", str(depth_path), "--classes-out", str(cmap_path)])
        gset_path = tmp_path / "g.gset"
        assert main([
            "sample", "--config", str(cfg_path), "--depth", str(depth_path),
            "--classes", str(cmap_path), "--out", str(gset_path),
        ]) == 0
        n_pixels = len(range(0, 240, 8)) * len(range(0, 180, 8))
        assert len(io.load_gaussians(gset_path)) == n_pixels * 2


# Setting flags of other commands that a command does not read, so refuses.
_UNREAD_FLAGS = ([("sample", f) for f in ("theta-occ", "epsilon", "gamma")]
                 + [("splat", f) for f in ("k", "scale", "stride", "tau", "epsilon", "gamma")]
                 + [("eval", f) for f in ("k", "scale", "stride", "tau", "theta-occ", "epsilon",
                                          "gamma")])


def _command_argv(command, ok, out):
    """Arguments for a run of command on the valid inputs of _valid_inputs."""
    return {
        "render": ["render", "--scene", ok["json"], "--pose", "0.3,2.4,1.44", "--out", out],
        "sample": ["sample", "--depth", ok["dmap"], "--classes", ok["cmap"], "--out", out],
        "prune": ["prune", "--gaussians", ok["gset"], "--out", out],
        "splat": ["splat", "--gaussians", ok["gset"], "--out", out],
        "eval": ["eval", "--pred", ok["ogrid"], "--gt", ok["ogrid"], "--pose", "0.2,0.1,0.1"],
    }[command]


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS,
                         ids=[f"{c}--{f}" for c, f in _UNREAD_FLAGS])
def test_command_rejects_flag_it_does_not_read(tmp_path, capsys, command, flag):
    argv = _command_argv(command, _valid_inputs(tmp_path), tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv + [f"--{flag}", "1"]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_camera_flag_value_is_checked_by_its_flag(tmp_path, capsys):
    argv = _command_argv("render", _valid_inputs(tmp_path), tmp_path / "out")
    # fx = 1e-308 overflows the ray slopes of every image; it used to write a
    # depth map with one valid column.
    focal = "finite float > 0 with finite ray slopes"
    for flag, value, name in (("fx", "-5", focal), ("cy", "inf", "finite float"),
                              ("width", "0", "int >= 1"), ("fx", "1e-308", focal)):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv + [f"--{flag}={value}"]])
        assert exc.value.code == 2
        assert f"argument --{flag}: invalid {name} value: '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_camera_flags_need_pose(tmp_path, capsys):
    ok = _valid_inputs(tmp_path)
    evaluate = ["eval", "--pred", ok["ogrid"], "--gt", ok["ogrid"]]
    code = main([str(a) for a in evaluate + ["--fx=300", "--width", "64"]])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and "--fx --width" in err[0] and "--pose" in err[0], err
    # One config file serves every command, so its camera keys stay allowed.
    (tmp_path / "cam.cfg").write_text("fx = 300\nwidth = 64\n")
    assert main([str(a) for a in evaluate + ["--config", tmp_path / "cam.cfg"]]) == 0


@pytest.mark.parametrize("command", ["render", "sample", "eval"])
@pytest.mark.parametrize("pose, words", [("0.24,2.48,1.44,nan", ["finite"]),
                                         ("0.24,two,1.44", ["'two'"])], ids=["nan", "not-a-number"])
def test_pose_flag_error_names_the_flag(tmp_path, capsys, command, pose, words):
    out = tmp_path / "out"
    argv = _command_argv(command, _valid_inputs(tmp_path), out)
    code = main([str(a) for a in argv + [f"--pose={pose}"]])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: --pose: "), err
    assert all(word in err[0] for word in words), err[0]
    assert not out.exists()


def test_sample_shape_mismatch_names_both_maps(tmp_path, capsys):
    ok = _valid_inputs(tmp_path)
    classes, out = tmp_path / "short.cmap", tmp_path / "out"
    io.save_class_map(classes, np.full((5, 8), 3, dtype=np.uint8))
    code = main([str(a) for a in ["sample", "--depth", ok["dmap"], "--classes", classes,
                                  "--out", out]])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {classes}: "), err
    assert all(word in err[0] for word in (str(ok["dmap"]), "(5, 8)", "(6, 8)")), err[0]
    assert not out.exists()


@pytest.mark.parametrize("flags, words", [
    (["--width", "16"], ["width = 16", "width 8"]),
    (["--height", "12", "--width", "8"], ["height = 12", "height 6"]),
])
def test_sample_camera_size_must_match_the_depth_map(tmp_path, capsys, flags, words):
    # A camera wider than the 8 x 6 map skews every ray through cx = width / 2.
    ok = _valid_inputs(tmp_path)
    out = tmp_path / "out.gset"
    argv = ["sample", "--depth", ok["dmap"], "--classes", ok["cmap"], "--out", out]
    code = main([str(a) for a in argv + flags])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {ok['dmap']}: "), err
    assert all(word in err[0] for word in words), err[0]
    assert not out.exists()
    # The map's own size, given or not, is the camera's.
    given = tmp_path / "given.gset"
    assert main([str(a) for a in argv[:-1] + [given, "--width", "8", "--height", "6"]]) == 0
    assert main([str(a) for a in argv]) == 0
    assert out.read_bytes() == given.read_bytes()


def test_eval_takes_exactly_one_ground_truth(tmp_path, capsys):
    ok = _valid_inputs(tmp_path)
    for gt in (["--gt", ok["ogrid"], "--gt-scene", ok["json"]], []):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in ["eval", "--pred", ok["ogrid"]] + gt])
        assert exc.value.code == 2
        assert "--gt" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [["--voxel-size", "0.2"], ["--grid-origin=-5,-5,-5"],
                                     "voxel-size = 0.2\n"], ids=["flag", "origin-flag", "file"])
def test_stream_grid_keys_need_grid_dims(tmp_path, capsys, setting):
    ok = _valid_inputs(tmp_path)
    poses, out_grid = tmp_path / "poses.txt", tmp_path / "scene.ogrid"
    poses.write_text("0.3 2.4 1.44 0\n")
    if isinstance(setting, str):
        (tmp_path / "grid.cfg").write_text(setting)
        setting = ["--config", tmp_path / "grid.cfg"]
    code = main([str(a) for a in ["stream", "--scene", ok["json"], "--poses", poses,
                                  "--out-grid", out_grid, "--k", "2", "--stride", "16"] + setting])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "grid-dims" in err[0], err
    assert "voxel-size" in err[0] and "grid-origin" in err[0], err[0]
    assert not out_grid.exists()


def test_stream_writes_the_grid_that_grid_dims_sets(tmp_path, capsys):
    ok = _valid_inputs(tmp_path)
    poses, out_grid, cfg_path = tmp_path / "poses.txt", tmp_path / "g.ogrid", tmp_path / "g.cfg"
    poses.write_text("0.3 2.4 1.44 0\n")
    cfg_path.write_text("voxel-size = 0.25\n")
    out = _run(capsys, ["stream", "--scene", ok["json"], "--poses", poses, "--out-grid", out_grid,
                        "--k", "2", "--stride", "16", "--config", cfg_path,
                        "--grid-dims", "18,20,13", "--grid-origin=-0.25,-0.5,-0.75"])
    spec = io.load_grid(out_grid).spec
    assert spec.dims == (18, 20, 13) and spec.voxel_size == 0.25
    np.testing.assert_array_equal(spec.origin, [-0.25, -0.5, -0.75])
    assert int(out["occupied_voxels"]) > 0


# Each line is one the config dataclasses reject, paired with a command that
# reads its key and one that does not.
@pytest.mark.parametrize("line, command", [
    ("scale = inf", "sample"), ("scale = inf", "render"),
    ("fx = -5", "render"), ("fx = -5", "prune"),
    ("width = 0", "render"), ("width = 0", "splat"),
    ("theta_occ = 2", "splat"), ("theta_occ = 2", "eval"),
    ("tau = -1", "prune"), ("tau = -1", "render"),
])
def test_rejected_config_value_names_its_file(tmp_path, capsys, line, command):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"# checked as a whole\n{line}\n")
    out = tmp_path / "out"
    argv = _command_argv(command, _valid_inputs(tmp_path), out) + ["--config", cfg_path]
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {cfg_path}: "), err
    assert not out.exists()
    assert main([str(a) for a in argv[:-2]]) == 0


def _ogrid(dims, voxel_size=0.1, origin=(0.0, 0.0, 0.0), voxels=None, num_classes=12):
    """OGRID1 bytes with this header and ``voxels`` empty voxels (default: as many
    as dims holds)."""
    voxels = int(np.prod(dims)) if voxels is None else voxels
    return (b"OGRID1" + struct.pack("<IIIIffff", *dims, num_classes, voxel_size, *origin)
            + bytes(voxels) + bytes(4 * voxels))


# A far-wall patch and a box in view of the camera at 0.3,2.4,1.44 looking
# along +x, in the room of _valid_inputs.
_PATCH = {"axis": 0, "side": "max", "lo": [1.8, 1.0], "hi": [3.0, 2.0], "label": 4}
_BOX = {"min": [2.0, 2.0, 1.0], "max": [2.8, 2.8, 1.8], "label": 6}


def _scene_json(shell_thickness=0.48, boxes=(), patches=()):
    """Scene JSON text for the room of _valid_inputs (json.dumps writes inf as Infinity)."""
    return json.dumps({"extent": [4.0, 4.8, 2.88], "shell_thickness": shell_thickness,
                       "boxes": list(boxes), "patches": list(patches)})


def _valid_inputs(tmp_path):
    """One valid file per input kind that a malformed-input case replaces."""
    spec = so.GridSpec((4, 3, 2), 0.1, np.zeros(3), 12)
    ok = {kind: tmp_path / f"ok.{kind}" for kind in ("dmap", "cmap", "gset", "ogrid", "json")}
    io.save_depth_map(ok["dmap"], so.DepthMap(np.ones((6, 8))))
    io.save_class_map(ok["cmap"], np.full((6, 8), 3, dtype=np.uint8))
    io.save_gaussians(ok["gset"], random_gaussian_set(np.random.default_rng(41), 3, 12))
    io.save_grid(ok["ogrid"], so.OccupancyGrid(spec=spec, labels=np.ones(spec.dims, np.uint8),
                                               scores=np.ones(spec.dims)))
    io.save_scene(ok["json"], SyntheticScene(extent=np.array([4.0, 4.8, 2.88])))
    return ok


@pytest.mark.parametrize(
    "kind, fault, words",
    [pytest.param(kind, fault, [fault], id=f"{kind}-{fault}")
     for kind in ("dmap", "cmap", "gset", "ogrid") for fault in ("magic", "truncated")]
    + [
        pytest.param("cfg", "k = 8\nnot a pair\n", ["line 2", "key = value"], id="cfg-no-equals"),
        pytest.param("cfg", "k = 8.5\n", ["k = '8.5' is not int"], id="cfg-float-for-int"),
        pytest.param("cfg", "fx = -5\n",
                     ["fx = '-5' is not finite float > 0 with finite ray slopes"],
                     id="cfg-fx-negative"),
        pytest.param("json", '{"extent": [4, 4.8, 2.88], "shell_thickness": 0.48, '
                     '"wall_label": 5}', ["'wall_label' must be 3"], id="json-wall-label"),
        pytest.param("cfg", "grid-dims = 4,x,6\n", ["grid-dims = '4,x,6' is not three ints"],
                     id="cfg-grid-dims-not-ints"),
        pytest.param("cfg", "grid-origin = 0,0\n", ["grid-origin = '0,0' is not three floats"],
                     id="cfg-grid-origin-two-values"),
        pytest.param("cfg", "grid-dims = 0,5,5\n", ["grid-dims = '0,5,5' is not three ints >= 1"],
                     id="cfg-grid-dims-zero"),
        pytest.param("cfg", "voxel-size = 0\n", ["voxel-size = '0' is not finite float > 0"],
                     id="cfg-voxel-size-zero"),
        pytest.param("cfg", "voxel-size = nan\n", ["voxel-size = 'nan' is not finite float"],
                     id="cfg-voxel-size-nan"),
        pytest.param("cfg", "grid-origin = nan,0,0\n",
                     ["grid-origin = 'nan,0,0' is not three floats, all finite"],
                     id="cfg-grid-origin-nan"),
        pytest.param("poses", "0.3 2.4 1.44 0\n0.3 two 1.44\n", ["line 2", "'two'"],
                     id="poses-not-a-number"),
        pytest.param("poses", "# x y z yaw\n0.3 2.4\n", ["line 2", "x,y,z"],
                     id="poses-two-numbers"),
        pytest.param("poses", b"\xff0.3 2.4 1.44 0\n", ["can't decode"], id="poses-undecodable"),
        pytest.param("cfg", b"\xffk = 8\n", ["can't decode"], id="cfg-undecodable"),
        pytest.param("dmap", b"DMAP1" + struct.pack("<II", 2**32 - 1, 2**32 - 1), ["truncated"],
                     id="dmap-oversized-count"),
        pytest.param("cmap", b"CMAP1" + struct.pack("<II", 2**32 - 1, 2**32 - 1), ["truncated"],
                     id="cmap-oversized-count"),
        pytest.param("ogrid", _ogrid((2**32 - 1,) * 3, voxels=4), ["truncated"],
                     id="ogrid-oversized-count"),
        pytest.param("ogrid", _ogrid((4, 3, 2), voxel_size=np.nan), ["voxel_size"],
                     id="ogrid-nan-voxel-size"),
        pytest.param("ogrid", _ogrid((4, 3, 2), origin=(0.0, np.nan, 0.0)), ["origin"],
                     id="ogrid-nan-origin"),
        pytest.param("ogrid", _ogrid((4, 0, 2)), ["dims"], id="ogrid-zero-dim"),
        pytest.param("ogrid", _ogrid((4, 3, 2), num_classes=257), ["num_classes", "2..256"],
                     id="ogrid-257-classes"),
        pytest.param("cfg", "num_classes = 257\n", ["num_classes", "2..256"],
                     id="cfg-257-classes"),
        pytest.param("gset", b"GSET2" + struct.pack("<II", 0, 1), ["class count 1"],
                     id="gset-one-class"),
        pytest.param("gset", b"GSET2" + struct.pack("<II", 0, 257), ["class count 257"],
                     id="gset-257-classes"),
        pytest.param("poses", "# x y z yaw\n\n# none\n", ["holds no poses"],
                     id="poses-only-comments"),
        pytest.param("ogrid", _ogrid((4, 3, 3)), ["ok.ogrid", "dims (4, 3, 3) against (4, 3, 2)"],
                     id="ogrid-grid-spec-differs"),
        pytest.param("json", _scene_json(patches=[_PATCH | {"label": 300}]),
                     ["patch label", "1..255"], id="json-patch-label-300"),
        pytest.param("json", _scene_json(patches=[_PATCH | {"label": 0}]),
                     ["patch label", "1..255"], id="json-patch-label-0"),
        pytest.param("json", _scene_json(boxes=[_BOX | {"label": 300}]),
                     ["box label", "1..255"], id="json-box-label-300"),
        # Ids that are not integers: int() would read 5.9 as 5, true as 1, "6"
        # as 6 and an axis of 0.7 as 0.
        pytest.param("json", _scene_json(boxes=[_BOX | {"label": 5.9}]),
                     ["box label", "integer"], id="json-box-label-float"),
        pytest.param("json", _scene_json(boxes=[_BOX | {"label": True}]),
                     ["box label", "integer"], id="json-box-label-bool"),
        pytest.param("json", _scene_json(boxes=[_BOX | {"label": "6"}]),
                     ["box label", "integer"], id="json-box-label-string"),
        pytest.param("json", _scene_json(patches=[_PATCH | {"axis": 0.7}]),
                     ["axis", "integer 0..2"], id="json-patch-axis-float"),
        pytest.param("json", _scene_json(patches=[_PATCH | {"side": "top"}]),
                     ["side 'min' or 'max'"], id="json-patch-side"),
        pytest.param("json", _scene_json(patches=[_PATCH | {"hi": [3.0, 1.0]}]),
                     ["positive area"], id="json-patch-empty-rectangle"),
        pytest.param("json", _scene_json(patches=[_PATCH | {"lo": [1.8, 1.0, 9.0]}]),
                     ["patch bounds", "2-vectors"], id="json-patch-three-bounds"),
        pytest.param("json", _scene_json(shell_thickness=float("inf")),
                     ["shell_thickness", "finite"], id="json-infinite-shell"),
        # Reals that are not JSON numbers: float() would read true as 1.0 and
        # "1.8" as 1.8.
        pytest.param("json", _scene_json(shell_thickness=True),
                     ["'shell_thickness'", "JSON numbers only"], id="json-shell-bool"),
        pytest.param("json", _scene_json(boxes=[_BOX | {"max": [2.8, 2.8, "1.8"]}]),
                     ["box 'max'", "JSON numbers only"], id="json-box-corner-string"),
        pytest.param("json", _scene_json(boxes=[_BOX | {"min": [2.0, 2.0, True]}]),
                     ["box 'min'", "JSON numbers only"], id="json-box-corner-bool"),
        pytest.param("json", _scene_json(patches=[_PATCH | {"lo": [1.8, True]}]),
                     ["patch 'lo'", "JSON numbers only"], id="json-patch-bound-bool"),
        pytest.param("json", _scene_json(shell_thickness=10 ** 400),
                     ["malformed scene JSON", "too large"], id="json-shell-int-overflows-float"),
        pytest.param("cmap", b"CMAP1" + struct.pack("<II", 8, 6) + bytes([40] * 48),
                     ["class id 40", "class count 12"], id="cmap-class-40"),
        pytest.param("cmap", b"CMAP1" + struct.pack("<II", 8, 6) + bytes(48),
                     ["class id 0", "valid depth"], id="cmap-class-0"),
    ],
)
def test_malformed_input_is_one_line_naming_its_source(tmp_path, capsys, kind, fault, words):
    ok = _valid_inputs(tmp_path)
    bad = tmp_path / f"bad.{kind}"
    if isinstance(fault, bytes):
        bad.write_bytes(fault)
    elif fault in ("magic", "truncated"):
        good = ok[kind].read_bytes()
        bad.write_bytes(b"X" + good[1:] if fault == "magic" else good[:-1])
    else:
        bad.write_text(fault)
    out = tmp_path / "out"
    argv = {
        "dmap": ["sample", "--depth", bad, "--classes", ok["cmap"], "--out", out],
        "cmap": ["sample", "--depth", ok["dmap"], "--classes", bad, "--out", out],
        "gset": ["prune", "--gaussians", bad, "--out", out],
        "ogrid": ["eval", "--pred", bad, "--gt", ok["ogrid"]],
        "cfg": ["gen-scene", "--config", bad, "--out", out],
        "json": ["render", "--scene", bad, "--pose", "0.3,2.4,1.44", "--out", out],
        "poses": ["stream", "--scene", ok["json"], "--poses", bad, "--out-grid", out],
    }[kind]
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {bad}"), err
    assert all(word in err[0] for word in words), err[0]


@pytest.mark.parametrize("command", ["stream", "eval"])
def test_scene_class_id_beyond_class_count_names_the_scene(tmp_path, capsys, command):
    # Label 40 on a box in view and on one over every voxel of ok.ogrid's grid.
    ok = _valid_inputs(tmp_path)
    scene, poses, out = tmp_path / "scene.json", tmp_path / "poses.txt", tmp_path / "out"
    scene.write_text(_scene_json(boxes=[_BOX | {"label": 40},
                                        {"min": [0, 0, 0], "max": [0.4, 0.4, 0.4], "label": 40}]))
    poses.write_text("0.3 2.4 1.44 0\n")
    argv = {"stream": ["stream", "--scene", scene, "--poses", poses, "--out-grid", out,
                       "--k", "2", "--stride", "16"],
            "eval": ["eval", "--pred", ok["ogrid"], "--gt-scene", scene]}[command]
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {scene}: "), err
    assert "class id 40" in err[0] and "class count 12" in err[0], err[0]
    assert not out.exists()
