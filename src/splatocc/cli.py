"""Command-line interface.

Subcommands drive the library end to end on synthetic scenes: gen-scene,
render, sample, splat, stream, eval, prune. Every command accepts --config
(flat key = value file) with individual flags taking precedence; results
and diagnostics print as "key = value" lines. Exit code 0 on success, 1
with a single-line message on error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .camera import CameraModel
from .fusion import GaussianMemoryBank
from .gaussians import prune
from .metrics import CLASS_NAMES, confusion, frustum_mask, iou_miou
from .pipeline import PipelineConfig, config_from_mapping, frame_gaussians
from .scenes import (
    generate_frontal_room,
    oracle_occupancy,
    render_depth,
    scene_grid,
    standard_camera,
    standard_pose,
)
from .splatting import GridSpec, splat


def _load_settings(args) -> dict:
    return io.load_config(args.config) if args.config else {}


def _pipeline_config(args) -> PipelineConfig:
    mapping = dict(_load_settings(args))
    for key in ("k", "scale", "stride", "tau", "theta_occ", "epsilon", "gamma"):
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = str(value)
    return config_from_mapping(mapping)


def _camera(args, settings: dict, pose=None) -> CameraModel:
    def pick(name, cast, default):
        value = getattr(args, name, None)
        if value is not None:
            return cast(value)
        if name in settings:
            return cast(settings[name])
        return default

    width = pick("width", int, 240)
    height = pick("height", int, 180)
    cam = standard_camera(np.zeros(3), width=width, height=height)
    return CameraModel(
        fx=pick("fx", float, 260.0),
        fy=pick("fy", float, 260.0),
        cx=pick("cx", float, width / 2.0),
        cy=pick("cy", float, height / 2.0),
        width=width,
        height=height,
        pose=pose if pose is not None else cam.pose,
    )


def _parse_pose(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 3:
        parts.append(0.0)
    if len(parts) != 4:
        raise ValueError("pose must be 'x,y,z' or 'x,y,z,yaw_deg'")
    return standard_pose(parts[:3], parts[3])


def _grid_spec(args, settings: dict) -> GridSpec:
    def pick(name, default):
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None:
            return value
        return settings.get(name, default)

    dims = pick("grid-dims", "60,60,36")
    if isinstance(dims, str):
        dims = tuple(int(d) for d in dims.split(","))
    origin = pick("grid-origin", "0,0,0")
    if isinstance(origin, str):
        origin = np.array([float(v) for v in origin.split(",")])
    return GridSpec(
        dims=tuple(dims),
        voxel_size=float(pick("voxel-size", 0.08)),
        origin=np.asarray(origin, dtype=np.float64),
        num_classes=int(pick("num_classes", 12)),
    )


def _emit(key, value):
    print(f"{key} = {value}")


def _cmd_gen_scene(args) -> int:
    scene, cam = generate_frontal_room(args.seed, shell_thickness=args.shell)
    io.save_scene(args.out, scene)
    _emit("scene", args.out)
    _emit("extent", ",".join(f"{v:.2f}" for v in scene.extent))
    _emit("patches", len(scene.patches))
    _emit("boxes", len(scene.boxes))
    _emit("camera_position", ",".join(f"{v:.2f}" for v in cam.position))
    return 0


def _cmd_render(args) -> int:
    scene = io.load_scene(args.scene)
    settings = _load_settings(args)
    cam = _camera(args, settings, pose=_parse_pose(args.pose))
    depth, classes = render_depth(scene, cam)
    io.save_depth_map(args.out, depth)
    if args.classes_out:
        io.save_class_map(args.classes_out, classes)
    _emit("depth", args.out)
    _emit("valid_pixels", int(depth.valid_mask().sum()))
    return 0


def _cmd_sample(args) -> int:
    depth = io.load_depth_map(args.depth)
    classes = io.load_class_map(args.classes)
    settings = _load_settings(args)
    cfg = _pipeline_config(args)
    pose = _parse_pose(args.pose) if args.pose else standard_pose(np.zeros(3))
    cam = _camera(args, settings, pose=pose)
    gaussians = frame_gaussians(depth, classes, cam, cfg)
    io.save_gaussians(args.out, gaussians)
    _emit("gaussians", args.out)
    _emit("count", len(gaussians))
    return 0


def _cmd_prune(args) -> int:
    gset = io.load_gaussians(args.gaussians)
    kept = prune(gset, args.tau if args.tau is not None else 0.01)
    io.save_gaussians(args.out, kept)
    _emit("kept", len(kept))
    _emit("total", len(gset))
    return 0


def _cmd_splat(args) -> int:
    settings = _load_settings(args)
    cfg = _pipeline_config(args)
    gset = io.load_gaussians(args.gaussians)
    grid = splat(gset, _grid_spec(args, settings), theta_occ=cfg.theta_occ)
    io.save_grid(args.out, grid)
    _emit("grid", args.out)
    _emit("occupied_voxels", int((grid.labels > 0).sum()))
    return 0


def _cmd_stream(args) -> int:
    scene = io.load_scene(args.scene)
    settings = _load_settings(args)
    cfg = _pipeline_config(args)
    poses = []
    for line in open(args.poses):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            poses.append(_parse_pose(stripped.replace(" ", ",")))
    if not poses:
        raise ValueError("poses file holds no poses")

    if args.grid_dims or "grid-dims" in settings:
        grid = _grid_spec(args, settings)
    else:
        grid = scene_grid(scene, num_classes=cfg.attributes.num_classes)

    bank = GaussianMemoryBank(cfg.attributes.num_classes, cfg.fusion)
    for t, pose in enumerate(poses):
        cam = _camera(args, settings, pose=pose)
        depth, classes = render_depth(scene, cam)
        stats = bank.fuse_frame(frame_gaussians(depth, classes, cam, cfg))
        _emit(f"frame_{t}_matched", stats.matched)
        _emit(f"frame_{t}_inserted", stats.inserted)
    result = splat(bank.to_set(), grid, theta_occ=cfg.theta_occ)
    io.save_grid(args.out_grid, result)
    if args.out_bank:
        io.save_gaussians(args.out_bank, bank.to_set())
    _emit("bank_size", len(bank))
    _emit("occupied_voxels", int((result.labels > 0).sum()))
    return 0


def _cmd_eval(args) -> int:
    pred = io.load_grid(args.pred)
    if args.gt:
        gt = io.load_grid(args.gt)
    elif args.gt_scene:
        gt = oracle_occupancy(io.load_scene(args.gt_scene), pred.spec)
    else:
        raise ValueError("eval needs --gt or --gt-scene")
    settings = _load_settings(args)
    cfg = _pipeline_config(args)
    mask = None
    if args.pose:
        cam = _camera(args, settings, pose=_parse_pose(args.pose))
        mask = frustum_mask(pred.spec, cam, near=cfg.near, far=cfg.far)
    report = iou_miou(confusion(pred, gt, mask))
    for line in report.lines(CLASS_NAMES):
        print(line)
    return 0


def _add_common(parser) -> None:
    parser.add_argument("--config", help="flat key = value settings file")


def _add_camera_flags(parser) -> None:
    for flag, cast in (("fx", float), ("fy", float), ("cx", float), ("cy", float),
                       ("width", int), ("height", int)):
        parser.add_argument(f"--{flag}", type=cast)


def _add_pipeline_flags(parser) -> None:
    parser.add_argument("--k", type=int)
    parser.add_argument("--scale", type=float)
    parser.add_argument("--stride", type=int)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--theta-occ", dest="theta_occ", type=float)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--gamma", type=float)


def _add_grid_flags(parser) -> None:
    parser.add_argument("--grid-dims", help="X,Y,Z voxel counts")
    parser.add_argument("--voxel-size", type=float)
    parser.add_argument("--grid-origin", help="x,y,z of the grid min corner")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splatocc",
        description="Sparse Gaussian splatting into semantic occupancy grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="generate a seeded synthetic room scene")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shell", type=float, default=0.48, help="shell slab thickness (m)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_scene)

    p = sub.add_parser("render", help="render analytic depth and class maps")
    _add_common(p)
    _add_camera_flags(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--pose", required=True, help="x,y,z[,yaw_deg]")
    p.add_argument("--out", required=True)
    p.add_argument("--classes-out")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("sample", help="volumetric sampling + heuristic Gaussians")
    _add_common(p)
    _add_camera_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--depth", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--pose", help="emit world-frame Gaussians under this pose")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("prune", help="drop Gaussians below an opacity threshold")
    _add_common(p)
    p.add_argument("--gaussians", required=True)
    p.add_argument("--tau", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("splat", help="rasterize Gaussians into an occupancy grid")
    _add_common(p)
    _add_pipeline_flags(p)
    _add_grid_flags(p)
    p.add_argument("--gaussians", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_splat)

    p = sub.add_parser("stream", help="fuse a pose sequence into a scene grid")
    _add_common(p)
    _add_camera_flags(p)
    _add_pipeline_flags(p)
    _add_grid_flags(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--poses", required=True, help="text file, one 'x y z yaw' per line")
    p.add_argument("--out-grid", required=True)
    p.add_argument("--out-bank")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("eval", help="IoU / mIoU between two grids")
    _add_common(p)
    _add_camera_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt")
    p.add_argument("--gt-scene")
    p.add_argument("--pose", help="enable the frustum mask for this camera pose")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
