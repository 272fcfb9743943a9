"""Command-line interface.

Subcommands drive the library end to end on synthetic scenes: gen-scene,
render, sample, splat, stream, eval, prune. Every command accepts --config
(flat key = value file) and reads it before anything else. Each input is
parsed once, where it enters: a config value or setting flag by its key's
parser, a pose by one parser ("x y z [yaw]", commas, whitespace or both
between). A key that no command reads, or a value its parser rejects, is an
error, and the file's values are checked as a whole before flags override
them. Each command has setting flags only for the keys it reads; a key in
neither file nor flags takes its default. `stream` fuses through
`run_streaming` and prints the bank's per-frame FusionStats. Results print
as "key = value" lines. Exit code 0 on success, 1 with one line on error
that names the faulty input: its file and line or key, or its flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

from . import io
from .camera import CameraModel
from .gaussians import prune
from .metrics import confusion, frustum_mask, iou_miou
from .pipeline import config_from_mapping, config_types, frame_gaussians, run_streaming
from .scenes import (
    generate_frontal_room,
    oracle_occupancy,
    render_depth,
    scene_grid,
    standard_pose,
)
from .splatting import GridSpec, splat


def _triple(cast):
    return lambda text: tuple(map(cast, text.split(",")))


def _owned(owner, field: str, parse, name: str):
    """``parse``, then the check of ``field`` by ``owner``'s dataclass; named for error lines."""
    def check(text: str):
        value = parse(text)
        dataclasses.replace(owner, **{field: value})
        return value
    check.__name__ = name
    return check


# The long focal lengths keep the camera's ray-slope check off a lone cx, cy or size.
_GRID, _CAM = GridSpec((1, 1, 1), 1.0, (0, 0, 0)), CameraModel(1e300, 1e300, 0.5, 0.5, 1, 1)
# Every key some command reads, with its parser; a config file may hold no
# other. The pipeline's keys and types come from its config dataclasses.
_CONFIG_KEYS = {**{key: _owned(_CAM, key, float, "finite float > 0 with finite ray slopes")
                   for key in ("fx", "fy")},
                **{key: _owned(_CAM, key, float, "finite float") for key in ("cx", "cy")},
                **{key: _owned(_CAM, key, int, "int >= 1") for key in ("width", "height")},
                "grid-dims": _owned(_GRID, "dims", _triple(int), "three ints >= 1"),
                "voxel-size": _owned(_GRID, "voxel_size", float, "finite float > 0"),
                "grid-origin": _owned(_GRID, "origin", _triple(float), "three floats, all finite"),
                **config_types()}
# Setting flags by config-file key. Flag --theta-occ stores under key
# theta_occ, --grid-dims under grid-dims, so a flag overlays its key.
_CAMERA_FLAGS = ("fx", "fy", "cx", "cy", "width", "height")
_SAMPLE_FLAGS = ("k", "scale", "stride", "tau")
_GRID_FLAGS = ("grid-dims", "voxel-size", "grid-origin")
_FLAG_HELP = {"grid-dims": "X,Y,Z voxel counts", "grid-origin": "x,y,z of the grid min corner"}
# Size budgets, checked before any work starts so an oversized input fails
# as one line instead of an allocation error or a run that does not end.
_MAX_VOXELS = 2**24   # per grid: ~3 GB of splat scratch at 12 classes
_MAX_PIXELS = 2**24   # per camera: render_depth peaks near 22 (height, width) float planes, ~3 GB
_MAX_SAMPLES = 2**22  # per frame: its Gaussians, ~0.2 kB each at 12 classes, a few copies


def _settings(args) -> dict:
    """The --config file's key = value pairs, parsed by their keys' parsers and
    checked as a whole, overlaid by every setting flag given (same parsers)."""
    settings = {}
    for key, text in (io.load_config(args.config) if args.config else {}).items():
        if key not in _CONFIG_KEYS:
            spelled = [k for k in _CONFIG_KEYS
                       if k.replace("_", "-") == key.lstrip("-").replace("_", "-")]
            hint = f" (the file spells it {spelled[0]!r})" if spelled else ""
            raise ValueError(f"{args.config}: unknown config key {key!r}{hint}")
        try:
            settings[key] = _CONFIG_KEYS[key](text)
        except ValueError:
            raise ValueError(f"{args.config}: {key} = {text!r} is not "
                             f"{_CONFIG_KEYS[key].__name__}") from None
    with io._named(args.config):
        config_from_mapping(settings)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _camera(settings: dict, pose) -> CameraModel:
    width, height = settings.get("width", 240), settings.get("height", 180)
    _budgeted("width, height", width * height, _MAX_PIXELS, "pixels")
    return CameraModel(settings.get("fx", 260.0), settings.get("fy", 260.0),
                       settings.get("cx", width / 2.0), settings.get("cy", height / 2.0),
                       width, height, pose)


def _parse_pose(text: str):
    """Upright camera pose from "x y z [yaw_deg]": commas, whitespace or both between."""
    parts = [float(p) for p in re.split(r"\s*,\s*|\s+", text.strip())]
    if len(parts) == 3:
        parts.append(0.0)
    if len(parts) != 4:
        raise ValueError("pose must be 'x,y,z' or 'x,y,z,yaw_deg'")
    return standard_pose(parts[:3], parts[3])


def _pose_flag(text: str):
    """_parse_pose for the --pose flag; any error names the flag."""
    with io._named("--pose"):
        return _parse_pose(text)


def _grid_spec(settings: dict, num_classes: int) -> GridSpec:
    spec = GridSpec(dims=settings.get("grid-dims", (60, 60, 36)),
                    voxel_size=settings.get("voxel-size", 0.08),
                    origin=settings.get("grid-origin", (0.0, 0.0, 0.0)), num_classes=num_classes)
    _budgeted("grid-dims", spec.num_voxels, _MAX_VOXELS, "voxels")
    return spec


def _budgeted(source, count: int, budget: int, unit: str) -> None:
    """Reject, naming source, a count of unit above its budget."""
    if count > budget:
        raise ValueError(f"{source}: {count} {unit} exceed the {budget} that one run may allocate")


def _samples_budgeted(source, width: int, height: int, cfg) -> None:
    """The samples that one frame of this size makes under cfg, against their budget."""
    s = cfg.sampling.stride
    _budgeted(source, -(-height // s) * -(-width // s) * cfg.sampling.k, _MAX_SAMPLES,
              "samples per frame")


def _classes_fit(source, top: int, num_classes: int) -> None:
    """Reject, naming source, an input whose largest class id top is not below
    the run's class count; checked before any work starts."""
    if top >= num_classes:
        raise ValueError(f"{source}: class id {top} is not below the class count {num_classes}")


def _emit(key, value):
    print(f"{key} = {value}")


def _cmd_gen_scene(args, settings, cfg) -> int:
    scene, cam = generate_frontal_room(args.seed, shell_thickness=args.shell)
    io.save_scene(args.out, scene)
    _emit("scene", args.out)
    _emit("extent", ",".join(f"{v:.2f}" for v in scene.extent))
    _emit("patches", len(scene.patches))
    _emit("boxes", len(scene.boxes))
    _emit("camera_position", ",".join(f"{v:.2f}" for v in cam.position))
    return 0


def _cmd_render(args, settings, cfg) -> int:
    scene = io.load_scene(args.scene)
    cam = _camera(settings, _pose_flag(args.pose))
    depth, classes = render_depth(scene, cam)
    io.save_depth_map(args.out, depth)
    if args.classes_out:
        io.save_class_map(args.classes_out, classes)
    _emit("depth", args.out)
    _emit("valid_pixels", int(depth.valid_mask().sum()))
    return 0


def _cmd_sample(args, settings, cfg) -> int:
    depth = io.load_depth_map(args.depth)
    _samples_budgeted(f"{args.depth}: k, stride", depth.width, depth.height, cfg)
    classes = io.load_class_map(args.classes)
    if classes.shape != depth.values.shape:
        raise ValueError(f"{args.classes}: class map shape {classes.shape} does not match the "
                         f"depth map shape {depth.values.shape} of {args.depth}")
    _classes_fit(args.classes, int(classes.max(initial=0)), cfg.attributes.num_classes)
    s = cfg.sampling.stride   # volumetric_sample reads the valid pixels of this stride
    if (classes[::s, ::s][depth.valid_mask()[::s, ::s]] == 0).any():
        raise ValueError(f"{args.classes}: class id 0 at a sampled pixel with a valid depth "
                         "(0 marks pixels without one)")
    size = {"width": depth.width, "height": depth.height}   # the camera's unless set
    for key, value in size.items():
        if settings.get(key, value) != value:
            raise ValueError(f"{args.depth}: {key} = {settings[key]} does not match the "
                             f"depth map's {key} {value}")
    pose = _pose_flag(args.pose) if args.pose else standard_pose((0.0, 0.0, 0.0))
    cam = _camera(settings | size, pose)
    gaussians = frame_gaussians(depth, classes, cam, cfg)
    io.save_gaussians(args.out, gaussians)
    _emit("gaussians", args.out)
    _emit("count", len(gaussians))
    return 0


def _cmd_prune(args, settings, cfg) -> int:
    gset = io.load_gaussians(args.gaussians)
    kept = prune(gset, cfg.tau)
    io.save_gaussians(args.out, kept)
    _emit("kept", len(kept))
    _emit("total", len(gset))
    return 0


def _cmd_splat(args, settings, cfg) -> int:
    gset = io.load_gaussians(args.gaussians)
    grid = splat(gset, _grid_spec(settings, cfg.attributes.num_classes), theta_occ=cfg.theta_occ)
    io.save_grid(args.out, grid)
    _emit("grid", args.out)
    _emit("occupied_voxels", int((grid.labels > 0).sum()))
    return 0


def _cmd_stream(args, settings, cfg) -> int:
    if "grid-dims" not in settings and settings.keys() & {"voxel-size", "grid-origin"}:
        raise ValueError("voxel-size and grid-origin take effect only with grid-dims")
    scene = io.load_scene(args.scene)
    nc = cfg.attributes.num_classes
    _classes_fit(args.scene, scene.max_label, nc)
    poses = io.load_lines(args.poses, _parse_pose)
    if not poses:
        raise ValueError(f"{args.poses}: poses file holds no poses")
    if "grid-dims" in settings:
        grid = _grid_spec(settings, nc)
    else:
        try:
            grid = scene_grid(scene, nc)
        except ValueError as exc:
            raise ValueError(f"{args.scene}: {exc}") from None
        _budgeted(args.scene, grid.num_voxels, _MAX_VOXELS, "voxels")
    cams = [_camera(settings, pose) for pose in poses]
    _samples_budgeted("k, stride, width, height", cams[0].width, cams[0].height, cfg)
    bank, result = run_streaming(((*render_depth(scene, cam), cam) for cam in cams), grid, cfg)
    for t, stats in enumerate(bank.frame_stats):
        for f in dataclasses.fields(stats):
            _emit(f"frame_{t}_{f.name}", getattr(stats, f.name))
    io.save_grid(args.out_grid, result)
    if args.out_bank:
        io.save_gaussians(args.out_bank, bank.to_set())
    _emit("bank_size", len(bank))
    _emit("occupied_voxels", int((result.labels > 0).sum()))
    return 0


def _cmd_eval(args, settings, cfg) -> int:
    flags = [f"--{key}" for key in _CAMERA_FLAGS if getattr(args, key) is not None]
    if flags and not args.pose:
        raise ValueError(f"{' '.join(flags)} take effect only with --pose")
    pred = io.load_grid(args.pred)
    if args.gt:
        gt = io.load_grid(args.gt)
        differ = [f"{f.name} {getattr(pred.spec, f.name)} against {getattr(gt.spec, f.name)}"
                  for f in dataclasses.fields(GridSpec)
                  if getattr(pred.spec, f.name) != getattr(gt.spec, f.name)]
        if differ:
            raise ValueError(f"{args.pred}: grid spec differs from that of {args.gt}: "
                             + "; ".join(differ))
    else:
        scene = io.load_scene(args.gt_scene)
        _classes_fit(args.gt_scene, scene.max_label, pred.spec.num_classes)
        gt = oracle_occupancy(scene, pred.spec)
    mask = None
    if args.pose:
        cam = _camera(settings, _pose_flag(args.pose))
        mask = frustum_mask(pred.spec, cam)
    for line in iou_miou(confusion(pred, gt, mask)).lines():
        print(line)
    return 0


def _add_common(parser) -> None:
    parser.add_argument("--config", help="flat key = value settings file")


def _add_flags(parser, flags) -> None:
    for key in flags:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=_CONFIG_KEYS[key],
                            metavar=key.replace("-", "_").upper(), help=_FLAG_HELP.get(key))


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
    _add_flags(p, _CAMERA_FLAGS)
    p.add_argument("--scene", required=True)
    p.add_argument("--pose", required=True, help="x,y,z[,yaw_deg]")
    p.add_argument("--out", required=True)
    p.add_argument("--classes-out")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("sample", help="volumetric sampling + heuristic Gaussians")
    _add_common(p)
    _add_flags(p, _CAMERA_FLAGS + _SAMPLE_FLAGS)
    p.add_argument("--depth", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--pose", help="emit world-frame Gaussians under this pose")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("prune", help="drop Gaussians below an opacity threshold")
    _add_common(p)
    p.add_argument("--gaussians", required=True)
    _add_flags(p, ("tau",))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("splat", help="rasterize Gaussians into an occupancy grid")
    _add_common(p)
    _add_flags(p, ("theta_occ",) + _GRID_FLAGS)
    p.add_argument("--gaussians", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_splat)

    p = sub.add_parser("stream", help="fuse a pose sequence into a scene grid")
    _add_common(p)
    _add_flags(p, _CAMERA_FLAGS + _SAMPLE_FLAGS + ("theta_occ", "epsilon", "gamma") + _GRID_FLAGS)
    p.add_argument("--scene", required=True)
    p.add_argument("--poses", required=True, help="text file, one 'x y z yaw' per line")
    p.add_argument("--out-grid", required=True)
    p.add_argument("--out-bank")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("eval", help="IoU / mIoU between two grids")
    _add_common(p)
    _add_flags(p, _CAMERA_FLAGS)
    p.add_argument("--pred", required=True)
    gt = p.add_mutually_exclusive_group(required=True)
    gt.add_argument("--gt")
    gt.add_argument("--gt-scene")
    p.add_argument("--pose", help="enable the frustum mask for this camera pose")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _settings(args)
        return args.func(args, settings, config_from_mapping(settings))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
