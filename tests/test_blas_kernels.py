"""Outputs do not depend on the OpenBLAS kernel.

The seed-0 frontal room, once as a monocular frame and once as a four-frame
stream, runs in a subprocess under OpenBLAS' default kernel and under
``OPENBLAS_CORETYPE=Haswell``. Labels, frustum masks, bank arrays and every
``FusionStats`` field must be bit-identical; scores agree within 1e-12.

Run as a script, the module writes those outputs to the .npz file it is given.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splatocc as so

ROOT = Path(__file__).resolve().parent.parent
STREAM_YAWS = (-10, 0, 10, 0)
# Compared within this bound; every other output must match bit for bit.
SCORES = ("mono_scores", "mono_metrics", "stream_scores", "stream_metrics")


def _outputs() -> dict:
    cfg = so.PipelineConfig(sampling=so.SamplingConfig(k=16, scale=0.48, stride=4),
                            attributes=so.AttributeConfig(opacity_decay=0.0),
                            fusion=so.FusionConfig(epsilon=0.08, gamma=0.4),
                            tau=0.01, theta_occ=0.6)
    scene, cam = so.generate_frontal_room(0)
    out = {}

    def score(name, pred, gt, mask):
        report = so.iou_miou(so.confusion(pred, gt, mask))
        out[name + "_labels"], out[name + "_scores"] = pred.labels, pred.scores
        out[name + "_metrics"] = np.array([report.iou, report.miou])

    grid = so.frontal_grid(cam)
    out["mono_mask"] = so.frustum_mask(grid, cam)
    pred = so.run_monocular(*so.render_depth(scene, cam), cam, grid, cfg)
    score("mono", pred, so.oracle_occupancy(scene, grid), out["mono_mask"])

    cams = [so.standard_camera(cam.position, yaw_deg=yaw) for yaw in STREAM_YAWS]
    grid = so.scene_grid(scene)
    masks = np.array([so.frustum_mask(grid, c) for c in cams])
    out["stream_masks"], out["stream_union"] = masks, masks.any(axis=0)
    bank, pred = so.run_streaming([(*so.render_depth(scene, c), c) for c in cams], grid, cfg)
    members = bank.to_set()
    for field in ("means", "cov", "opacities", "logits"):
        out["bank_" + field] = getattr(members, field)
    out["fusion_stats"] = np.array([dataclasses.astuple(s) for s in bank.frame_stats])
    score("stream", pred, so.oracle_occupancy(scene, grid), out["stream_union"])
    return out


def _blas_is_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower()


def _run(tmp_path, coretype):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    path = tmp_path / f"{coretype or 'default'}.npz"
    result = subprocess.run([sys.executable, __file__, str(path)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0 and not result.stderr, result.stderr
    with np.load(path) as data:
        return dict(data)


@pytest.mark.skipif(not _blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_outputs_do_not_depend_on_the_openblas_kernel(tmp_path):
    default, haswell = _run(tmp_path, None), _run(tmp_path, "Haswell")
    assert default.keys() == haswell.keys()
    assert default["stream_union"].any() and (default["fusion_stats"][1:, 0] > 0).all()
    for name, value in default.items():
        if name in SCORES:
            np.testing.assert_allclose(haswell[name], value, rtol=0, atol=1e-12, err_msg=name)
        else:
            assert value.dtype == haswell[name].dtype and value.shape == haswell[name].shape, name
            assert value.tobytes() == haswell[name].tobytes(), name


if __name__ == "__main__":
    np.savez(sys.argv[1], **_outputs())
