"""The benchmark's own test.

Every workload runs at a tiny size, untraced and traced, with every check
passing; corrupted grids, banks and compositions are counted as failed
operations; the command prints every metric by name with its unit; and in a
directory without the package it exits non-zero without a result.

Run from the repository root (it is not part of the package's test suite):

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

so = bench.import_package()
import counts  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("mono_rooms", "stream_revisit", "stream_explore")
END_TO_END = {
    "setup_s": "s", "frame_ms_p50": "ms", "frame_ms_tail": "ms", "frames_per_s": "1/s",
    "scene_grid_ms": "ms", "iou": "ratio", "miou": "ratio", "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = (
    "splatting.splat.ms", "splatting.splat.gaussians", "splatting.splat.cube_pairs",
    "splatting.splat.ellipsoid_pairs", "splatting.splat.pair_yield",
    "splatting.splat.ns_per_pair", "splatting.splat.occupied_voxels",
    "fusion.fuse_frame.ms", "fusion.fuse_frame.us_per_incoming", "fusion.fuse_frame.matched",
    "fusion.fuse_frame.inserted", "fusion.fuse_frame.match_ratio", "fusion.bank.size",
    "fusion.to_set.ms", "spatial_hash.index.cells", "spatial_hash.index.candidates_per_query",
    "spatial_hash.index.candidate_yield", "sampling.volumetric_sample.ms",
    "sampling.volumetric_sample.valid_pixels", "sampling.volumetric_sample.samples",
    "gaussians.heuristic_attributes_batch.ms", "camera.to_world.ms", "gaussians.prune.ms",
    "gaussians.prune.kept", "gaussians.prune.dropped", "pipeline.frame_gaussians.self_ms",
    "scenes.render_depth.ms", "scenes.oracle_occupancy.ms", "metrics.frustum_mask.ms",
    "metrics.confusion.ms", "metrics.iou_miou.ms", "metrics.confusion.evaluated_voxels",
    "trace.overhead_pct",
)


def tiny(workload, trace=False):
    result, _ = bench.run(workload, seed=0, seconds=0, trace=trace, tiny=True)
    return result


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_every_check(workload, trace):
    result = tiny(workload, trace)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
        if metric["unit"] in ("s", "ms", "us", "ns.computed"):
            assert metric["value"] > 0, name  # every layer is timed on every workload


def test_traced_run_splits_work_as_the_workloads_intend():
    mono = tiny("mono_rooms", trace=True)["metrics"]
    revisit = tiny("stream_revisit", trace=True)["metrics"]
    assert mono["splatting.splat.share"]["value"] > 0.5
    assert revisit["fusion.fuse_frame.share"]["value"] > revisit["splatting.splat.share"]["value"]
    # mono_rooms fuses only in the probe outside its measured operations
    assert mono["fusion.fuse_frame.share"]["value"] == 0.0
    assert mono["fusion.fuse_frame.match_ratio"]["value"] == 1.0


def test_computed_counts_match_the_code_they_describe():
    rng = np.random.default_rng(5)
    eps = 0.08
    bank, queries = rng.uniform(0, 1, (3000, 3)), rng.uniform(-0.1, 1.1, (500, 3))
    index = so.SpatialHashGrid(eps)
    index.insert_many(range(len(bank)), bank)
    cells, candidates = counts.hash_counts(bank, queries, eps)
    assert cells == len({index.key(p) for p in bank})
    assert candidates == sum(len(index.candidates(p, eps)) for p in queries)

    n = 60
    rotations = rng.normal(size=(n, 4))
    gset = so.GaussianSet(rng.uniform(0.1, 0.9, (n, 3)), rng.uniform(0.01, 0.06, (n, 3)),
                          rotations / np.linalg.norm(rotations, axis=1, keepdims=True),
                          np.full(n, 0.5), np.zeros((n, 12)), frame="world")
    spec = so.GridSpec((12, 12, 12), 0.08, np.zeros(3))
    offsets = spec.voxel_centers()[None, :, :] - gset.means[:, None, :]
    local = np.matmul(offsets, gset.rotation_matrices()) / gset.scales[:, None, :]
    cube, inside = counts.pair_counts(gset, spec)
    assert inside == int(np.count_nonzero((local ** 2).sum(axis=2) <= 49.0))
    assert inside < cube <= n * spec.num_voxels


def test_tail_ignores_a_spell_over_a_few_repetitions():
    import measure

    inputs = [i % 10 for i in range(120)]
    frame_s = [0.25 + 0.002 * k for k in inputs]
    spell = frame_s[:40] + [0.4] * 12 + frame_s[52:]
    quiet, _, fewest, most = measure.tail(frame_s, inputs)
    assert (fewest, most) == (12, 12)
    assert quiet == pytest.approx(1e3 * frame_s[7])
    assert measure.tail(spell, inputs)[0] == quiet
    assert measure.raw_tail([1e3 * s for s in spell])[0] == pytest.approx(400.0)


def _corrupt_labels(pred):
    pred.labels[0, 0, 0] = pred.spec.num_classes
    return pred


def test_out_of_range_label_fails_mono(monkeypatch):
    real = so.run_monocular
    monkeypatch.setattr(so, "run_monocular", lambda *a, **k: _corrupt_labels(real(*a, **k)))
    result = tiny("mono_rooms")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_out_of_range_score_fails_stream(monkeypatch):
    real = so.run_streaming

    def corrupt(*args, **kwargs):
        bank, pred = real(*args, **kwargs)
        pred.scores[0, 0, 0] = 1.5
        return bank, pred

    monkeypatch.setattr(so, "run_streaming", corrupt)
    result = tiny("stream_explore")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_inconsistent_bank_fails_stream(monkeypatch):
    real = so.run_streaming

    def corrupt(*args, **kwargs):
        bank, pred = real(*args, **kwargs)
        bank.opacities = bank.opacities[:-1]
        return bank, pred

    monkeypatch.setattr(so, "run_streaming", corrupt)
    assert tiny("stream_revisit")["failed"] > 0


def test_bank_losing_a_member_fails_traced_stream(monkeypatch):
    real = so.GaussianMemoryBank.fuse_frame

    def lossy(bank, incoming):
        stats = real(bank, incoming)
        if bank.frame_count == inputs.TINY_EXPLORE_STEPS:  # the last frame
            for name in ("means", "scales", "rotations", "opacities", "logits"):
                setattr(bank, name, getattr(bank, name)[:-1])
        return stats

    monkeypatch.setattr(so.GaussianMemoryBank, "fuse_frame", lossy)
    assert tiny("stream_explore", trace=True)["failed"] > 0


def test_inconsistent_fusion_stats_fail_traced_stream(monkeypatch):
    real = so.GaussianMemoryBank.fuse_frame

    def miscounted(bank, incoming):
        stats = real(bank, incoming)
        return type(stats)(matched=stats.matched + 1, inserted=stats.inserted)

    monkeypatch.setattr(so.GaussianMemoryBank, "fuse_frame", miscounted)
    assert tiny("stream_revisit", trace=True)["failed"] > 0


def test_traced_composition_must_match_entry_point(monkeypatch):
    # The entry point binds splat at import; only the traced composition
    # sees the corrupted one.
    real = so.splat

    def flipped(*args, **kwargs):
        pred = real(*args, **kwargs)
        pred.labels[pred.labels > 0] = 1
        return pred

    monkeypatch.setattr(so, "splat", flipped)
    result = tiny("mono_rooms", trace=True)
    assert not result["correct"] and result["failed"] >= 1


def test_raised_exception_counts_as_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    # Scoring runs inside every measured operation and nowhere in set-up.
    monkeypatch.setattr(so, "confusion", broken)
    result = tiny("mono_rooms")
    assert result["failed"] == result["attempted"] >= 1


def _command(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mono_rooms", "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
def test_command_prints_every_metric_with_its_unit(trace):
    done = _command(bench.ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert set(PER_LAYER) <= set(units)
    else:
        assert units == END_TO_END
    assert "env nproc = " in done.stdout and "error_rate = 0.000000" in done.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    done = _command(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
