"""splatocc benchmark: one workload, one closed-loop run, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload mono_rooms --seed 0 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

- ``mono_rooms``: a pool of seeded frontal rooms; one operation is one
  ``run_monocular`` call plus frustum-masked scoring against the exact oracle.
- ``stream_revisit``: a camera panning back and forth over a +-30 degree arc
  in a furnished room; one ``run_streaming`` call per 19-frame pass.
- ``stream_explore``: a camera walking a corridor, one view width per step;
  one ``run_streaming`` call per 10-frame pass.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run, whose spans are also written to
``perfbench/out/``. BLAS/OpenMP threads are capped at the number of usable
cores before numpy loads. The package is imported from ``src/`` of the same
checkout; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009   # kept out of development; re-check claims on it


def cap_threads() -> int:
    """Cap native thread pools at the usable core count; call before numpy
    is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    return cores


def import_package():
    """Import splatocc from this checkout's src/ and nowhere else."""
    if not (SRC / "splatocc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'splatocc'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import splatocc

    if Path(splatocc.__file__).resolve().parent != SRC / "splatocc":
        raise SystemExit(f"perfbench: splatocc was imported from {splatocc.__file__}, not {SRC}")
    return splatocc


def environment(cores: int) -> list:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    caps = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return [f"env nproc = {cores}", f"env thread_caps = {caps}",
            f"env python = {platform.python_version()}", f"env numpy = {np.__version__}",
            f"env blas = {blas}", f"env machine = {platform.machine()} {platform.system()}"]


def fingerprint(data) -> str:
    """Digest of every input the program is handed, to show what a seed changed."""
    frames = ([(f.depth, f.classes, f.cam) for f in data] if isinstance(data, list)
              else data.frames)
    digest = hashlib.sha256()
    for depth, classes, cam in frames:
        digest.update(depth.values.tobytes())
        digest.update(classes.tobytes())
        digest.update(cam.pose.rotation.tobytes() + cam.pose.translation.tobytes())
    return digest.hexdigest()[:16]


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One run; (result dict, lines to print before it)."""
    import measure  # loads numpy: only after cap_threads and import_package
    from spans import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = measure.Tally()
    mono = workload == "mono_rooms"
    if not trace:
        data, setup_s = measure.setup(workload, seed, tiny, 1 if tiny else measure.SETUP_REPEATS)
        timed = (measure.run_mono if mono else measure.run_stream)(data, seconds, tally)
        values, lines = measure.end_to_end(setup_s, timed)
        values["success_rate"] = 1.0 - tally.failed / tally.attempted
        declared = spec["end_to_end"]
    else:
        tracer = Tracer()
        tracer.op = "setup"
        data = measure.BUILDERS[workload](seed, tracer, tiny)
        start = perf_counter()
        reference = (measure.run_mono if mono else measure.run_stream)(data, 0, tally)
        if mono:
            measure.probe_fusion(data, tally, tracer)
        remaining = max(0.0, seconds - (perf_counter() - start))
        (measure.traced_mono if mono else measure.traced_stream)(
            data, remaining, tally, tracer, reference)
        values = measure.per_layer(tracer, reference.frame_s)
        out = HERE / "out" / f"trace-{workload}-seed{seed}.json"
        tracer.write(out)
        lines = [f"spans written to {out.relative_to(ROOT)}"]
        declared = spec["per_layer"]
    if sorted(values) != sorted(m["name"] for m in declared):
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")
    lines += [f"inputs sha256 = {fingerprint(data)}",
              f"error_rate = {tally.failed / tally.attempted:.6f} "
              f"({tally.failed} of {tally.attempted} operations failed)"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    for problem in tally.problems:
        print(f"perfbench: failed check: {problem}", file=sys.stderr)
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mono_rooms", "stream_revisit", "stream_explore"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced inputs and one set-up, for the benchmark's own test")
    args = parser.parse_args(argv)

    cores = cap_threads()
    import_package()
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    for line in environment(cores) + lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
