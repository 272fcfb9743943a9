"""Untraced and traced runs of one workload.

The untraced phase calls only the entry points ``run_monocular`` and
``run_streaming`` and gives the end-to-end metrics. The traced phase is a
separate run: it first makes one untraced pass as the reference, then
composes the same result layer by layer, with a span around every call,
and gives the per-layer metrics. Both are one closed loop: one caller,
the next operation starts when the previous one returned.
"""

from __future__ import annotations

import math
import operator
import resource
import sys
import traceback
from collections import defaultdict
from functools import reduce
from statistics import median
from time import perf_counter

import numpy as np
import splatocc as so

import checks
import counts
import inputs
from inputs import CONFIG
from spans import NullTracer, Tracer

SETUP_REPEATS = 5
TAIL_PCT = 80
FUSION_PROBES = 3
BUILDERS = {
    "mono_rooms": inputs.mono_rooms,
    "stream_revisit": inputs.stream_revisit,
    "stream_explore": inputs.stream_explore,
}
# Root spans of measured operations (setup spans are roots too).
OP_ROOTS = ("frame", "scene_grid", "score")


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems, ops: int = 1) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            for p in problems:
                if p not in self.problems and len(self.problems) < 20:
                    self.problems.append(p)


def _failure(exc) -> list:
    traceback.print_exc(file=sys.stderr)
    return [f"{type(exc).__name__}: {exc}"]


def tail(frame_s, inputs):
    """The TAIL_PCT percentile of the frames, each frame timed as the median
    of its input's repetitions (a scene of the mono pool, or a frame's
    position in a stream pass); (ms, frames beyond it, fewest and most
    repetitions of an input). A slow spell of a shared host hits some
    repetitions of an input and not their median, while the raw frames'
    highest percentile moves with every such spell."""
    if not frame_s:
        return 0.0, 0, 0, 0
    groups = defaultdict(list)
    for s, key in zip(frame_s, inputs):
        groups[key].append(1e3 * s)
    typical = sorted(median(groups[key]) for key in inputs)
    value = typical[math.ceil(TAIL_PCT / 100 * len(typical)) - 1]
    reps = [len(g) for g in groups.values()]
    return value, sum(x > value for x in typical), min(reps), max(reps)


def raw_tail(values):
    """(value, percentile, samples beyond) of the highest percentile of the
    raw frames that has at least ten samples above it; the maximum when
    there are fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _pulled(frames, marks):
    """Hand out frames, noting the time of every pull run_streaming makes."""
    for frame in frames:
        marks.append(perf_counter())
        yield frame
    marks.append(perf_counter())


def setup(workload: str, seed: int, tiny: bool, repeats: int = SETUP_REPEATS):
    """Build the inputs and warm up, ``repeats`` times; (inputs, median s)."""
    seconds = []
    for _ in range(repeats):
        start = perf_counter()
        data = BUILDERS[workload](seed, NullTracer(), tiny)
        if workload == "mono_rooms":
            f = data[0]
            so.run_monocular(f.depth, f.classes, f.cam, f.grid, CONFIG)
        else:
            so.run_streaming(data.frames[:1], data.grid, CONFIG)
        seconds.append(perf_counter() - start)
    return data, median(seconds)


class Timings:
    def __init__(self):
        self.frame_s = []     # one entry per frame
        self.inputs = []      # per frame: its scene, or its position in the pass
        self.grid_s = []      # last input handed over -> grid returned
        self.busy_s = 0.0     # time inside the measured calls
        self.counts = None    # confusion counts behind iou / miou
        self.labels = []      # labels of the first result, per mono scene or per stream
        self.bank_size = None


def run_mono(pool, seconds: float, tally: Tally) -> Timings:
    """run_monocular plus scoring, cycling the pool; every scene runs at
    least once, and IoU/mIoU pool each scene's counts once."""
    out = Timings()
    out.labels = [None] * len(pool)
    scored = {}
    deadline = perf_counter() + seconds
    i = 0
    while i < len(pool) or perf_counter() < deadline:
        k = i % len(pool)
        f = pool[k]
        i += 1
        try:
            t0 = perf_counter()
            pred = so.run_monocular(f.depth, f.classes, f.cam, f.grid, CONFIG)
            t1 = perf_counter()
            cc = so.confusion(pred, f.gt, f.mask)
            report = so.iou_miou(cc)
            t2 = perf_counter()
            problems = checks.grid(pred, f.grid) + checks.mono_iou(report)
        except Exception as exc:  # a failed operation; the run goes on
            tally.record(_failure(exc))
            continue
        tally.record(problems)
        out.frame_s.append(t2 - t0)
        out.inputs.append(k)
        out.grid_s.append(t1 - t0)
        out.busy_s += t2 - t0
        scored.setdefault(k, cc)
        if out.labels[k] is None:
            out.labels[k] = pred.labels.copy()
    if scored:
        out.counts = reduce(operator.add, scored.values())
    return out


def run_stream(stream, seconds: float, tally: Tally) -> Timings:
    """Whole run_streaming calls, repeated until ``seconds`` have passed;
    one operation per frame. A pass whose result fails a check fails all
    its frames. Every pass must reproduce the first pass's result."""
    out = Timings()
    n = len(stream.frames)
    deadline = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        passes += 1
        marks = []
        try:
            t0 = perf_counter()
            bank, pred = so.run_streaming(_pulled(stream.frames, marks), stream.grid, CONFIG)
            t1 = perf_counter()
            problems = checks.grid(pred, stream.grid) + checks.bank(bank, n)
            if out.labels:
                problems += checks.same_result(pred, len(bank), out.labels[0], out.bank_size)
            else:
                out.labels, out.bank_size = [pred.labels.copy()], len(bank)
                out.counts = so.confusion(pred, stream.gt, stream.mask)
        except Exception as exc:  # a failed operation; the run goes on
            tally.record(_failure(exc), ops=n)
            continue
        tally.record(problems, ops=n)
        out.frame_s.extend(np.diff(marks))
        out.inputs.extend(range(len(marks) - 1))
        out.grid_s.append(t1 - marks[-1])
        out.busy_s += t1 - t0
    return out


def end_to_end(setup_s: float, t: Timings) -> tuple:
    """The end-to-end metrics and the lines that describe them."""
    frame_ms = [1e3 * s for s in t.frame_s] or [0.0]
    tail_ms, beyond, fewest, most = tail(t.frame_s, t.inputs)
    raw_ms, raw_pct, raw_beyond = raw_tail(frame_ms)
    report = so.iou_miou(t.counts) if t.counts is not None else None
    metrics = {
        "setup_s": setup_s,
        "frame_ms_p50": median(frame_ms),
        "frame_ms_tail": tail_ms,
        "frames_per_s": len(t.frame_s) / t.busy_s if t.busy_s else 0.0,
        "scene_grid_ms": 1e3 * median(t.grid_s) if t.grid_s else 0.0,
        "iou": report.iou if report else 0.0,
        "miou": report.miou if report else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"frame_ms_tail is p{TAIL_PCT} of {len(t.frame_s)} frames, each timed as the median "
             f"of its input's {fewest}-{most} repetitions ({beyond} beyond it)",
             f"raw frame tail is {raw_ms:.1f} ms, p{raw_pct:.1f} of {len(t.frame_s)} frames "
             f"({raw_beyond} beyond it), host noise included"]
    return metrics, notes


# --- traced phase -----------------------------------------------------------

def frame_gaussians(tracer, depth, classes, cam):
    """pipeline.frame_gaussians, one span per layer call."""
    cfg = CONFIG
    with tracer.span("pipeline.frame_gaussians"):
        classes = np.asarray(classes)
        if classes.shape != depth.values.shape:
            raise ValueError("class map shape must match the depth map")
        with tracer.span("sampling.volumetric_sample") as sample_span:
            batch = so.volumetric_sample(depth, cam, cfg.sampling)
        cols = batch.pixels[:, 0].astype(np.int64)
        rows = batch.pixels[:, 1].astype(np.int64)
        labels = classes[rows, cols]
        with tracer.span("gaussians.heuristic_attributes_batch"):
            gaussians = so.heuristic_attributes_batch(batch, labels, cfg.attributes)
        with tracer.span("camera.to_world"):
            gaussians = so.to_world(cam, gaussians)
        with tracer.span("gaussians.prune") as prune_span:
            kept = so.prune(gaussians, cfg.tau)
    sample_span.counts.update(samples=len(batch), valid_pixels=len(batch) // cfg.sampling.k)
    prune_span.counts.update(kept=len(kept), dropped=len(gaussians) - len(kept))
    return kept


def _splat(tracer, gset, spec):
    with tracer.span("splatting.splat") as span:
        pred = so.splat(gset, spec, theta_occ=CONFIG.theta_occ)
    span.counts.update(gaussians=len(gset), occupied_voxels=int(np.count_nonzero(pred.labels)))
    return pred, span


def _count_pairs(span, gset, spec):
    span.counts["cube_pairs"], span.counts["ellipsoid_pairs"] = counts.pair_counts(gset, spec)


def _fusion_counts(span, gset, stats, before):
    """Counts at a fuse_frame boundary; the 27-cell candidates when the bank
    means it was fused into (``before``) are given."""
    span.counts.update(incoming=len(gset), matched=stats.matched, inserted=stats.inserted)
    if before is not None and len(before):
        _, span.counts["candidates"] = counts.hash_counts(before, gset.means, CONFIG.fusion.epsilon)


def _bank_counts(span, members, with_cells: bool):
    span.counts["bank_size"] = len(members)
    if with_cells:
        span.counts["cells"], _ = counts.hash_counts(members.means, [], CONFIG.fusion.epsilon)


def _score(tracer, pred, gt, mask):
    with tracer.span("metrics.confusion") as span:
        cc = so.confusion(pred, gt, mask)
    with tracer.span("metrics.iou_miou"):
        report = so.iou_miou(cc)
    span.counts["evaluated_voxels"] = cc.evaluated
    return report


def probe_fusion(pool, tally, tracer, probes: int = FUSION_PROBES):
    """mono_rooms never fuses. So that its traced run still measures the
    fusion layer on its inputs, fuse the Gaussians of a few of its frames
    into a bank that already holds that frame (43.2k into 43.2k, all
    matching). These spans are outside every measured operation."""
    for k, f in enumerate(pool[:probes]):
        tracer.op = f"fusion-probe-{k}"
        try:
            gset = so.frame_gaussians(f.depth, f.classes, f.cam, CONFIG)
            bank = so.GaussianMemoryBank(CONFIG.attributes.num_classes, CONFIG.fusion)
            bank.fuse_frame(gset)
            before = bank.means.copy()
            with tracer.span("fusion.fuse_frame") as span:
                stats = bank.fuse_frame(gset)
            _fusion_counts(span, gset, stats, before)
            with tracer.span("fusion.to_set") as span:
                members = bank.to_set()
            _bank_counts(span, members, with_cells=True)
            problems = checks.fusion_stats(stats, len(gset)) + checks.bank(bank, 2)
            if len(bank) != len(gset):
                problems.append(f"bank size {len(bank)} != {len(gset)} inserted")
        except Exception as exc:  # a failed operation; the run goes on
            problems = _failure(exc)
        tally.record(problems)


def traced_mono(pool, seconds, tally, tracer, reference):
    pairs_done = set()
    deadline = perf_counter() + seconds
    i = 0
    while i < len(pool) or perf_counter() < deadline:
        k = i % len(pool)
        f = pool[k]
        tracer.op = i
        i += 1
        try:
            with tracer.span("frame"):
                gset = frame_gaussians(tracer, f.depth, f.classes, f.cam)
                pred, splat_span = _splat(tracer, gset, f.grid)
                report = _score(tracer, pred, f.gt, f.mask)
            if k not in pairs_done:
                pairs_done.add(k)
                _count_pairs(splat_span, gset, f.grid)
            problems = (checks.grid(pred, f.grid) + checks.mono_iou(report)
                        + checks.same_result(pred, None, reference.labels[k], None))
        except Exception as exc:  # a failed operation; the run goes on
            problems = _failure(exc)
        tally.record(problems)


def traced_stream(stream, seconds, tally, tracer, reference):
    """Drive the bank by hand as run_streaming does. The first pass also
    computes the spatial-hash and pair counts (same for every pass)."""
    n = len(stream.frames)
    deadline = perf_counter() + seconds
    op = passes = 0
    while passes == 0 or perf_counter() < deadline:
        first = passes == 0
        passes += 1
        try:
            bank = so.GaussianMemoryBank(CONFIG.attributes.num_classes, CONFIG.fusion)
            frame_problems, inserted = [], 0
            for depth, classes, cam in stream.frames:
                tracer.op = op
                op += 1
                before = bank.means.copy() if first else None
                with tracer.span("frame"):
                    gset = frame_gaussians(tracer, depth, classes, cam)
                    with tracer.span("fusion.fuse_frame") as span:
                        stats = bank.fuse_frame(gset)
                _fusion_counts(span, gset, stats, before)
                frame_problems.append(checks.fusion_stats(stats, len(gset)))
                inserted += stats.inserted
            tracer.op = op
            op += 1
            with tracer.span("scene_grid"):
                with tracer.span("fusion.to_set") as span:
                    members = bank.to_set()
                pred, splat_span = _splat(tracer, members, stream.grid)
            _bank_counts(span, members, with_cells=first)
            if first:
                _count_pairs(splat_span, members, stream.grid)
            with tracer.span("score"):
                _score(tracer, pred, stream.gt, stream.mask)
            pass_problems = checks.grid(pred, stream.grid) + checks.bank(bank, n)
            if len(bank) != inserted:
                pass_problems.append(f"bank size {len(bank)} != {inserted} inserted")
            pass_problems += checks.same_result(pred, len(bank), reference.labels[0],
                                                reference.bank_size)
        except Exception as exc:  # a failed operation; the run goes on
            tally.record(_failure(exc), ops=n)
            continue
        for problems in frame_problems:
            tally.record(problems + pass_problems)


def per_layer(tracer: Tracer, untraced_frame_s) -> dict:
    """Per-layer metrics from the spans: medians per call of self time and
    of the counts, ratios over the whole run. Shares count only measured
    operations, so the fusion probe of mono_rooms is not in them."""
    self_ns = tracer.self_ns()

    def spans(name):
        return tracer.by_name(name)

    def ms(name):
        xs = [self_ns[s.id] for s in spans(name)]
        return median(xs) / 1e6 if xs else 0.0

    def count(name, key):
        xs = [s.counts[key] for s in spans(name) if key in s.counts]
        return float(median(xs)) if xs else 0.0

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans(name))

    def ratio(num, den):
        return num / den if den else 0.0

    roots = [s for s in tracer.spans if s.parent is None and s.name in OP_ROOTS]
    measured_ops = {s.op for s in roots}
    ops_ns = sum(s.ns for s in roots)

    def share(name):
        return ratio(sum(self_ns[s.id] for s in spans(name) if s.op in measured_ops), ops_ns)

    paired = [s for s in spans("splatting.splat") if "cube_pairs" in s.counts]
    fuses = spans("fusion.fuse_frame")
    queried = [s for s in fuses if "candidates" in s.counts]
    traced_ms = median(s.ns / 1e6 for s in spans("frame")) if spans("frame") else 0.0
    untraced_ms = 1e3 * median(untraced_frame_s) if len(untraced_frame_s) else 0.0
    return {
        "splatting.splat.ms": ms("splatting.splat"),
        "splatting.splat.share": share("splatting.splat"),
        "splatting.splat.gaussians": count("splatting.splat", "gaussians"),
        "splatting.splat.cube_pairs": count("splatting.splat", "cube_pairs"),
        "splatting.splat.ellipsoid_pairs": count("splatting.splat", "ellipsoid_pairs"),
        "splatting.splat.pair_yield": ratio(sum(s.counts["ellipsoid_pairs"] for s in paired),
                                            sum(s.counts["cube_pairs"] for s in paired)),
        "splatting.splat.ns_per_pair": (median(self_ns[s.id] / s.counts["cube_pairs"] for s in paired)
                                        if paired else 0.0),
        "splatting.splat.occupied_voxels": count("splatting.splat", "occupied_voxels"),
        "fusion.fuse_frame.ms": ms("fusion.fuse_frame"),
        "fusion.fuse_frame.share": share("fusion.fuse_frame"),
        "fusion.fuse_frame.us_per_incoming": ratio(sum(self_ns[s.id] for s in fuses) / 1e3,
                                                   total("fusion.fuse_frame", "incoming")),
        "fusion.fuse_frame.matched": count("fusion.fuse_frame", "matched"),
        "fusion.fuse_frame.inserted": count("fusion.fuse_frame", "inserted"),
        "fusion.fuse_frame.match_ratio": ratio(total("fusion.fuse_frame", "matched"),
                                               total("fusion.fuse_frame", "incoming")),
        "fusion.bank.size": count("fusion.to_set", "bank_size"),
        "fusion.to_set.ms": ms("fusion.to_set"),
        "spatial_hash.index.cells": count("fusion.to_set", "cells"),
        "spatial_hash.index.candidates_per_query": ratio(
            sum(s.counts["candidates"] for s in queried), sum(s.counts["incoming"] for s in queried)),
        "spatial_hash.index.candidate_yield": ratio(
            sum(s.counts["matched"] for s in queried), sum(s.counts["candidates"] for s in queried)),
        "sampling.volumetric_sample.ms": ms("sampling.volumetric_sample"),
        "sampling.volumetric_sample.valid_pixels": count("sampling.volumetric_sample", "valid_pixels"),
        "sampling.volumetric_sample.samples": count("sampling.volumetric_sample", "samples"),
        "gaussians.heuristic_attributes_batch.ms": ms("gaussians.heuristic_attributes_batch"),
        "camera.to_world.ms": ms("camera.to_world"),
        "gaussians.prune.ms": ms("gaussians.prune"),
        "gaussians.prune.kept": count("gaussians.prune", "kept"),
        "gaussians.prune.dropped": count("gaussians.prune", "dropped"),
        "pipeline.frame_gaussians.self_ms": ms("pipeline.frame_gaussians"),
        "scenes.render_depth.ms": ms("scenes.render_depth"),
        "scenes.oracle_occupancy.ms": ms("scenes.oracle_occupancy"),
        "metrics.frustum_mask.ms": ms("metrics.frustum_mask"),
        "metrics.confusion.ms": ms("metrics.confusion"),
        "metrics.confusion.evaluated_voxels": count("metrics.confusion", "evaluated_voxels"),
        "metrics.iou_miou.ms": ms("metrics.iou_miou"),
        "trace.frame_ms_p50": traced_ms,
        "trace.untraced_frame_ms_p50": untraced_ms,
        "trace.overhead_pct": ratio(100.0 * (traced_ms - untraced_ms), untraced_ms),
        "trace.spans": float(len(tracer.spans)),
    }
