"""Experiment drivers shared by the CLI and scripts: tracker-variant
comparison, buffer-scale grid search, and throughput benchmarking.

Grid and comparison cells are pure functions of (config, sequences), so they
may be evaluated in parallel; results are reduced in a fixed order and equal
the serial ones.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

from . import metrics, mot_io, tracker
from .metrics import MetricsReport, SequenceAnnotations
from .tracker import CBiouTracker, Detection, TrackerConfig

VARIANT_ORDER = ("IoU", "GIoU", "DIoU", "BIoU", "C-BIoU", "C-BIoU+motion")


def variant_configs(base: TrackerConfig) -> dict[str, TrackerConfig]:
    """The six ablation variants; they differ only in similarity kind and the
    cascade/motion switches."""
    return {
        "IoU": replace(base, similarity_kind="iou", cascade_enabled=False, motion_enabled=False),
        "GIoU": replace(base, similarity_kind="giou", cascade_enabled=False, motion_enabled=False),
        "DIoU": replace(base, similarity_kind="diou", cascade_enabled=False, motion_enabled=False),
        "BIoU": replace(base, similarity_kind="biou", cascade_enabled=False, motion_enabled=False),
        "C-BIoU": replace(base, similarity_kind="biou", cascade_enabled=True, motion_enabled=False),
        "C-BIoU+motion": replace(
            base, similarity_kind="biou", cascade_enabled=True, motion_enabled=True
        ),
    }


def track_and_evaluate(
    config: TrackerConfig,
    det_seqs: Sequence[Mapping[int, Sequence[Detection]]],
    gt_seqs: Sequence[SequenceAnnotations],
) -> MetricsReport:
    """Run one config over paired sequences and evaluate with pooled counts."""
    if len(det_seqs) != len(gt_seqs):
        raise ValueError(f"got {len(det_seqs)} detection sequences for {len(gt_seqs)} gt sequences")
    pairs = []
    for dets, gt in zip(det_seqs, gt_seqs):
        outputs = tracker.run_sequence(config, dets)
        pairs.append((gt, SequenceAnnotations.from_frame_outputs(outputs)))
    return metrics.evaluate_many(pairs)


def _pool_map(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        return list(executor.map(fn, items))


def run_compare(
    base: TrackerConfig,
    det_seqs: Sequence[Mapping[int, Sequence[Detection]]],
    gt_seqs: Sequence[SequenceAnnotations],
    jobs: int = 1,
) -> dict[str, MetricsReport]:
    """Evaluate the six tracker variants on the same inputs."""
    configs = variant_configs(base)
    ordered = [configs[name] for name in VARIANT_ORDER]
    reports = _pool_map(partial(track_and_evaluate, det_seqs=det_seqs, gt_seqs=gt_seqs), ordered, jobs)
    return dict(zip(VARIANT_ORDER, reports))


def enumerate_buffer_grid(start: float, stop: float, step: float) -> list[tuple[float, float]]:
    """All (b1, b2) with b1 < b2 over the inclusive range, b1-major order."""
    if step <= 0 or stop < start:
        raise ValueError(f"invalid grid range {start}:{stop}:{step}")
    count = int(round((stop - start) / step)) + 1
    values = [round(start + i * step, 10) for i in range(count)]
    return [(values[i], values[j]) for i in range(count) for j in range(i + 1, count)]


@dataclass(frozen=True)
class GridResult:
    scores: tuple[tuple[float, float, MetricsReport], ...]  # (b1, b2, report)
    best: tuple[float, float]
    best_hota: float


def run_grid(
    base: TrackerConfig,
    det_seqs: Sequence[Mapping[int, Sequence[Detection]]],
    gt_seqs: Sequence[SequenceAnnotations],
    combos: Sequence[tuple[float, float]],
    jobs: int = 1,
) -> GridResult:
    """Evaluate every buffer combination; ties go to the smaller (b1, b2)."""
    if not combos:
        raise ValueError("empty buffer grid")
    configs = [replace(base, b1=b1, b2=b2, similarity_kind="biou", cascade_enabled=True) for b1, b2 in combos]
    reports = _pool_map(partial(track_and_evaluate, det_seqs=det_seqs, gt_seqs=gt_seqs), configs, jobs)
    scores = tuple((b1, b2, report) for (b1, b2), report in zip(combos, reports))
    best_idx = 0
    for i in range(1, len(scores)):
        if scores[i][2].hota > scores[best_idx][2].hota:
            best_idx = i
    best = (scores[best_idx][0], scores[best_idx][1])
    return GridResult(scores=scores, best=best, best_hota=scores[best_idx][2].hota)


@dataclass(frozen=True)
class BenchResult:
    frames: int
    objects: int
    elapsed_s: float
    fps: float
    updates_per_s: float
    output_digest: str


def run_bench(
    config: TrackerConfig,
    detections_by_frame: Mapping[int, Sequence[Detection]],
    num_objects: int,
) -> BenchResult:
    """Time the tracker stepping loop only; detection lists are materialized
    up front and no I/O happens in the timed region."""
    frames = sorted(detections_by_frame)
    if not frames:
        raise ValueError("benchmark workload has no frames")
    frame_range = list(range(frames[0], frames[-1] + 1))
    det_lists = [list(detections_by_frame.get(f, ())) for f in frame_range]
    trk = CBiouTracker(config)
    start = time.perf_counter()
    outputs = [trk.step(f, dets) for f, dets in zip(frame_range, det_lists)]
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256("".join(mot_io.result_lines(outputs)).encode("utf-8")).hexdigest()
    n = len(frame_range)
    return BenchResult(
        frames=n,
        objects=num_objects,
        elapsed_s=elapsed,
        fps=n / elapsed,
        updates_per_s=num_objects * n / elapsed,
        output_digest=digest,
    )
