"""Experiment drivers shared by the CLI and scripts: tracker-variant
comparison and buffer-scale grid search.

Grid and comparison cells are pure functions of (config, sequences), so they
may be evaluated in parallel; results are reduced in a fixed order and equal
the serial ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

from . import metrics, tracker
from .metrics import MetricsReport, SequenceAnnotations
from .tracker import Detection, TrackerConfig

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
    # A pool starts all its workers at the first submit, so it is never made
    # larger than the number of items.
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # Imported on first use, so a serial run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as executor:
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
    if not all(math.isfinite(v) for v in (start, stop, step)) or step <= 0 or stop < start:
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
