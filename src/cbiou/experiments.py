"""Experiment drivers shared by the CLI and scripts: tracker-variant
comparison and buffer-scale grid search.

A call turns each detection sequence into a table of rows, a
``geometry.BoxTable``, once, and tracks all its cells, one config each,
over every table with one ``tracker.track_cells`` run: the cells step the
table's frames in lockstep, and each similarity matrix scores the tracks of
every cell with the same (kind, buffer) at once. Each sequence is then
aligned once against the table rows the cells admit
(``metrics.align_sequence``). Every cell reports each of those rows once,
matched or born, in its own order, so each cell's alignment is that pass
with its rows renumbered (``metrics.align_cell``), and each cell's
sequences are evaluated with pooled counts, exactly as
``track_and_evaluate``, the one-config case, evaluates its own. No cell
builds prediction labels. A call needs at least one sequence.

With ``jobs > 1`` the cells are split into ``min(jobs, cells, CPUs)``
contiguous chunks; each chunk is one lockstep task in a process pool, which
carries the tables' arrays once, and the reports are reduced in cell order,
equal to the serial ones.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from . import metrics, tracker
from .geometry import BoxTable
from .metrics import MetricsReport
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
    det_seqs: Sequence[BoxTable | Mapping[int, Sequence[Detection]]],
    gt_seqs: Sequence[BoxTable],
) -> MetricsReport:
    """Run one config over paired sequences and evaluate with pooled counts.

    Each detection sequence is a ``BoxTable`` or a per-frame ``Detection``
    mapping; the tracker's rows are the predictions, evaluated off the
    table as a sweep's cells are.
    """
    return _evaluate_cells([config], _tables(det_seqs, gt_seqs), gt_seqs)[0]


def _evaluate_cells(
    configs: Sequence[TrackerConfig], det_seqs: Sequence[BoxTable], gt_seqs: Sequence[BoxTable]
) -> list[MetricsReport]:
    """Track every config over each table in lockstep, and evaluate each
    config's rows over all sequences with pooled counts."""
    tables: list[list] = [[] for _ in configs]
    for table, gt in zip(det_seqs, gt_seqs):
        results = tracker.track_cells(configs, table)
        # The cells share det_conf_min, and each reports every row it admits once.
        admitted = np.flatnonzero(table.confidence >= configs[0].det_conf_min)
        sequence = metrics.align_sequence(gt, table.row_frames[admitted], table.xyxy[admitted])
        for cell, (_frames, tids, rows) in zip(tables, results):
            cell.append(metrics.align_cell(sequence, tids, np.searchsorted(admitted, rows)))
    return [metrics.pooled_report(cell) for cell in tables]


def _tables(det_seqs, gt_seqs) -> list[BoxTable]:
    """Each detection sequence as a table, built once for all of a call's
    cells; there must be one per ground-truth sequence, and at least one."""
    if len(det_seqs) != len(gt_seqs):
        raise ValueError(f"got {len(det_seqs)} detection sequences for {len(gt_seqs)} gt sequences")
    if not gt_seqs:
        raise ValueError("no sequences to evaluate")
    return [dets if isinstance(dets, BoxTable) else tracker.detection_table(dets) for dets in det_seqs]


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


def _run_cells(configs, det_seqs, gt_seqs, jobs: int) -> list[MetricsReport]:
    """Each config's report, in order: one lockstep task per contiguous chunk
    of the configs, ``min(jobs, len(configs), os.cpu_count())`` of them: a
    pool forks every worker at its first submit."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    count = min(jobs, len(configs), os.cpu_count() or 1)
    ends = [len(configs) * (i + 1) // count for i in range(count)]
    chunks = [configs[lo:hi] for lo, hi in zip([0, *ends], ends)]
    task = partial(_evaluate_cells, det_seqs=_tables(det_seqs, gt_seqs), gt_seqs=gt_seqs)
    return [report for reports in _pool_map(task, chunks, jobs) for report in reports]


def run_compare(
    base: TrackerConfig,
    det_seqs: Sequence[BoxTable | Mapping[int, Sequence[Detection]]],
    gt_seqs: Sequence[BoxTable],
    jobs: int = 1,
) -> dict[str, MetricsReport]:
    """Evaluate the six tracker variants on the same inputs."""
    configs = variant_configs(base)
    reports = _run_cells([configs[name] for name in VARIANT_ORDER], det_seqs, gt_seqs, jobs)
    return dict(zip(VARIANT_ORDER, reports))


# Every (b1, b2) pair is a full tracking and evaluation run over every
# sequence, and the pair list is built before the first run, with about
# count**2 / 2 entries. 200 values (19,900 runs) is far past any useful search;
# a finer range, such as 0:1:1e-6 (5e11 pairs), would exhaust memory first.
MAX_GRID_VALUES = 200
# A step count within this of the next integer reaches it: (stop - start) / step
# errs by below 1e-13 within MAX_GRID_VALUES (0.1:0.7:0.1 reads 5.999999999999999).
GRID_STEP_TOLERANCE = 1e-9


def enumerate_buffer_grid(start: float, stop: float, step: float) -> list[tuple[float, float]]:
    """All (b1, b2) with b1 < b2 over the inclusive range, b1-major order:
    the values are start, start + step, ... up to stop, never past it."""
    if not all(math.isfinite(v) for v in (start, stop, step)) or step <= 0 or stop < start:
        raise ValueError(f"invalid grid range {start}:{stop}:{step}")
    steps = (stop - start) / step  # inf for a range too wide for float64
    count = math.floor(steps + GRID_STEP_TOLERANCE) + 1 if math.isfinite(steps) else math.inf
    if count > MAX_GRID_VALUES:
        raise ValueError(
            f"grid range {start}:{stop}:{step} has {count} values, more than {MAX_GRID_VALUES}"
        )
    values = [round(start + i * step, 10) for i in range(count)]
    return [(values[i], values[j]) for i in range(count) for j in range(i + 1, count)]


@dataclass(frozen=True)
class GridResult:
    scores: tuple[tuple[float, float, MetricsReport], ...]  # (b1, b2, report)
    best_config: TrackerConfig  # the best cell's config, as run
    best_hota: float


def run_grid(
    base: TrackerConfig,
    det_seqs: Sequence[BoxTable | Mapping[int, Sequence[Detection]]],
    gt_seqs: Sequence[BoxTable],
    combos: Sequence[tuple[float, float]],
    jobs: int = 1,
) -> GridResult:
    """Evaluate every buffer combination of cascaded BIoU over ``base``'s
    other fields; ties go to the smaller (b1, b2)."""
    if not combos:
        raise ValueError("empty buffer grid")
    configs = [replace(base, b1=b1, b2=b2, similarity_kind="biou", cascade_enabled=True) for b1, b2 in combos]
    reports = _run_cells(configs, det_seqs, gt_seqs, jobs)
    scores = tuple((b1, b2, report) for (b1, b2), report in zip(combos, reports))
    best_idx = min(range(len(scores)), key=lambda i: (-reports[i].hota, scores[i][:2]))
    return GridResult(scores=scores, best_config=configs[best_idx], best_hota=reports[best_idx].hota)
