"""Tracking evaluation: HOTA (with DetA/AssA), CLEAR-MOT accuracy, and IDF1.

All metrics consume two per-frame labelings (ground truth and predictions)
of (identity, box) pairs, each a ``geometry.BoxTable``: the rows of one
sequence as arrays, grouped by frame, whose confidence column the metrics do
not read. Scores are single-sequence; to evaluate several sequences
together, pool them with ``evaluate_many`` which merges them onto disjoint
frame/identity ranges so raw counts pool rather than ratios average.

Alignment has two parts, so that the cells of a sweep, which all take their
predictions from the rows of one table of boxes per sequence, share the
sequence's part. ``align_sequence`` takes the ground truth and such a table:
every (gt row, table row) cell of every frame with rows on both sides gets
its IoU in one vectorised pass per chunk of frames (at most ``_CHUNK_CELLS``
cells), and the positive cells are kept as flat arrays in (frame, gt row,
table row) order, each with its frame's conflict level: the largest
second-highest IoU over the frame's rows and columns. A frame whose level is
above 0 has a row or column with two positive cells, and keeps a dense IoU
matrix. Every label box has a positive area, so every IoU is finite.
``align_cell`` takes one cell's predictions: every table row once, in the
cell's own order but still grouped by frame, with their identities. So each
frame's predictions are its table rows and its level is the table's; the
cell only renumbers the prediction side, re-sorts the cells into (frame, gt
row, pred row) order and moves each conflict matrix's columns. ``evaluate``
is the one-cell case: the predictions are their own table, in table order.
``pooled_report`` joins several sequences' tables as ``pool_sequences``
joins their labels, and ``clear_mota`` and ``idf1`` (at ``IOU_THRESHOLD``)
and ``hota`` (over the fixed grid ``ALPHAS``) each take the joined table.

Every matching follows one rule. Above a frame's conflict level no row or
column holds two passing pairs, so the passing pairs form a matching; since
each of them scores more than every other entry, every optimal assignment
contains exactly them. So a cell is matched directly at every threshold that
lies above its frame's level and that its IoU passes: at ``IOU_THRESHOLD``
in a frame without a conflict, for CLEAR, and at each such alpha, for HOTA.
Only conflict frames are solved: by ``gated_match`` for CLEAR, and by
``solve`` for HOTA at the alphas up to the frame's level. ``hota`` counts
every match, direct or solved, as one (id pair, alpha) slot.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import assignment, geometry
from .geometry import BoxTable, LabelOverflowError, sorted_unique

ALPHAS: tuple[float, ...] = tuple(i / 20 for i in range(1, 20))
IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class MetricsReport:
    """The reported metric columns plus the raw CLEAR counts behind MOTA."""

    hota: float
    deta: float
    assa: float
    mota: float
    idf1: float
    tp: int
    fn: int
    fp: int
    idsw: int
    gt_total: int
    per_alpha: tuple[tuple[float, float, float, float], ...]  # (alpha, hota, deta, assa)


# Largest number of cells whose IoU one vectorised pass computes. The pass
# peaks at about 170 bytes per cell (the row indices, both sides' gathered
# coordinate rows and the IoU's temporaries), so this bounds it near 1 MB
# whatever the sequence; a frame with more cells gets a pass of its own.
_CHUNK_CELLS = 4096
_ALPHA_GRID = np.asarray(ALPHAS)
_ALPHA_COLUMNS = np.arange(len(ALPHAS))
_INT64_MAX = np.iinfo(np.int64).max


class _Conflict(NamedTuple):
    """A frame with a row or column holding two positive IoUs: its first row
    on each side, its IoU matrix and its conflict level."""

    gt_start: int
    pred_start: int
    sim: np.ndarray
    level: float


@dataclass(frozen=True)
class _Table:
    """What every metric of one (gt, pred) pair reads.

    ``gt_ids`` holds each gt row's identity, which only pooling reads,
    ``gt_index`` its place among the distinct gt ids, and ``gt_presence``
    counts the rows of each distinct id; ``pred_ids``, ``pred_index`` and
    ``pred_presence`` do the same for predictions. ``gt_rows``,
    ``pred_rows``, ``pairs`` and ``iou`` describe the cells with a positive
    IoU in frames with boxes on both sides, in (frame, gt row, pred row)
    order: the row on each side, the pair of their id places as
    ``gt place * len(pred_presence) + pred place``, and the IoU. ``level``
    gives each cell its frame's conflict level: 0 in a frame without a
    conflict, and above 0 in one of the frames of ``conflicts``, which are
    in frame order. ``gt_total`` and ``pred_total`` count each side's rows.
    """

    gt_ids: np.ndarray
    gt_index: np.ndarray
    gt_presence: np.ndarray
    pred_ids: np.ndarray
    pred_index: np.ndarray
    pred_presence: np.ndarray
    gt_rows: np.ndarray
    pred_rows: np.ndarray
    iou: np.ndarray
    level: np.ndarray
    conflicts: tuple[_Conflict, ...]

    @cached_property
    def pairs(self) -> np.ndarray:
        return self.gt_index[self.gt_rows] * len(self.pred_presence) + self.pred_index[self.pred_rows]

    @property
    def gt_total(self) -> int:
        return len(self.gt_ids)

    @property
    def pred_total(self) -> int:
        return len(self.pred_ids)


class _Overlaps(NamedTuple):
    """What every cell of one sequence shares: the ground truth ``gt`` with
    its ``_id_index``, and the alignment of ``gt`` against a table of
    ``table_size`` prediction boxes, as ``_Table`` holds it with table rows
    in place of prediction rows: ``gt_rows``, ``table_rows``, ``iou``,
    ``level`` and ``conflicts``."""

    gt: BoxTable
    gt_id_index: tuple[np.ndarray, np.ndarray]
    table_size: int
    gt_rows: np.ndarray
    table_rows: np.ndarray
    iou: np.ndarray
    level: np.ndarray
    conflicts: tuple[_Conflict, ...]


def _id_index(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's place among the distinct ids, and the rows of each."""
    index = np.searchsorted(sorted_unique(ids), ids)
    return index, np.bincount(index)


def _frame_cells(gt_xyxy, pred_xyxy, gt_starts, pred_starts, widths, cells):
    """Every cell of a run of frames, as (frame, gt row, pred row, IoU), where
    frames are numbered within the run and each frame's cells come gt row
    by gt row."""
    frame = np.repeat(np.arange(len(cells)), cells)
    offset = np.arange(len(frame)) - np.repeat(np.cumsum(cells) - cells, cells)
    row, col = np.divmod(offset, widths[frame])
    gt_rows = gt_starts[frame] + row
    pred_rows = pred_starts[frame] + col
    # Each side's boxes are gathered once, as (4, C) coordinate rows:
    # paired_iou reads their (C, 4) transposes in place.
    gt_boxes, pred_boxes = gt_xyxy.T.take(gt_rows, 1).T, pred_xyxy.T.take(pred_rows, 1).T
    return frame, gt_rows, pred_rows, geometry.paired_iou(gt_boxes, pred_boxes)


def align_sequence(gt: BoxTable, table_frames: np.ndarray, table_xyxy: np.ndarray) -> _Overlaps:
    """The part of alignment every cell of a sequence shares: ``gt`` against
    a table of prediction boxes, each row's frame in ``table_frames``
    (grouped ascending, as labels are) and its corners in ``table_xyxy``."""
    # Frames with rows on both sides, ascending, and each side's row range.
    frames = sorted_unique(gt.row_frames)
    bounds = [
        np.searchsorted(row_frames, frames, side=side)
        for row_frames in (gt.row_frames, table_frames)
        for side in ("left", "right")
    ]
    both = bounds[3] > bounds[2]
    g0, g1, p0, p1 = (bound[both] for bound in bounds)
    widths = p1 - p0
    cells = (g1 - g0) * widths
    ends = np.cumsum(cells).tolist()

    # The positive cells, one chunk of frames at a time.
    empty = np.zeros(0, dtype=np.int64)
    parts = [(empty, empty, empty, np.zeros(0))]
    start = 0
    while start < len(ends):
        stop = max(start + 1, bisect.bisect_right(ends, (ends[start - 1] if start else 0) + _CHUNK_CELLS))
        frame, gt_rows, table_rows, iou = _frame_cells(
            gt.xyxy, table_xyxy, g0[start:stop], p0[start:stop], widths[start:stop], cells[start:stop]
        )
        frame += start
        positive = iou > 0
        parts.append((frame[positive], gt_rows[positive], table_rows[positive], iou[positive]))
        start = stop
    frame, gt_rows, table_rows, iou = map(np.concatenate, zip(*parts))

    # Sorted by row or column, then IoU: every entry but the last of its line
    # is below the line's largest, and the largest of those is its second.
    lines = np.concatenate((gt_rows, table_rows + len(gt.ids)))
    order = np.lexsort((np.concatenate((iou, iou)), lines))
    lines = lines[order]
    seconds = order[:-1][lines[1:] == lines[:-1]] % max(len(iou), 1)
    level = np.zeros(len(ends))
    np.maximum.at(level, frame[seconds], iou[seconds])
    conflicted = np.flatnonzero(level > 0)
    conflicts = tuple(
        _Conflict(g, p, geometry.iou_matrix(gt.xyxy[g:g_end], table_xyxy[p:p_end]), lvl)
        for g, g_end, p, p_end, lvl in zip(
            *(values[conflicted].tolist() for values in (g0, g1, p0, p1, level))
        )
    )
    return _Overlaps(gt, _id_index(gt.ids), len(table_frames), gt_rows, table_rows, iou, level[frame], conflicts)


def align_cell(sequence: _Overlaps, ids: np.ndarray, rows: np.ndarray | None = None) -> _Table:
    """The part of alignment that is one cell's own: the ``_Table`` of
    ``sequence``'s gt against predictions with identities ``ids`` that are
    its table's rows, every one once, in the order ``rows`` gives them, or
    in table order when ``rows`` is None. Like the rows of labels, ``rows``
    must keep the table's frames grouped in ascending order; so each frame's
    predictions are its table rows, and its conflict level is the table's.
    A ``rows`` that is not every table row once, a row outside the table
    included, raises ``ValueError``."""
    gt_rows, pred_rows, iou, level = sequence.gt_rows, sequence.table_rows, sequence.iou, sequence.level
    conflicts = sequence.conflicts
    if rows is not None:
        # Each table row's place among the predictions.
        place = np.full(sequence.table_size, -1)
        if len(rows) == sequence.table_size and ((0 <= rows) & (rows < len(rows))).all():
            place[rows] = np.arange(len(rows))
        if (place < 0).any():
            raise ValueError(f"a cell's predictions must be each of the table's {sequence.table_size} rows once")
        pred_rows = place[pred_rows]
        order = np.lexsort((pred_rows, gt_rows))
        gt_rows, pred_rows, iou, level = gt_rows[order], pred_rows[order], iou[order], level[order]
        # A frame's predictions hold its table rows, so its columns move within it.
        conflicts = tuple(
            c._replace(sim=c.sim[:, rows[c.pred_start : c.pred_start + c.sim.shape[1]] - c.pred_start])
            for c in conflicts
        )
    gt = sequence.gt
    return _Table(gt.ids, *sequence.gt_id_index, ids, *_id_index(ids), gt_rows, pred_rows, iou, level, conflicts)


def _align(gt: BoxTable, pred: BoxTable) -> _Table:
    """The ``_Table`` of one (gt, pred) pair: the predictions are their own
    table, and every row is selected."""
    return align_cell(align_sequence(gt, pred.row_frames, pred.xyxy), pred.ids)


def _pool(tables: Sequence[_Table]) -> _Table:
    """One table of several sequences' tables, equal to the table of their
    pooled labels: on each side, each table's rows follow the previous
    table's, and its ids move as ``pool_sequences`` moves them."""
    if len(tables) == 1:
        return tables[0]

    def joined(name: str, bases: list[int] | None = None) -> np.ndarray:
        parts = [getattr(table, name) for table in tables]
        return np.concatenate(parts if bases is None else [part + base for part, base in zip(parts, bases)])

    gt_at = np.cumsum([0, *(table.gt_total for table in tables[:-1])]).tolist()
    pred_at = np.cumsum([0, *(table.pred_total for table in tables[:-1])]).tolist()
    gt_ids = _moved_ids([table.gt_ids for table in tables])
    pred_ids = _moved_ids([table.pred_ids for table in tables])
    conflicts = tuple(
        conflict._replace(gt_start=conflict.gt_start + g, pred_start=conflict.pred_start + p)
        for table, g, p in zip(tables, gt_at, pred_at)
        for conflict in table.conflicts
    )
    return _Table(
        gt_ids,
        *_id_index(gt_ids),
        pred_ids,
        *_id_index(pred_ids),
        joined("gt_rows", gt_at),
        joined("pred_rows", pred_at),
        joined("iou"),
        joined("level"),
        conflicts,
    )


def clear_mota(table: _Table) -> tuple[float, int, int, int, int]:
    """CLEAR accuracy: MOTA = 1 - (FN + FP + IDSW) / total GT boxes.

    Boxes are matched per frame by maximum total IoU gated at
    ``IOU_THRESHOLD``. An identity switch is counted whenever a ground-truth
    identity's matched prediction differs from its last known match.
    ``table`` is the aligned (gt, pred) pair as ``align_cell`` builds it.
    """
    # (gt row, pred row) of each match in a conflict frame, flat.
    matched: list[int] = []
    for gt_start, pred_start, sim, _level in table.conflicts:
        for i, j in assignment.gated_match(sim, IOU_THRESHOLD).pairs:
            matched += gt_start + i, pred_start + j
    conflict_gt, conflict_pred = np.array(matched, dtype=np.int64).reshape(-1, 2).T
    hits = (table.level <= 0) & (table.iou >= IOU_THRESHOLD)
    gt_rows = np.concatenate((table.gt_rows[hits], conflict_gt))
    pred_rows = np.concatenate((table.pred_rows[hits], conflict_pred))
    tp = len(gt_rows)
    # Matches by ground-truth identity, then row: rows are in frame order.
    gids = table.gt_index[gt_rows]
    order = np.lexsort((gt_rows, gids))
    gids = gids[order]
    pids = table.pred_index[pred_rows[order]]
    idsw = int(np.count_nonzero((gids[1:] == gids[:-1]) & (pids[1:] != pids[:-1])))
    # Every box lies in some frame of the union, so what is not matched is missed.
    fn = table.gt_total - tp
    fp = table.pred_total - tp
    if table.gt_total:
        mota = 1.0 - (fn + fp + idsw) / table.gt_total
    else:
        mota = 1.0 if (fp + idsw) == 0 else float("-inf")
    return mota, tp, fn, fp, idsw


def idf1(table: _Table) -> float:
    """Identity F1 under the optimal global GT-to-prediction identity mapping,
    counting pairs with IoU >= ``IOU_THRESHOLD``. ``table`` is as for
    ``clear_mota``."""
    n_gt = len(table.gt_presence)
    n_pred = len(table.pred_presence)
    if not n_gt and not n_pred:
        return 1.0
    if not n_gt or not n_pred:
        return 0.0
    overlap = np.zeros((n_gt, n_pred), dtype=float)
    np.add.at(overlap.reshape(-1), table.pairs[table.iou >= IOU_THRESHOLD], 1.0)
    idtp = int(sum(overlap[i, j] for i, j in assignment.solve(overlap)))
    idfn = table.gt_total - idtp
    idfp = table.pred_total - idtp
    denom = 2 * idtp + idfp + idfn
    return (2 * idtp / denom) if denom else 1.0


def hota(table: _Table) -> tuple[float, float, float, tuple[tuple[float, float, float, float], ...]]:
    """HOTA and its DetA/AssA decomposition, averaged over ``ALPHAS``.

    Per alpha, each frame is matched by a maximum-total-score assignment in
    which a pair whose IoU passes alpha (IoU >= alpha) scores 1 + IoU and
    every other pair 0, and the matched pairs that pass are kept. This
    favours passing pairs but need not maximize their number: gt boxes
    x in [0, 10], [9, 19], [-9, 1] against predictions [0, 10], [9, 19],
    [18, 28], all 10 high, match two pairs at alpha 0.05 although three
    pass it together. DetA_a = TP/(TP+FN+FP); AssA_a averages, over TP
    instances, the alignment TPA/(TPA+FNA+FPA) of each matched (gt id,
    pred id) pair across the whole sequence, summed in the order in which
    the pairs are first matched at that alpha; HOTA_a = sqrt(DetA_a *
    AssA_a). ``table`` is as for ``clear_mota``.
    """
    n_alphas = len(ALPHAS)
    # Every match as a (pair, alpha) slot. A cell is matched directly at each
    # alpha from its frame's solved count (0 without a conflict) up to its
    # own IoU's reach.
    start = np.searchsorted(_ALPHA_GRID, table.level, side="right")
    spans = np.maximum(np.searchsorted(_ALPHA_GRID, table.iou, side="right") - start, 0)
    cell = np.repeat(np.arange(len(spans)), spans)
    direct_alpha = start[cell] + np.arange(len(cell)) - np.repeat(np.cumsum(spans) - spans, spans)
    # (gt row, pred row, alpha index) of each match a conflict frame solves
    # at the alphas up to its level, flat.
    matched: list[int] = []
    for gt_start, pred_start, sim, level in table.conflicts:
        solved = int(np.searchsorted(_ALPHA_GRID, level, side="right"))
        for a, alpha in enumerate(ALPHAS[:solved]):
            passing = sim >= alpha
            if not passing.any():
                break
            score = np.where(passing, 1.0 + sim, 0.0)
            for i, j in assignment.solve(score):
                if passing[i, j]:
                    matched += gt_start + i, pred_start + j, a
    solved_gt, solved_pred, solved_alpha = np.array(matched, dtype=np.int64).reshape(-1, 3).T
    solved_keys = table.gt_index[solved_gt] * len(table.pred_presence) + table.pred_index[solved_pred]
    match_keys = np.concatenate((table.pairs[cell], solved_keys))
    keys = sorted_unique(match_keys)
    n_pairs = len(keys)
    slot = np.searchsorted(keys, match_keys) * n_alphas + np.concatenate((direct_alpha, solved_alpha))
    # Per (pair, alpha): the matches, and the gt row of the first, the least.
    counts = np.bincount(slot, minlength=n_pairs * n_alphas).reshape(n_pairs, n_alphas)
    first = np.full(n_pairs * n_alphas, _INT64_MAX)  # past every row: no match
    np.minimum.at(first, slot, np.concatenate((table.gt_rows[cell], solved_gt)))
    first = first.reshape(n_pairs, n_alphas)

    # AssA sums each alpha's pairs in the order they are first matched, one
    # by one as np.cumsum adds; pairs not matched at an alpha add 0.
    gt_of_pair, pred_of_pair = np.divmod(keys, max(len(table.pred_presence), 1))
    presence = (table.gt_presence[gt_of_pair] + table.pred_presence[pred_of_pair])[:, None]
    weights = counts * (counts / (presence - counts))
    ordered = weights[np.argsort(first, axis=0), _ALPHA_COLUMNS]
    weighted = np.cumsum(ordered, axis=0)[-1].tolist() if n_pairs else [0.0] * n_alphas

    per_alpha = []
    for alpha, tp, weighted_a in zip(ALPHAS, counts.sum(axis=0).tolist(), weighted):
        fn = table.gt_total - tp
        fp = table.pred_total - tp
        denom = tp + fn + fp
        if denom == 0:
            deta_a = 1.0
            assa_a = 1.0
        else:
            deta_a = tp / denom
            assa_a = weighted_a / tp if tp else 0.0
        per_alpha.append((alpha, math.sqrt(deta_a * assa_a), deta_a, assa_a))

    n = len(per_alpha)
    hota_score = sum(row[1] for row in per_alpha) / n
    deta_score = sum(row[2] for row in per_alpha) / n
    assa_score = sum(row[3] for row in per_alpha) / n
    return hota_score, deta_score, assa_score, tuple(per_alpha)


def pooled_report(tables: Sequence[_Table]) -> MetricsReport:
    """Compute all reported metrics of one or more sequences' tables, with
    pooled counts."""
    table = _pool(tables)
    mota, tp, fn, fp, idsw = clear_mota(table)
    idf1_score = idf1(table)
    hota_score, deta_score, assa_score, per_alpha = hota(table)
    return MetricsReport(
        hota=hota_score,
        deta=deta_score,
        assa=assa_score,
        mota=mota,
        idf1=idf1_score,
        tp=tp,
        fn=fn,
        fp=fp,
        idsw=idsw,
        gt_total=table.gt_total,
        per_alpha=per_alpha,
    )


def evaluate(gt: BoxTable, pred: BoxTable) -> MetricsReport:
    """Compute all reported metrics for one sequence from one aligned pass."""
    return pooled_report([_align(gt, pred)])


def _rebase(values: np.ndarray, lo: int, base: int) -> np.ndarray:
    """``values - lo + base`` in int64, for ``lo <= values.min()``; raises
    ``LabelOverflowError`` where the result would not fit."""
    if values.size and base + int(values.max()) - lo > _INT64_MAX:
        raise LabelOverflowError("pooled frames or identities do not fit in 64 bits")
    return (values - np.int64(lo)) + np.int64(base)


def _moved_ids(ids_by_sequence: Sequence[np.ndarray]) -> np.ndarray:
    """One side's identities of several sequences, joined, each sequence's
    moved by the side's running base: to ``base + id`` when none is
    negative, ``base + id - min(id)`` otherwise; the base then passes the
    largest moved identity. Raises ``LabelOverflowError`` where a moved
    identity would not fit in int64."""
    moved, base = [np.zeros(0, np.int64)], 0
    for ids in ids_by_sequence:
        if ids.size:
            lo = min(0, int(ids.min()))
            moved.append(_rebase(ids, lo, base))
            base += int(ids.max()) - lo + 1
    return np.concatenate(moved)


def pool_sequences(
    pairs: Sequence[tuple[BoxTable, BoxTable]],
) -> tuple[BoxTable, BoxTable]:
    """Merge (gt, pred) sequence pairs onto disjoint frame and identity ranges.

    Each pair's frames move to follow the previous pair's, keeping their
    gaps, and each side's identities move as ``_moved_ids`` moves them.
    Evaluating the merged pair pools raw counts across sequences, which is
    the standard multi-sequence aggregation (not an average of per-sequence
    ratios).
    """
    empty = (np.zeros(0, np.int64),) * 2 + (np.zeros((0, 4)), np.zeros(0))
    parts = ([empty], [empty])
    frame_base = 0
    for gt, pred in pairs:
        keys = sorted_unique(np.concatenate((gt.frame_keys, pred.frame_keys)))
        if not keys.size:
            continue
        lo, hi = int(keys[0]), int(keys[-1])
        for side, labels in enumerate((gt, pred)):
            parts[side].append(
                (
                    _rebase(labels.frame_keys, lo, frame_base + 1),
                    _rebase(labels.row_frames, lo, frame_base + 1),
                    labels.tlwh,
                    labels.confidence,
                )
            )
        frame_base += hi - lo + 1
    merged = [
        BoxTable(keys, frames, _moved_ids([pair[side].ids for pair in pairs]), tlwh, confidence)
        for side, (keys, frames, tlwh, confidence) in enumerate(map(np.concatenate, zip(*part)) for part in parts)
    ]
    return merged[0], merged[1]


def evaluate_many(
    pairs: Sequence[tuple[BoxTable, BoxTable]],
) -> MetricsReport:
    """Evaluate several sequences with pooled raw counts; a single pair is
    evaluated as it is, which gives the report its pooled copy would. No
    pairs raise ``ValueError``: there is nothing to score."""
    if not pairs:
        raise ValueError("no sequences to evaluate")
    if len(pairs) == 1:
        return evaluate(*pairs[0])
    return evaluate(*pool_sequences(pairs))
