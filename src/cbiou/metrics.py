"""Tracking evaluation: HOTA (with DetA/AssA), CLEAR-MOT accuracy, and IDF1.

All metrics consume two per-frame labelings (ground truth and predictions) of
(identity, box) pairs, as ``SequenceAnnotations``. Labels are built and
stored in one form, arrays: int64 frames and ids, and boxes in (N, 4)
arrays, rows grouped by frame; ``frames`` is a per-frame (identity,
``BoundingBox``) view derived from the arrays for API callers. Scores are
single-sequence; to evaluate several sequences together, pool them with
``evaluate_many`` which merges them onto disjoint frame/identity ranges so
raw counts pool rather than ratios average.

``evaluate`` aligns the two labelings once, as whole-sequence arrays. Every
(gt row, pred row) cell of every frame with boxes on both sides gets its IoU
in one vectorised pass per chunk of frames (at most ``_CHUNK_CELLS`` cells),
and the positive cells are kept as flat arrays in (frame, gt row, pred row)
order, each with its frame's conflict level: the largest second-highest IoU
over the frame's rows and columns. A frame whose level is above 0 has a row
or column with two positive cells, and keeps a dense IoU matrix, as does a
frame with a non-finite IoU, whose level is NaN. ``clear_mota`` and ``idf1``
(at ``IOU_THRESHOLD``) and ``hota`` (over the fixed grid ``ALPHAS``) each
take that table.

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
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import assignment, geometry
from .geometry import BoundingBox, LabelOverflowError

ALPHAS: tuple[float, ...] = tuple(i / 20 for i in range(1, 20))
IOU_THRESHOLD = 0.5


class SequenceAnnotations:
    """Per-frame (identity, box) labels for one sequence, as five read-only
    arrays, rows grouped by ascending frame and in given order within a
    frame: ``frame_keys``, every frame the labels name, frames without rows
    included; ``row_frames`` (N,), each row's frame, and ``ids`` (N,), its
    identity, all int64; ``tlwh`` (N, 4), each box as given, and ``xyxy``
    (N, 4), the same box in corner form.

    The constructor takes the rows in that layout, as the file readers,
    ``synth.generate``, the tracker's result rows and ``pool_sequences``
    make them, and checks it with ``geometry.grouped_rows``: a bad layout or
    a frame or identity that is not an integer raises ``ValueError``, and
    one outside int64 ``LabelOverflowError``. Then each box must pass
    ``BoundingBox``'s check: the first that does not raises that
    ``ValueError``, named by its row. ``frames`` is a read-only
    view of the rows as per-frame (identity, ``BoundingBox``) tuples, built
    from the arrays on first use, for API callers.
    """

    def __init__(self, frame_keys, row_frames, ids, tlwh):
        self.frame_keys, self.row_frames, self.tlwh, self.xyxy, self.ids = geometry.grouped_rows(
            frame_keys, row_frames, tlwh, geometry.int64_values(ids, "identity")
        )
        geometry.raise_first_bad_row(
            ~geometry.valid_tlwh(self.tlwh), lambda row: BoundingBox(*self.tlwh[row].tolist()), "label"
        )

    def __reduce__(self):
        # Rows only: the cached ``frames`` view, a mappingproxy, does not pickle.
        return type(self), (self.frame_keys, self.row_frames, self.ids, self.tlwh)

    def frame_slices(self) -> dict[int, slice]:
        """Each frame of ``frame_keys`` with the slice of its rows."""
        ends = np.searchsorted(self.row_frames, self.frame_keys, side="right").tolist()
        return {
            frame: slice(start, end)
            for frame, start, end in zip(self.frame_keys.tolist(), [0, *ends], ends)
        }

    @cached_property
    def frames(self) -> Mapping[int, tuple[tuple[int, BoundingBox], ...]]:
        labels = list(zip(self.ids.tolist(), (BoundingBox(*row) for row in self.tlwh.tolist())))
        return MappingProxyType({frame: tuple(labels[rows]) for frame, rows in self.frame_slices().items()})

    def box_count(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceAnnotations):
            return NotImplemented
        # Equal rows give equal corners: xyxy need not be compared.
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("frame_keys", "row_frames", "ids", "tlwh")
        )


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
# holds a few hundred bytes per cell, so this bounds it near 1 MB whatever
# the sequence; a frame with more cells gets a pass of its own.
_CHUNK_CELLS = 4096
_ALPHA_GRID = np.asarray(ALPHAS)
_ALPHA_COLUMNS = np.arange(len(ALPHAS))
_INT64_MAX = np.iinfo(np.int64).max


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending, as ``np.unique`` returns
    them. ``np.unique`` imports ``numpy.ma`` on first use, which costs each
    ``cbiou eval`` process about 13 ms and 1.3 MB."""
    values = np.sort(values)
    first = np.ones(values.shape, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


class _Conflict(NamedTuple):
    """A frame with a row or column holding two positive IoUs: its first row
    on each side, its IoU matrix and its conflict level (NaN when the matrix
    holds a non-finite entry)."""

    gt_start: int
    pred_start: int
    sim: np.ndarray
    level: float


@dataclass(frozen=True)
class _Table:
    """What every metric of one (gt, pred) pair reads.

    ``gt_index`` gives each gt row's place among the distinct gt ids, and
    ``gt_presence`` counts the rows of each distinct id; ``pred_index`` and
    ``pred_presence`` do the same for predictions. ``gt_rows``,
    ``pred_rows``, ``pairs`` and ``iou`` describe the cells with a positive
    IoU in frames with boxes on both sides, in (frame, gt row, pred row)
    order: the row on each side, the pair of their id places as
    ``gt place * len(pred_presence) + pred place``, and the IoU. ``level``
    gives each cell its frame's conflict level: 0 in a frame without a
    conflict, and above 0 (or NaN) in one of the frames of ``conflicts``,
    which are in frame order.
    """

    gt_index: np.ndarray
    gt_presence: np.ndarray
    pred_index: np.ndarray
    pred_presence: np.ndarray
    gt_rows: np.ndarray
    pred_rows: np.ndarray
    pairs: np.ndarray
    iou: np.ndarray
    level: np.ndarray
    conflicts: tuple[_Conflict, ...]
    gt_total: int
    pred_total: int


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
    return frame, gt_rows, pred_rows, geometry.paired_iou(gt_xyxy[gt_rows], pred_xyxy[pred_rows])


def _align(gt: SequenceAnnotations, pred: SequenceAnnotations) -> _Table:
    # Frames with rows on both sides, ascending, and each side's row range.
    frames = sorted_unique(gt.row_frames)
    bounds = [
        np.searchsorted(labels.row_frames, frames, side=side)
        for labels in (gt, pred)
        for side in ("left", "right")
    ]
    both = bounds[3] > bounds[2]
    g0, g1, p0, p1 = (bound[both] for bound in bounds)
    widths = p1 - p0
    cells = (g1 - g0) * widths
    ends = np.cumsum(cells).tolist()

    # The positive cells, one chunk of frames at a time, and the frames with
    # a non-finite cell.
    empty = np.zeros(0, dtype=np.int64)
    parts = [(empty, empty, empty, np.zeros(0))]
    nonfinite = [empty]
    start = 0
    while start < len(ends):
        stop = max(start + 1, bisect.bisect_right(ends, (ends[start - 1] if start else 0) + _CHUNK_CELLS))
        frame, gt_rows, pred_rows, iou = _frame_cells(
            gt.xyxy, pred.xyxy, g0[start:stop], p0[start:stop], widths[start:stop], cells[start:stop]
        )
        frame += start
        finite = np.isfinite(iou)
        if not finite.all():
            nonfinite.append(frame[~finite])
        positive = iou > 0
        parts.append((frame[positive], gt_rows[positive], pred_rows[positive], iou[positive]))
        start = stop
    frame, gt_rows, pred_rows, iou = map(np.concatenate, zip(*parts))

    # Sorted by row or column, then IoU: every entry but the last of its line
    # is below the line's largest, and the largest of those is its second.
    lines = np.concatenate((gt_rows, pred_rows + len(gt.ids)))
    order = np.lexsort((np.concatenate((iou, iou)), lines))
    lines = lines[order]
    seconds = order[:-1][lines[1:] == lines[:-1]] % max(len(iou), 1)
    level = np.zeros(len(ends))
    np.maximum.at(level, frame[seconds], iou[seconds])
    level[np.concatenate(nonfinite)] = math.nan
    conflicted = np.flatnonzero(~(level <= 0))
    conflicts = tuple(
        _Conflict(g, p, geometry.iou_matrix(gt.xyxy[g:g_end], pred.xyxy[p:p_end]), lvl)
        for g, g_end, p, p_end, lvl in zip(
            *(values[conflicted].tolist() for values in (g0, g1, p0, p1, level))
        )
    )
    gt_index, gt_presence = _id_index(gt.ids)
    pred_index, pred_presence = _id_index(pred.ids)
    pairs = gt_index[gt_rows] * len(pred_presence) + pred_index[pred_rows]
    return _Table(
        gt_index,
        gt_presence,
        pred_index,
        pred_presence,
        gt_rows,
        pred_rows,
        pairs,
        iou,
        level[frame],
        conflicts,
        len(gt.ids),
        len(pred.ids),
    )


def clear_mota(table: _Table) -> tuple[float, int, int, int, int]:
    """CLEAR accuracy: MOTA = 1 - (FN + FP + IDSW) / total GT boxes.

    Boxes are matched per frame by maximum total IoU gated at
    ``IOU_THRESHOLD``. An identity switch is counted whenever a ground-truth
    identity's matched prediction differs from its last known match.
    ``table`` is the aligned (gt, pred) pair as ``evaluate`` builds it.
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
    # at the alphas up to its level (all, if it is NaN), flat.
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


def evaluate(gt: SequenceAnnotations, pred: SequenceAnnotations) -> MetricsReport:
    """Compute all reported metrics for one sequence from one aligned pass."""
    table = _align(gt, pred)
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


def _rebase(values: np.ndarray, lo: int, base: int) -> np.ndarray:
    """``values - lo + base`` in int64, for ``lo <= values.min()``; raises
    ``LabelOverflowError`` where the result would not fit."""
    if values.size and base + int(values.max()) - lo > _INT64_MAX:
        raise LabelOverflowError("pooled frames or identities do not fit in 64 bits")
    return (values - np.int64(lo)) + np.int64(base)


def pool_sequences(
    pairs: Sequence[tuple[SequenceAnnotations, SequenceAnnotations]],
) -> tuple[SequenceAnnotations, SequenceAnnotations]:
    """Merge (gt, pred) sequence pairs onto disjoint frame and identity ranges.

    Each pair's frames move to follow the previous pair's, keeping their
    gaps. Each side's identities move by that side's running base: to
    ``base + id`` when none is negative, ``base + id - min(id)`` otherwise,
    and the base then passes the largest moved identity. Evaluating the
    merged pair pools raw counts across sequences, which is the standard
    multi-sequence aggregation (not an average of per-sequence ratios).
    """
    empty = (np.zeros(0, np.int64),) * 3 + (np.zeros((0, 4)),)
    parts = ([empty], [empty])
    frame_base = 0
    id_bases = [0, 0]
    for gt, pred in pairs:
        keys = sorted_unique(np.concatenate((gt.frame_keys, pred.frame_keys)))
        if not keys.size:
            continue
        lo, hi = int(keys[0]), int(keys[-1])
        for side, labels in enumerate((gt, pred)):
            id_lo = min(0, int(labels.ids.min())) if labels.ids.size else 0
            parts[side].append(
                (
                    _rebase(labels.frame_keys, lo, frame_base + 1),
                    _rebase(labels.row_frames, lo, frame_base + 1),
                    _rebase(labels.ids, id_lo, id_bases[side]),
                    labels.tlwh,
                )
            )
            if labels.ids.size:
                id_bases[side] += int(labels.ids.max()) - id_lo + 1
        frame_base += hi - lo + 1
    merged = [SequenceAnnotations(*map(np.concatenate, zip(*part))) for part in parts]
    return merged[0], merged[1]


def evaluate_many(
    pairs: Sequence[tuple[SequenceAnnotations, SequenceAnnotations]],
) -> MetricsReport:
    """Evaluate several sequences with pooled raw counts; a single pair is
    evaluated as it is, which gives the report its pooled copy would."""
    if len(pairs) == 1:
        return evaluate(*pairs[0])
    gt, pred = pool_sequences(pairs)
    return evaluate(gt, pred)
