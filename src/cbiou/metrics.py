"""Tracking evaluation: HOTA (with DetA/AssA), CLEAR-MOT accuracy, and IDF1.

All metrics consume two per-frame labelings (ground truth and predictions) of
(identity, box) pairs, as ``SequenceAnnotations``. Labels are stored in one
form, arrays: int64 frames and ids, and corner-form boxes in one (N, 4)
array, rows grouped by frame. A mapping of per-frame (identity,
``BoundingBox``) rows is an input format, and ``frames`` is a view derived
from the arrays for API callers. Scores are single-sequence; to evaluate
several sequences together, pool them with ``evaluate_many`` which merges
them onto disjoint frame/identity ranges so raw counts pool rather than
ratios average.

``evaluate`` aligns the two labelings once: for every frame with boxes on
both sides it keeps the ids, the IoU matrix of the two row ranges' corner
boxes and the matrix's conflict level (its largest second-highest entry over
all rows and columns), plus per-id presence counts and box totals.
``clear_mota`` and ``idf1`` (at IoU ``IOU_THRESHOLD``) and ``hota`` (over the
fixed grid ``ALPHAS``) each take that table.

HOTA matches each frame at every alpha with scores 1 + IoU for pairs whose
IoU passes alpha and 0 otherwise. At an alpha above the frame's conflict
level no row or column holds two passing pairs, so the passing pairs form a
matching, and since each of them scores more than every other entry, every
optimal assignment contains exactly them. Those alphas take the passing
pairs directly; only alphas at or below the conflict level are solved.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import assignment, geometry
from .geometry import BoundingBox

ALPHAS: tuple[float, ...] = tuple(i / 20 for i in range(1, 20))
IOU_THRESHOLD = 0.5


class LabelOverflowError(ValueError):
    """Frames or identities that do not fit in int64: a data error."""


class SequenceAnnotations:
    """Per-frame (identity, box) labels for one sequence, stored only as five
    read-only arrays, rows grouped by ascending frame and in given order within
    a frame: ``frame_keys``, every frame the labels name, frames without rows
    included; ``row_frames`` (N,), each row's frame, and ``ids`` (N,), its
    identity, all int64; ``tlwh`` (N, 4), each box as given, and ``xyxy``
    (N, 4), the same box in corner form.

    The constructor takes the mapping form, per-frame (identity,
    ``BoundingBox``) rows. It checks that frames and identities are integers
    that fit in int64 and that no identity repeats in a frame, raising a data
    error otherwise, and builds the arrays at once. ``from_arrays`` takes rows
    already grouped, as the file readers, ``synth.generate`` and
    ``pool_sequences`` make them, so evaluating files builds no box objects.
    ``frames`` is the mapping form again: a read-only view built from the
    arrays on first use, for API callers.
    """

    def __init__(self, frames: Mapping[int, Iterable[tuple[int, BoundingBox]]]):
        rows: dict[int, dict[int, BoundingBox]] = {}
        for key, items in frames.items():
            if key % 1:  # fractional, NaN or infinite: int() would make 1.5 and 1.7 both 1
                raise ValueError(f"frame {key!r} is not an integer")
            frame = int(key)
            rows[frame] = frame_rows = {}
            for identity, box in items:
                if identity % 1:
                    raise ValueError(f"identity {identity!r} is not an integer")
                identity = int(identity)
                if identity in frame_rows:
                    raise ValueError(f"duplicate identity {identity} in frame {frame}")
                frame_rows[identity] = box
        keys = sorted(rows)
        try:
            self._store(
                keys,
                np.repeat(np.array(keys, dtype=np.int64), [len(rows[frame]) for frame in keys]),
                [identity for frame in keys for identity in rows[frame]],
                [(box.x, box.y, box.w, box.h) for frame in keys for box in rows[frame].values()],
            )
        except OverflowError:
            raise LabelOverflowError("frames and identities must fit in 64 bits") from None

    @classmethod
    def from_arrays(cls, frame_keys, row_frames, ids, tlwh) -> "SequenceAnnotations":
        """Labels from rows already grouped by ascending frame, with
        ``frame_keys`` ascending and naming every row's frame; the rows are
        taken as they are, without the duplicate check."""
        self = cls.__new__(cls)
        self._store(frame_keys, row_frames, ids, tlwh)
        return self

    def _store(self, frame_keys, row_frames, ids, tlwh) -> None:
        self.frame_keys = np.asarray(frame_keys, dtype=np.int64)
        self.row_frames = np.asarray(row_frames, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.tlwh = np.asarray(tlwh, dtype=float).reshape(-1, 4)
        self.xyxy = self.tlwh.copy()
        self.xyxy[:, 2:] += self.tlwh[:, :2]
        for values in (self.frame_keys, self.row_frames, self.ids, self.tlwh, self.xyxy):
            values.flags.writeable = False

    def __reduce__(self):
        # Rows only: the cached ``frames`` view, a mappingproxy, does not pickle.
        return type(self).from_arrays, (self.frame_keys, self.row_frames, self.ids, self.tlwh)

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

    @classmethod
    def from_frame_outputs(cls, outputs) -> "SequenceAnnotations":
        """Build annotations from tracker ``FrameOutput`` records, one per frame."""
        frames = {}
        for out in outputs:
            if out.frame in frames:
                raise ValueError(f"frame {out.frame} has more than one output")
            frames[out.frame] = [(tid, box) for tid, box, _conf in out.records]
        return cls({frame: rows for frame, rows in frames.items() if rows})


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


class _Frame(NamedTuple):
    """One frame with boxes on both sides: ids in row/column order, their
    IoU matrix and its conflict level."""

    gids: list[int]
    pids: list[int]
    sim: np.ndarray
    conflict: float


@dataclass(frozen=True)
class _FrameTable:
    """Per-frame work shared by every metric of one (gt, pred) pair."""

    frames: list[_Frame]
    gt_presence: Counter[int]
    pred_presence: Counter[int]
    gt_total: int
    pred_total: int


def _conflict_level(sim: np.ndarray) -> float:
    """Largest second-highest entry over all rows and columns of ``sim``.

    Every row and column holds at most one entry above this level. A row or
    column with a single entry has no second-highest, so a 1x1 matrix gives
    -inf. A NaN entry may make the level NaN.
    """
    rows, cols = sim.shape
    seconds = []
    if cols > 1:
        seconds.append(np.sort(sim, axis=1)[:, -2])
    if rows > 1:
        seconds.append(np.sort(sim, axis=0)[-2])
    return float(np.concatenate(seconds).max()) if seconds else -math.inf


def _align(gt: SequenceAnnotations, pred: SequenceAnnotations) -> _FrameTable:
    gt_ids = gt.ids.tolist()
    pred_ids = pred.ids.tolist()
    # Frames with rows on both sides, ascending, and each side's row range.
    common = np.intersect1d(gt.row_frames, pred.row_frames)
    bounds = [
        np.searchsorted(labels.row_frames, common, side=side).tolist()
        for labels in (gt, pred)
        for side in ("left", "right")
    ]
    frames: list[_Frame] = []
    for g0, g1, p0, p1 in zip(*bounds):
        sim = geometry.iou_matrix(gt.xyxy[g0:g1], pred.xyxy[p0:p1])
        frames.append(_Frame(gt_ids[g0:g1], pred_ids[p0:p1], sim, _conflict_level(sim)))
    return _FrameTable(frames, Counter(gt_ids), Counter(pred_ids), len(gt_ids), len(pred_ids))


def clear_mota(table: _FrameTable) -> tuple[float, int, int, int, int]:
    """CLEAR accuracy: MOTA = 1 - (FN + FP + IDSW) / total GT boxes.

    Boxes are matched per frame by maximum total IoU gated at
    ``IOU_THRESHOLD``. An identity switch is counted whenever a ground-truth
    identity's matched prediction differs from its last known match.
    ``table`` is the aligned (gt, pred) pair as ``evaluate`` builds it.
    """
    tp = idsw = 0
    last_match: dict[int, int] = {}
    for gids, pids, sim, _conflict in table.frames:
        pairs = assignment.gated_match(sim, IOU_THRESHOLD).pairs
        tp += len(pairs)
        for i, j in pairs:
            gid = gids[i]
            pid = pids[j]
            if gid in last_match and last_match[gid] != pid:
                idsw += 1
            last_match[gid] = pid
    # Every box lies in some frame of the union, so what is not matched is missed.
    fn = table.gt_total - tp
    fp = table.pred_total - tp
    if table.gt_total:
        mota = 1.0 - (fn + fp + idsw) / table.gt_total
    else:
        mota = 1.0 if (fp + idsw) == 0 else float("-inf")
    return mota, tp, fn, fp, idsw


def idf1(table: _FrameTable) -> float:
    """Identity F1 under the optimal global GT-to-prediction identity mapping,
    counting pairs with IoU >= ``IOU_THRESHOLD``. ``table`` is as for
    ``clear_mota``."""
    gt_ids = sorted(table.gt_presence)
    pred_ids = sorted(table.pred_presence)
    if not gt_ids and not pred_ids:
        return 1.0
    if not gt_ids or not pred_ids:
        return 0.0
    g_index = {g: i for i, g in enumerate(gt_ids)}
    p_index = {p: j for j, p in enumerate(pred_ids)}
    overlap = np.zeros((len(gt_ids), len(pred_ids)), dtype=float)
    for gids, pids, sim, _conflict in table.frames:
        hit_g, hit_p = np.nonzero(sim >= IOU_THRESHOLD)
        for i, j in zip(hit_g.tolist(), hit_p.tolist()):
            overlap[g_index[gids[i]], p_index[pids[j]]] += 1.0
    idtp = int(sum(overlap[i, j] for i, j in assignment.solve(overlap)))
    idfn = table.gt_total - idtp
    idfp = table.pred_total - idtp
    denom = 2 * idtp + idfp + idfn
    return (2 * idtp / denom) if denom else 1.0


def hota(table: _FrameTable) -> tuple[float, float, float, tuple[tuple[float, float, float, float], ...]]:
    """HOTA and its DetA/AssA decomposition, averaged over ``ALPHAS``.

    Per alpha, frames are matched by an assignment score that first maximizes
    the number of gate-passing pairs (IoU >= alpha) and then their total IoU.
    DetA_a = TP/(TP+FN+FP); AssA_a averages, over TP instances, the alignment
    TPA/(TPA+FNA+FPA) of each matched (gt id, pred id) pair across the whole
    sequence; HOTA_a = sqrt(DetA_a * AssA_a). ``table`` is as for
    ``clear_mota``.
    """
    # Each alpha has one Counter of matched (gt id, pred id) pairs, which
    # receives a frame's pairs in row order, as a row-sorted matching lists
    # them: AssA sums in that order.
    grid = np.asarray(ALPHAS)
    pair_counts: list[Counter[tuple[int, int]]] = [Counter() for _ in ALPHAS]
    for gids, pids, sim, conflict in table.frames:
        hit_g, hit_p = np.nonzero(sim >= ALPHAS[0])
        if not hit_g.size:
            continue
        # Alphas at or below the conflict level (all, if it is NaN) are solved.
        solved = int(np.searchsorted(grid, conflict, side="right"))
        for alpha, counts in zip(ALPHAS[:solved], pair_counts):
            passing = sim >= alpha
            if not passing.any():
                continue
            score = np.where(passing, 1.0 + sim, 0.0)
            for i, j in assignment.solve(score):
                if passing[i, j]:
                    counts[(gids[i], pids[j])] += 1
        # Above the conflict level no row or column holds two passing
        # entries, so the passing pairs form a matching. Each scores at least
        # 1 + alpha and every other entry 0, so every optimal assignment
        # consists of exactly these pairs: no solve is needed.
        reached = np.searchsorted(grid, sim[hit_g, hit_p], side="right").tolist()
        for i, j, top in zip(hit_g.tolist(), hit_p.tolist(), reached):
            pair = (gids[i], pids[j])
            for counts in pair_counts[solved:top]:
                counts[pair] += 1

    per_alpha = []
    for alpha, counts in zip(ALPHAS, pair_counts):
        tp = sum(counts.values())
        fn = table.gt_total - tp
        fp = table.pred_total - tp
        denom = tp + fn + fp
        if denom == 0:
            deta_a = 1.0
            assa_a = 1.0
        else:
            deta_a = tp / denom
            if tp == 0:
                assa_a = 0.0
            else:
                weighted = 0.0
                for (gid, pid), count in counts.items():
                    alignment = count / (
                        table.gt_presence[gid] + table.pred_presence[pid] - count
                    )
                    weighted += count * alignment
                assa_a = weighted / tp
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
    if values.size and base + int(values.max()) - lo > np.iinfo(np.int64).max:
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
        keys = np.union1d(gt.frame_keys, pred.frame_keys)
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
    merged = [SequenceAnnotations.from_arrays(*map(np.concatenate, zip(*part))) for part in parts]
    return merged[0], merged[1]


def evaluate_many(
    pairs: Sequence[tuple[SequenceAnnotations, SequenceAnnotations]],
) -> MetricsReport:
    """Evaluate several sequences with pooled raw counts."""
    gt, pred = pool_sequences(pairs)
    return evaluate(gt, pred)
