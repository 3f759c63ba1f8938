"""Online cascaded buffered-IoU tracker.

Per frame: alive track states are advanced by their averaged velocity, then
matched to detections in two gated assignment rounds (small buffer first,
large buffer for the leftovers). Matched tracks adopt the detection box as
their new state; unmatched tracks coast and age out after ``max_age`` frames;
unmatched detections start new tracks. Only tracks matched in the current
frame are reported.

``CBiouTracker(*configs)`` is the one constructor: of ``TrackerConfig()``
when no config is given, else of the configs, its cells, which step in
lockstep through one per-frame core, ``CBiouTracker._step_cells``. The
cells' alive tracks share one set of arrays, grouped by cell. Per frame,
prediction runs once over the rows of the cells with motion;
``cascade_match``, given the cells' matching plan and row bounds, makes one
similarity call per run of consecutive cells with the same (kind, b1), and
one per (kind, b2) over the cascade cells' leftovers; aging, deaths and
births run once over the shared arrays. Each cell's records equal those of
its config run alone.

A ``Detection`` is a box and a confidence. Its frame is stated once, by the
key it is listed under in a per-frame mapping or by the frame index of the
``step`` it is passed to, and every frame key of a table is an integer >= 1.

``CBiouTracker.step`` advances one frame. It takes the frame's detections in
one of two forms and answers in the same form: a ``Detection`` list gives a
``FrameOutput`` of boxes, and a ``TableFrame``, the frame's rows of a
``DetectionTable``, gives a ``FrameRows`` of table rows. A ``DetectionTable``
holds a sequence's detections as arrays, built once; ``track_cells`` steps
a tracker over it and returns each cell's (frame, track id, table row)
arrays, and ``result_rows`` turns one config's into result rows, gaps
filled on request. So ``cbiou track``, ``compare`` and ``grid`` build no
``BoundingBox``. ``run_sequence`` keeps the ``Detection`` mapping as an
input and wraps the rows into ``FrameOutput``s that hold each
``Detection``'s own box.

The one gap rule: every run steps only the frames it is given (a table
run, the frames with admitted rows) and crosses the frames between in one
step. ``motion.predict`` re-centres a collapsed prediction frame by frame,
so that step equals stepping each empty frame, and a run's work is bounded
by its rows and ``max_age``, not by the span of its frame numbers.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import assignment, geometry, motion
from .geometry import MAX_BUFFER_SCALE, SIMILARITY_KINDS, BoundingBox

# Bounds on the two fields that size the work of one step: a step across a
# gap predicts up to max_age + 1 frames, and each born track keeps n_max + 1
# history slots.
MAX_AGE_LIMIT = 10_000
N_MAX_LIMIT = 1_000


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker knobs; the defaults are the cascaded buffered-IoU setup.

    ``similarity_kind``, ``cascade_enabled`` and ``motion_enabled`` exist so
    ablation variants (plain IoU/GIoU/DIoU trackers, single-round buffered
    matching, no motion) run in the same framework.
    """

    b1: float = 0.3
    b2: float = 0.4
    max_age: int = 30
    n_max: int = 5
    min_sim: float = assignment.DEFAULT_MIN_SIMILARITY
    det_conf_min: float = 0.1
    similarity_kind: str = "biou"
    cascade_enabled: bool = True
    motion_enabled: bool = True

    def __post_init__(self) -> None:
        # Cells stepped together are grouped by these fields, and manifests
        # record them: a switch must be a bool, and a number is stored as float.
        for name in ("cascade_enabled", "motion_enabled"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        for name in ("b1", "b2", "min_sim", "det_conf_min"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("b1", "b2"):
            scale = getattr(self, name)
            if not (math.isfinite(scale) and 0 <= scale <= MAX_BUFFER_SCALE):
                raise ValueError(
                    f"{name} must be finite and in [0, {MAX_BUFFER_SCALE:g}], got {scale!r}"
                )
        if self.cascade_enabled and self.b2 <= self.b1:
            raise ValueError(
                f"cascaded matching requires b1 < b2, got b1={self.b1!r}, b2={self.b2!r}"
            )
        for name, least, most in (("max_age", 1, MAX_AGE_LIMIT), ("n_max", 2, N_MAX_LIMIT)):
            value = getattr(self, name)
            if isinstance(value, bool) or value % 1 or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            if value > most:
                raise ValueError(f"{name} must be at most {most}, got {value!r}")
            # Stored as int: n_max sizes the history window, and 5.0 is no shape.
            object.__setattr__(self, name, int(value))
        if not math.isfinite(self.min_sim):
            raise ValueError(f"min_sim must be finite, got {self.min_sim!r}")
        if not (0.0 <= self.det_conf_min <= 1.0):
            raise ValueError(f"det_conf_min must be in [0, 1], got {self.det_conf_min!r}")
        if self.similarity_kind not in SIMILARITY_KINDS:
            raise ValueError(
                f"similarity_kind must be one of {SIMILARITY_KINDS}, got {self.similarity_kind!r}"
            )


@dataclass(frozen=True)
class Detection:
    """One detector output: a box and its confidence. Its frame is the key
    or step it is listed under, an integer >= 1."""

    box: BoundingBox
    confidence: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.confidence):
            raise ValueError(f"confidence must be finite, got {self.confidence!r}")


@dataclass(frozen=True)
class FrameOutput:
    """Records reported for one frame: (track id, box, confidence) tuples."""

    frame: int
    records: tuple[tuple[int, BoundingBox, float], ...]


@dataclass(frozen=True)
class FrameRows:
    """Records reported for one frame of a ``DetectionTable``: (track id,
    table row, confidence) tuples; the row holds the box as the table has it."""

    frame: int
    records: tuple[tuple[int, int, float], ...]


class TableFrame(NamedTuple):
    """One frame's admitted rows of a ``DetectionTable``, as
    ``DetectionTable.frames`` yields them: their (M, 4) corners, their row
    numbers in the table and their confidences."""

    xyxy: np.ndarray
    rows: list[int]
    confidence: list[float]


class _Rounds:
    """The matching plan of a tracker's cells, built once: round 1 as runs
    of consecutive cells with the same (kind, b1), round 2 as the cascade
    cells grouped by (kind, b2), and each cell's gate and cascade switch."""

    def __init__(self, configs: Sequence[TrackerConfig]):
        self.round1: list[tuple[str, float, int, int]] = []  # (kind, b1, first cell, stop cell)
        for k, config in enumerate(configs):
            key = (config.similarity_kind, config.b1)
            if self.round1 and self.round1[-1][:2] == key:
                self.round1[-1] = (*key, self.round1[-1][2], k + 1)
            else:
                self.round1.append((*key, k, k + 1))
        round2: dict[tuple[str, float], list[int]] = {}
        for k, config in enumerate(configs):
            if config.cascade_enabled:
                round2.setdefault((config.similarity_kind, config.b2), []).append(k)
        self.round2 = [(kind, b2, cells) for (kind, b2), cells in round2.items()]
        self.min_sim = [config.min_sim for config in configs]
        self.cascade = [config.cascade_enabled for config in configs]


def cascade_match(t_xyxy: np.ndarray, d_xyxy: np.ndarray, rounds: _Rounds, bounds: Sequence[int]):
    """Two matching rounds per cell: buffer b1 over everything, then b2 over
    the leftovers; a cell without cascading has the b1 round only.

    Takes (N, 4) track states and (M, 4) detection boxes in corner form, the
    cells' ``_Rounds`` and their bounds: cell k's tracks are rows
    ``bounds[k]:bounds[k + 1]``, matched alone against every detection.
    Returns the (row, detection) matches sorted by row, then the unmatched
    rows and the unmatched detections, one sequence per cell; a cell's two
    rounds match disjoint tracks and detections. Round 1 makes one
    similarity call per run of cells with the same (kind, b1), and round 2
    one per (kind, b2) over those cascade cells' leftover tracks; each
    cell's ``gated_match`` takes its own block. Every similarity entry
    depends only on its two boxes, so the blocks hold the bits of matrices
    made for each cell alone.
    """
    n_cells = len(bounds) - 1
    matches: list[tuple[int, int]] = []
    left_dets = [range(len(d_xyxy))] * n_cells
    if not len(d_xyxy) or not bounds[-1]:
        left_tracks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    else:
        left_tracks = [()] * n_cells  # each cell with tracks meets round 1
        waiting = []  # the cascade cells with tracks and detections left
        for kind, b1, first, stop in rounds.round1:
            lo, hi = bounds[first], bounds[stop]
            if lo == hi:
                continue
            sim = geometry.similarity_matrix(kind, t_xyxy[lo:hi], d_xyxy, b1)
            for k in range(first, stop):
                a, b = bounds[k], bounds[k + 1]
                if a == b:
                    continue
                found = assignment.gated_match(sim[a - lo : b - lo], rounds.min_sim[k])
                if a:
                    matches += [(a + i, j) for i, j in found.pairs]
                    left_tracks[k] = [a + i for i in found.unmatched_rows]
                else:  # the first rows: their indices need no offset
                    matches += found.pairs
                    left_tracks[k] = found.unmatched_rows
                left_dets[k] = found.unmatched_cols
                if rounds.cascade[k] and found.unmatched_rows and found.unmatched_cols:
                    waiting.append(k)
        for kind, b2, cascaded in rounds.round2 if waiting else ():
            cells = [k for k in cascaded if k in waiting]
            if not cells:
                continue
            rows = list(itertools.chain.from_iterable([left_tracks[k] for k in cells]))
            sim = geometry.similarity_matrix(kind, t_xyxy.take(rows, 0), d_xyxy, b2)
            top = 0
            for k in cells:
                tracks, dets = left_tracks[k], left_dets[k]
                block = sim[top : top + len(tracks)].take(dets, 1)
                top += len(tracks)
                found = assignment.gated_match(block, rounds.min_sim[k])
                matches += [(tracks[i], dets[j]) for i, j in found.pairs]
                left_tracks[k] = [tracks[i] for i in found.unmatched_rows]
                left_dets[k] = [dets[j] for j in found.unmatched_cols]
        matches.sort()
    return matches, left_tracks, left_dets


class DetectionTable:
    """One sequence's detections as arrays, built once and shared by every
    run over the sequence.

    Rows are grouped by ascending frame and keep their given order within a
    frame: ``row_frames`` (N,) int64, each row's frame; ``tlwh`` (N, 4) and
    ``confidence`` (N,), each box and confidence as given, which result rows
    echo; ``xyxy`` (N, 4), the same box in corner form, which matching uses.
    ``frame_keys`` holds every frame the sequence names, ascending, frames
    without rows included; each is an integer >= 1, and so is every row's
    frame. Each run admits the rows at or above its own ``det_conf_min``.
    The constructor checks that layout with ``geometry.grouped_rows`` and
    the least frame key, then that each row would make a ``Detection`` (a
    box ``BoundingBox`` accepts, a finite confidence): the first that would
    not raises that ``ValueError``, named by its row.
    """

    def __init__(self, frame_keys, row_frames, tlwh, confidence):
        self.frame_keys, self.row_frames, self.tlwh, self.xyxy, self.confidence = geometry.grouped_rows(
            frame_keys, row_frames, tlwh, np.asarray(confidence, dtype=float)
        )
        # Every row's frame is a key, so the least key bounds them all.
        if len(self.frame_keys) and self.frame_keys[0] < 1:
            raise ValueError(f"frame {self.frame_keys[0]} is below 1")
        geometry.raise_first_bad_row(
            ~geometry.valid_tlwh(self.tlwh) | ~np.isfinite(self.confidence),
            lambda row: Detection(BoundingBox(*self.tlwh[row].tolist()), float(self.confidence[row])),
            "detection",
        )

    def __reduce__(self):
        # Rows only: the constructor makes the unpickled arrays read-only again.
        return type(self), (self.frame_keys, self.row_frames, self.tlwh, self.confidence)

    @classmethod
    def from_detections(cls, detections_by_frame: Mapping[int, Sequence[Detection]]) -> "DetectionTable":
        """The table of per-frame ``Detection`` lists, each listed under its
        frame, an integer >= 1; rows keep their list order within a frame."""
        return cls._of(detections_by_frame)[0]

    @classmethod
    def _of(cls, detections_by_frame: Mapping[int, Sequence[Detection]]) -> tuple["DetectionTable", list[Detection]]:
        """The table of ``from_detections`` and its detections in row order."""
        frames = sorted(detections_by_frame.items(), key=lambda item: item[0])
        detections = [det for _, dets in frames for det in dets]
        # One flat pass: a tuple per detection would all be alive at once.
        tlwh = np.fromiter(
            itertools.chain.from_iterable((d.box.x, d.box.y, d.box.w, d.box.h) for d in detections),
            dtype=float,
            count=4 * len(detections),
        ).reshape(-1, 4)
        keys = [key for key, _ in frames]
        row_frames = np.repeat(keys, [len(dets) for _, dets in frames])
        return cls(keys, row_frames, tlwh, [d.confidence for d in detections]), detections

    def frames(self, det_conf_min: float) -> Iterator[tuple[int, TableFrame]]:
        """Each frame with rows at or above ``det_conf_min``, ascending, with
        those rows; a frame without such rows is not yielded."""
        admitted = np.flatnonzero(self.confidence >= det_conf_min)
        rows, confidence = admitted.tolist(), self.confidence[admitted].tolist()
        xyxy = self.xyxy[admitted]
        frames, starts = np.unique(self.row_frames[admitted], return_index=True)
        bounds = [*starts.tolist(), len(rows)]
        for frame, lo, hi in zip(frames.tolist(), bounds, bounds[1:]):
            yield frame, TableFrame(xyxy[lo:hi], rows[lo:hi], confidence[lo:hi])


class CBiouTracker:
    """State machine over one sequence; feed frames in strictly increasing order.

    Alive tracks are held as arrays: ids (N,), corner-form states (N, 4),
    ages (N,) in frames since the last match, and each track's history
    window (N, n_max + 1, 5) as laid out in ``motion``.

    ``CBiouTracker(*configs)`` is the tracker of the given configs, its
    cells, in that order, or of ``TrackerConfig()`` when none is given. The
    cells step the same frames in lockstep through the same per-frame core,
    ``_step_cells``. Their tracks share the arrays above, grouped by cell
    (``_cells`` holds each row's cell) and in creation order within a cell,
    and every cell numbers its own tracks: cell k of K gives its n-th track
    the id ``(n - 1) * K + k + 1``, so one cell's ids are 1, 2, 3, ... and
    an id names its cell. The cells share ``det_conf_min``, which admits the
    detections before any cell sees them, and ``n_max``, which shapes the
    shared history; ``config`` is the first cell's.

    ``step`` takes one frame's ``Detection`` list or ``TableFrame``;
    ``track_cells`` steps a tracker over a whole ``DetectionTable``.

    Instances are single-threaded; independent instances may run on different
    sequences concurrently.
    """

    def __init__(self, *configs: TrackerConfig):
        configs = configs or (TrackerConfig(),)
        self.config = first = configs[0]
        for config in configs:
            if (config.det_conf_min, config.n_max) != (first.det_conf_min, first.n_max):
                raise ValueError(
                    "cells stepped together must share det_conf_min and n_max, got "
                    f"{(first.det_conf_min, first.n_max)} and {(config.det_conf_min, config.n_max)}"
                )
        self._rounds = _Rounds(configs)
        max_ages = [config.max_age for config in configs]
        # One bound for every row when the cells share it, as one config does.
        self._max_age = max_ages[0] if len(set(max_ages)) == 1 else np.array(max_ages)
        moving = [config.motion_enabled for config in configs]
        # Every cell, none, or the cells whose rows a mask picks.
        self._motion = all(moving) or (np.array(moving) if any(moving) else False)
        self._born = [0] * len(configs)
        self._edges = np.arange(len(configs) + 1)
        self._ids = np.zeros(0, dtype=np.int64)
        self._states = np.zeros((0, 4))
        self._ages = np.zeros(0, dtype=np.int64)
        self._history = np.zeros((0, first.n_max + 1, 5))
        self._cells = np.zeros(0, dtype=np.int64)
        self._last_frame: int | None = None

    @property
    def tracks(self) -> tuple[tuple[int, tuple[float, float, float, float], int], ...]:
        """Alive tracks in creation order, as (id, (x1, y1, x2, y2), age) tuples."""
        return tuple(
            (tid, tuple(state), age)
            for tid, state, age in zip(
                self._ids.tolist(), self._states.tolist(), self._ages.tolist()
            )
        )

    def step(
        self, frame_index: int, detections: Sequence[Detection] | TableFrame
    ) -> FrameOutput | FrameRows:
        """Advance to ``frame_index``, an integer >= 1, and return the records
        matched in it.

        ``detections`` is the frame's ``Detection`` list, whose frame is
        ``frame_index``, of which the ones below ``det_conf_min`` are left
        out, or a ``TableFrame`` of its admitted table rows. The records come
        in the same form: a ``FrameOutput`` of (track id, box, confidence),
        or a ``FrameRows`` of (track id, table row, confidence).

        Frames skipped since the previous step count as frames without
        detections, crossed in this one step: unmatched tracks age by the
        elapsed frames, a track that would have aged out inside the gap is
        gone before matching, and the others are predicted frame by frame
        (see ``motion.predict``), as if each empty frame had been stepped.
        The tracker is unchanged if this raises.
        """
        if frame_index % 1 or frame_index < 1:
            raise ValueError(f"frame index must be a positive integer, got {frame_index!r}")
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise ValueError(
                f"frame index must increase, got {frame_index} after {self._last_frame}"
            )
        frame = int(frame_index)
        if isinstance(detections, TableFrame):
            tids, picks = self._step_cells(frame, detections.xyxy)
            rows, confidence = detections.rows, detections.confidence
            records = tuple([(tid, rows[k], confidence[k]) for tid, k in zip(tids, picks)])
            return FrameRows(frame=frame, records=records)
        conf_min = self.config.det_conf_min
        admitted = [d for d in detections if d.confidence >= conf_min]
        tids, dets = self._step_cells(frame, geometry.to_xyxy([d.box for d in admitted]))
        records = tuple([(tid, admitted[di].box, admitted[di].confidence) for tid, di in zip(tids, dets)])
        return FrameOutput(frame=frame, records=records)

    def _age_limits(self, cells: np.ndarray):
        """The max_age of each row's cell, or of every row."""
        return self._max_age if type(self._max_age) is int else self._max_age[cells]

    def _step_cells(self, frame: int, det_xyxy: np.ndarray) -> tuple[list[int], list[int]]:
        """The per-frame core: advance every cell to ``frame``, a frame after
        the last one, with its admitted (M, 4) corner-form detections, and
        return the frame's (track ids, detection indices): the matched tracks
        by cell and then by id, then the tracks born from each cell's
        unmatched detections, by cell. Within a cell that is id order. The
        tracker is unchanged if this raises."""
        ids, states, ages, history, cells = self._ids, self._states, self._ages, self._history, self._cells
        n_cells = len(self._born)

        if len(ids):
            elapsed = frame - self._last_frame
            if elapsed > 1:
                # A track whose age would pass max_age inside the gap died there.
                ids, states, ages, history, cells = _rows(
                    (ages + (elapsed - 1) <= self._age_limits(cells)).nonzero()[0], ids, states, ages, history, cells
                )
            ages = ages + elapsed
            # Survivors have elapsed <= max_age + 1, which bounds the predict loop.
            if self._motion is True:
                if len(ids):
                    states, _ = motion.predict(states, motion.average_velocity(history), elapsed)
            elif self._motion is not False:
                moving = self._motion[cells].nonzero()[0]
                if len(moving):
                    predicted, _ = motion.predict(states[moving], motion.average_velocity(history[moving]), elapsed)
                    states = states.copy()
                    states[moving] = predicted

        bounds = np.searchsorted(cells, self._edges).tolist() if n_cells > 1 else (0, len(ids))
        matches, _, un_dets = cascade_match(states, det_xyxy, self._rounds, bounds)
        if matches:
            ti, di = np.fromiter(itertools.chain.from_iterable(matches), np.intp, 2 * len(matches)).reshape(-1, 2).T
            matched = det_xyxy.take(di, 0)
            states[ti] = matched
            ages[ti] = 0
            window = history.take(ti, 0)
            window[:, :-1] = window[:, 1:]
            window[:, -1, 0] = frame
            window[:, -1, 1:] = matched
            history[ti] = window
            # Matches come sorted by row: by cell, then in creation order.
            tids, dets = ids.take(ti).tolist(), di.tolist()
        else:
            tids, dets = [], []
        alive = (ages <= self._age_limits(cells)).nonzero()[0]
        if len(alive) < len(ids):
            ids, states, ages, history, cells = _rows(alive, ids, states, ages, history, cells)
        born = self._born
        if any(un_dets):
            born, born_ids, born_dets, born_cells = list(born), [], [], []
            for k, un in enumerate(un_dets):
                if un:
                    start, born[k] = born[k], born[k] + len(un)
                    born_ids += range(start * n_cells + k + 1, born[k] * n_cells + k + 1, n_cells)
                    born_dets += un
                    born_cells += [k] * len(un)
            new = det_xyxy.take(born_dets, 0)
            # A new track fills its whole window with its birth entry.
            window = np.empty((len(born_dets), history.shape[1], 5))
            window[..., 0] = frame
            window[..., 1:] = new[:, None]
            grouped = not len(cells) or cells[-1] <= born_cells[0]
            ids = np.concatenate((ids, born_ids))
            states = np.concatenate((states, new))
            ages = np.concatenate((ages, np.zeros(len(born_dets), dtype=np.int64)))
            history = np.concatenate((history, window))
            cells = np.concatenate((cells, born_cells))
            if not grouped:
                # Each cell's births go after its own rows, which keeps them in creation order.
                ids, states, ages, history, cells = _rows(
                    np.argsort(cells, kind="stable"), ids, states, ages, history, cells
                )
            tids += born_ids
            dets += born_dets
        self._ids, self._states, self._ages, self._history, self._cells = ids, states, ages, history, cells
        self._born = born
        self._last_frame = frame
        return tids, dets


def _rows(index: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows ``index`` of each array."""
    return tuple(values.take(index, 0) for values in arrays)


def track_cells(
    configs: Sequence[TrackerConfig], table: DetectionTable
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run the tracker of each config over ``table`` and return each
    config's reported records as (frames, track ids, table rows) int64
    arrays, ordered by frame and then by track id.

    The configs are the cells of one tracker (see ``CBiouTracker``): they
    step the table's frames with admitted rows in lockstep, so each frame is
    read once and each similarity matrix scores several cells' tracks. They
    must share ``det_conf_min`` and ``n_max``; other mixes raise
    ``ValueError``. Each cell's records equal those of its config run alone.
    """
    if not configs:
        raise ValueError("a tracker needs at least one config")
    tracker = CBiouTracker(*configs)
    frames, records = [], []
    for frame, detections in table.frames(tracker.config.det_conf_min):
        matched = tracker.step(frame, detections).records
        frames += [frame] * len(matched)
        records += matched
    frames, tids, rows = (
        np.array(values, dtype=np.int64)
        for values in (frames, [tid for tid, _, _ in records], [row for _, row, _ in records])
    )
    # Cell k of K numbers its n-th track (n - 1) * K + k + 1.
    serial, cells = np.divmod(tids - 1, len(configs))
    order = np.argsort(cells, kind="stable")
    frames, tids, rows, cells = frames[order], serial[order] + 1, rows[order], cells[order]
    bounds = np.searchsorted(cells, np.arange(len(configs) + 1)).tolist()
    return [(frames[lo:hi], tids[lo:hi], rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def result_rows(
    config: TrackerConfig, table: DetectionTable, *, interpolate_gaps: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Track ``table`` and return the result rows as (frames, track ids,
    tlwh, confidence) arrays, each box and confidence as the table holds it.
    Rows are ordered by frame and then by track id, unless
    ``interpolate_gaps`` adds the rows of ``_interpolate_gaps`` after them."""
    frames, tids, rows = track_cells([config], table)[0]
    columns = (frames, tids, table.tlwh[rows], table.confidence[rows])
    if interpolate_gaps:
        columns = tuple(map(np.concatenate, zip(columns, _interpolate_gaps(*columns))))
    return columns


def run_sequence(config: TrackerConfig, detections_by_frame: Mapping[int, Sequence[Detection]]) -> list[FrameOutput]:
    """Drive a tracker over a whole sequence of per-frame detection lists,
    and return one ``FrameOutput`` per key of the mapping, ascending.

    Frame indices absent from the mapping are treated as frames with zero
    detections. A detection's frame is the key it is listed under, and the
    keys are integers >= 1. Each reported record holds its ``Detection``'s
    own box and confidence. ``result_rows`` fills a track's gaps.
    """
    table, detections = DetectionTable._of(detections_by_frame)
    frames, tids, rows = track_cells([config], table)[0]
    by_frame: dict[int, list] = {frame: [] for frame in table.frame_keys.tolist()}
    for frame, tid, row in zip(frames.tolist(), tids.tolist(), rows.tolist()):
        det = detections[row]
        by_frame[frame].append((tid, det.box, det.confidence))
    return [FrameOutput(frame=frame, records=tuple(records)) for frame, records in by_frame.items()]


def _interpolate_gaps(
    frames: np.ndarray, tids: np.ndarray, tlwh: np.ndarray, confidence: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows that fill each track's match gaps, linearly interpolated
    between the rows around the gap, as (frames, track ids, tlwh,
    confidence) in (track id, frame) order.

    A filled box must pass ``BoundingBox``'s check: the first one, in that
    order, that does not raises its ``ValueError``.
    """
    order = np.lexsort((frames, tids))
    frames, tids, tlwh, confidence = frames[order], tids[order], tlwh[order], confidence[order]
    spans = frames[1:] - frames[:-1]
    before = np.flatnonzero((tids[1:] == tids[:-1]) & (spans > 1))
    missing = spans[before] - 1
    # Row k of the output fills frame f0 + offset of the gap after row before[gap].
    gap = np.repeat(np.arange(len(before)), missing)
    offset = np.arange(len(gap)) - np.repeat(np.cumsum(missing) - missing, missing) + 1
    lo = before[gap]
    t = offset / spans[lo]
    filled_tlwh = tlwh[lo] + t[:, None] * (tlwh[lo + 1] - tlwh[lo])
    filled_conf = confidence[lo] + t * (confidence[lo + 1] - confidence[lo])
    geometry.raise_first_bad_row(
        ~geometry.valid_tlwh(filled_tlwh), lambda row: BoundingBox(*filled_tlwh[row].tolist())
    )
    return frames[lo] + offset, tids[lo], filled_tlwh, filled_conf
