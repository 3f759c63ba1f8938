"""Online cascaded buffered-IoU tracker.

Per frame: alive track states are advanced by their averaged velocity, then
matched to detections in two gated assignment rounds (small buffer first,
large buffer for the leftovers). Matched tracks adopt the detection box as
their new state; unmatched tracks coast and age out after ``max_age`` frames;
unmatched detections start new tracks. Only tracks matched in the current
frame are reported.

``CBiouTracker.step`` advances one frame. It takes the frame's detections in
one of two forms and answers in the same form: a ``Detection`` list gives a
``FrameOutput`` of boxes, and a ``TableFrame``, the frame's rows of a
``DetectionTable``, gives a ``FrameRows`` of table rows. Both go through one
private per-frame core, ``CBiouTracker._advance``, over a corner-form array.
A ``DetectionTable`` holds a sequence's detections as arrays, built once;
``track_table`` steps a tracker over it and returns (frame, track id, table
row) arrays, and ``result_rows`` turns those into result rows, so ``cbiou
track``, ``compare`` and ``grid`` read files into tables and build no
``BoundingBox``. ``run_sequence`` keeps the ``Detection`` mapping as an
input: it builds the table once and wraps the rows into ``FrameOutput``s
that hold each ``Detection``'s own box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import assignment, geometry, motion
from .geometry import MAX_BUFFER_SCALE, SIMILARITY_KINDS, BoundingBox


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
        for name, least in (("max_age", 1), ("n_max", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or value % 1 or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
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
    """One detector output box for one frame."""

    frame: int
    box: BoundingBox
    confidence: float

    def __post_init__(self) -> None:
        if self.frame % 1 or self.frame < 1:
            raise ValueError(f"frame must be a positive integer, got {self.frame!r}")
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


def cascade_match(
    t_xyxy: np.ndarray,
    d_xyxy: np.ndarray,
    config: TrackerConfig,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Two matching rounds: buffer b1 over everything, then b2 over leftovers.

    Takes (N, 4) track states and (M, 4) detection boxes in corner form.
    Returns (matches, unmatched track indices, unmatched detection indices);
    the two rounds' matches are disjoint in both tracks and detections. With
    cascading disabled this is a single gated round with b1.
    """
    n_tracks, n_dets = len(t_xyxy), len(d_xyxy)
    if n_tracks == 0 or n_dets == 0:
        return [], list(range(n_tracks)), list(range(n_dets))
    sim1 = geometry.similarity_matrix(config.similarity_kind, t_xyxy, d_xyxy, config.b1)
    round1 = assignment.gated_match(sim1, config.min_sim)
    matches = list(round1.pairs)
    un_tracks = list(round1.unmatched_rows)
    un_dets = list(round1.unmatched_cols)
    if config.cascade_enabled and un_tracks and un_dets:
        sim2 = geometry.similarity_matrix(
            config.similarity_kind, t_xyxy.take(un_tracks, 0), d_xyxy.take(un_dets, 0), config.b2
        )
        round2 = assignment.gated_match(sim2, config.min_sim)
        matches.extend((un_tracks[i], un_dets[j]) for i, j in round2.pairs)
        un_tracks = [un_tracks[i] for i in round2.unmatched_rows]
        un_dets = [un_dets[j] for j in round2.unmatched_cols]
    matches.sort()
    return matches, un_tracks, un_dets


class DetectionTable:
    """One sequence's detections as arrays, built once and shared by every
    run over the sequence.

    Rows are grouped by ascending frame and keep their given order within a
    frame: ``row_frames`` (N,) int64, each row's frame; ``tlwh`` (N, 4) and
    ``confidence`` (N,), each box and confidence as given, which result rows
    echo; ``xyxy`` (N, 4), the same box in corner form, which matching uses.
    ``frame_keys`` holds every frame the sequence names, ascending, frames
    without rows included: a run steps every frame from the first to the
    last. Each run admits the rows at or above its own ``det_conf_min``.
    The constructor checks that layout with ``geometry.grouped_rows``.
    """

    def __init__(self, frame_keys, row_frames, tlwh, confidence):
        self.frame_keys, self.row_frames, self.tlwh, self.xyxy, self.confidence = geometry.grouped_rows(
            frame_keys, row_frames, tlwh, np.asarray(confidence, dtype=float)
        )

    def __reduce__(self):
        # Rows only: the constructor makes the unpickled arrays read-only again.
        return type(self), (self.frame_keys, self.row_frames, self.tlwh, self.confidence)

    @classmethod
    def from_detections(cls, detections_by_frame: Mapping[int, Sequence[Detection]]) -> "DetectionTable":
        """The table of per-frame ``Detection`` lists."""
        return cls._of(*_detection_rows(detections_by_frame))

    @classmethod
    def _of(cls, frame_keys: list[int], detections: list[Detection]) -> "DetectionTable":
        # One flat pass: a tuple per detection would all be alive at once.
        tlwh = np.fromiter(
            itertools.chain.from_iterable((d.box.x, d.box.y, d.box.w, d.box.h) for d in detections),
            dtype=float,
            count=4 * len(detections),
        ).reshape(-1, 4)
        return cls(frame_keys, [d.frame for d in detections], tlwh, [d.confidence for d in detections])

    def frames(self, det_conf_min: float) -> Iterator[tuple[int, TableFrame]]:
        """Every frame from the table's first to its last, ascending, with
        its rows at or above ``det_conf_min``; a frame without such rows
        gets an empty ``TableFrame``."""
        if not len(self.frame_keys):
            return
        admitted = np.flatnonzero(self.confidence >= det_conf_min)
        rows, confidence = admitted.tolist(), self.confidence[admitted].tolist()
        xyxy = self.xyxy[admitted]
        first, last = int(self.frame_keys[0]), int(self.frame_keys[-1])
        bounds = np.searchsorted(self.row_frames[admitted], np.arange(first, last + 2)).tolist()
        for frame, lo, hi in zip(range(first, last + 1), bounds, bounds[1:]):
            yield frame, TableFrame(xyxy[lo:hi], rows[lo:hi], confidence[lo:hi])


def _detection_rows(
    detections_by_frame: Mapping[int, Sequence[Detection]],
) -> tuple[list[int], list[Detection]]:
    """The frames of a per-frame mapping, ascending, and its detections in
    table row order. A frame must be an integer >= 1 that its detections
    name."""
    frames = []
    for key, dets in detections_by_frame.items():
        if key % 1:  # fractional, NaN or infinite: int() would make 1.5 frame 1
            raise ValueError(f"frame {key!r} is not an integer")
        frame = int(key)
        if frame < 1:
            raise ValueError(f"frame index must be a positive integer, got {key!r}")
        dets = list(dets)
        for det in dets:
            if det.frame != frame:
                raise ValueError(f"detection for frame {det.frame} listed under frame {key!r}")
        frames.append((frame, dets))
    frames.sort(key=lambda item: item[0])
    return [frame for frame, _ in frames], [det for _, dets in frames for det in dets]


class CBiouTracker:
    """State machine over one sequence; feed frames in strictly increasing order.

    Alive tracks are held as arrays in creation order: ids (N,), corner-form
    states (N, 4), ages (N,) in frames since the last match, and each track's
    history window (N, n_max + 1, 5) as laid out in ``motion``.

    ``step`` takes one frame's ``Detection`` list or ``TableFrame``;
    ``track_table`` steps a tracker over a whole ``DetectionTable``.

    Instances are single-threaded; independent instances may run on different
    sequences concurrently.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self._ids = np.zeros(0, dtype=np.int64)
        self._states = np.zeros((0, 4))
        self._ages = np.zeros(0, dtype=np.int64)
        self._history = np.zeros((0, self.config.n_max + 1, 5))
        self._next_id = 1
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
        """Advance to ``frame_index`` and return the records matched in it.

        ``detections`` is the frame's ``Detection`` list, of which the ones
        below ``det_conf_min`` are left out, or a ``TableFrame`` of its
        admitted table rows. The records come in the same form: a
        ``FrameOutput`` of (track id, box, confidence), or a ``FrameRows`` of
        (track id, table row, confidence).

        Frames skipped since the previous step count as frames without
        detections: unmatched tracks age by the elapsed frames, and a track
        that would have aged out inside the gap is gone before matching. The
        tracker is unchanged if this raises.
        """
        if frame_index % 1 or frame_index < 1:
            raise ValueError(f"frame index must be a positive integer, got {frame_index!r}")
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise ValueError(
                f"frame index must increase, got {frame_index} after {self._last_frame}"
            )
        if isinstance(detections, TableFrame):
            tids, picks = self._advance(int(frame_index), detections.xyxy)
            rows, confidence = detections.rows, detections.confidence
            records = tuple([(tid, rows[k], confidence[k]) for tid, k in zip(tids, picks)])
            return FrameRows(frame=int(frame_index), records=records)
        for det in detections:
            if det.frame != frame_index:
                raise ValueError(
                    f"detection for frame {det.frame} passed to step for frame {frame_index}"
                )
        admitted = [d for d in detections if d.confidence >= self.config.det_conf_min]
        tids, dets = self._advance(int(frame_index), geometry.to_xyxy(d.box for d in admitted))
        records = tuple((tid, admitted[di].box, admitted[di].confidence) for tid, di in zip(tids, dets))
        return FrameOutput(frame=int(frame_index), records=records)

    def _advance(self, frame: int, det_xyxy: np.ndarray) -> tuple[list[int], list[int]]:
        """The per-frame core: advance to ``frame``, a frame after the last
        one, with its admitted (M, 4) corner-form detections, and return the
        frame's (track ids, detection indices) in track id order, matched
        tracks first and then the tracks born from unmatched detections.
        The tracker is unchanged if this raises."""
        cfg = self.config
        ids, states, ages, history = self._ids, self._states, self._ages, self._history

        if len(ids):
            elapsed = frame - self._last_frame
            if elapsed > 1:
                # A track whose age would pass max_age inside the gap died there.
                ids, states, ages, history = _rows(
                    (ages + (elapsed - 1) <= cfg.max_age).nonzero()[0], ids, states, ages, history
                )
            ages = ages + elapsed
            # Survivors have elapsed <= max_age + 1, which bounds the predict loop.
            if cfg.motion_enabled and len(ids):
                velocity = motion.average_velocity(history)
                states, _ = motion.predict(states, velocity, elapsed)

        matches, _, un_dets = cascade_match(states, det_xyxy, cfg)
        first_born = self._next_id
        if matches:
            ti, di = np.array(matches).T
            matched = det_xyxy.take(di, 0)
            states[ti] = matched
            ages[ti] = 0
            window = history.take(ti, 0)
            window[:, :-1] = window[:, 1:]
            window[:, -1, 0] = frame
            window[:, -1, 1:] = matched
            history[ti] = window
            # Ids ascend in creation order, and matches come sorted by track.
            tids, dets = ids.take(ti).tolist(), di.tolist()
        else:
            tids, dets = [], []
        alive = (ages <= cfg.max_age).nonzero()[0]
        if len(alive) < len(ids):
            ids, states, ages, history = _rows(alive, ids, states, ages, history)
        if un_dets:
            born = det_xyxy.take(un_dets, 0)
            born_ids = np.arange(first_born, first_born + len(un_dets))
            # A new track fills its whole window with its birth entry.
            window = np.empty((len(un_dets), cfg.n_max + 1, 5))
            window[..., 0] = frame
            window[..., 1:] = born[:, None]
            ids = np.concatenate((ids, born_ids))
            states = np.concatenate((states, born))
            ages = np.concatenate((ages, np.zeros(len(un_dets), dtype=np.int64)))
            history = np.concatenate((history, window))
            self._next_id += len(un_dets)
            tids += born_ids.tolist()
            dets += un_dets

        self._ids, self._states, self._ages, self._history = ids, states, ages, history
        self._last_frame = frame
        return tids, dets


def _rows(index: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows ``index`` of each array."""
    return tuple(values.take(index, 0) for values in arrays)


def track_table(config: TrackerConfig, table: DetectionTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a tracker over every frame of ``table`` from its first frame to
    its last, as ``run_sequence`` does, and return every reported record as
    (frames, track ids, table rows) int64 arrays, ordered by frame and then
    by track id."""
    return tuple(np.array(values, dtype=np.int64) for values in _track(config, table))


def _track(config: TrackerConfig, table: DetectionTable) -> tuple[list[int], list[int], list[int]]:
    """``track_table``'s columns as lists, which ``run_sequence`` reads
    without a copy per record."""
    tracker = CBiouTracker(config)
    frames, records = [], []
    for frame, detections in table.frames(config.det_conf_min):
        matched = tracker.step(frame, detections).records
        if matched:
            frames += [frame] * len(matched)
            records += matched
    return frames, [tid for tid, _, _ in records], [row for _, row, _ in records]


def result_rows(
    config: TrackerConfig, table: DetectionTable, *, interpolate_gaps: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Track ``table`` and return the result rows as (frames, track ids,
    tlwh, confidence) arrays, each box and confidence as the table holds it.
    Rows are ordered by frame and then by track id, unless
    ``interpolate_gaps`` adds the rows of ``_interpolate_gaps`` after them."""
    frames, tids, rows = track_table(config, table)
    columns = (frames, tids, table.tlwh[rows], table.confidence[rows])
    if interpolate_gaps:
        columns = tuple(map(np.concatenate, zip(columns, _interpolate_gaps(*columns))))
    return columns


def run_sequence(
    config: TrackerConfig,
    detections_by_frame: Mapping[int, Sequence[Detection]],
    *,
    interpolate_gaps: bool = False,
) -> list[FrameOutput]:
    """Drive a tracker over a whole sequence of per-frame detection lists.

    Frame indices absent from the mapping are treated as frames with zero
    detections; a frame key must be an integer >= 1 that its detections
    name. With ``interpolate_gaps`` the reported boxes of each track are
    linearly interpolated across its match gaps as a post-processing step.
    Each reported record holds its ``Detection``'s own box and confidence.
    """
    frame_keys, detections = _detection_rows(detections_by_frame)
    if not frame_keys:
        return []
    table = DetectionTable._of(frame_keys, detections)
    frames, tids, rows = _track(config, table)
    by_frame: dict[int, list] = {}
    for frame, tid, row in zip(frames, tids, rows):
        det = detections[row]
        by_frame.setdefault(frame, []).append((tid, det.box, det.confidence))
    if interpolate_gaps:
        frames, tids, rows = (np.array(values, dtype=np.int64) for values in (frames, tids, rows))
        added = _interpolate_gaps(frames, tids, table.tlwh[rows], table.confidence[rows])
        for frame, tid, tlwh, conf in zip(*(column.tolist() for column in added)):
            by_frame.setdefault(frame, []).append((tid, BoundingBox(*tlwh), conf))
        for records in by_frame.values():
            records.sort(key=lambda rec: rec[0])
    return [
        FrameOutput(frame=frame, records=tuple(by_frame.get(frame, ())))
        for frame in range(frame_keys[0], frame_keys[-1] + 1)
    ]


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
    bad = ~geometry.valid_tlwh(filled_tlwh)
    if bad.any():
        BoundingBox(*filled_tlwh[np.argmax(bad)].tolist())
    return frames[lo] + offset, tids[lo], filled_tlwh, filled_conf
