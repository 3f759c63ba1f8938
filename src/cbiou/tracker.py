"""Online cascaded buffered-IoU tracker.

Per frame: alive track states are advanced by their averaged velocity, then
matched to detections in two gated assignment rounds (small buffer first,
large buffer for the leftovers). Matched tracks adopt the detection box as
their new state; unmatched tracks coast and age out after ``max_age`` frames;
unmatched detections start new tracks. Only tracks matched in the current
frame are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

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
        if self.max_age % 1 or self.max_age < 1:
            raise ValueError(f"max_age must be an integer >= 1, got {self.max_age!r}")
        if self.n_max % 1 or self.n_max < 2:
            raise ValueError(f"n_max must be an integer >= 2, got {self.n_max!r}")
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
            config.similarity_kind, t_xyxy[un_tracks], d_xyxy[un_dets], config.b2
        )
        round2 = assignment.gated_match(sim2, config.min_sim)
        matches.extend((un_tracks[i], un_dets[j]) for i, j in round2.pairs)
        un_tracks = [un_tracks[i] for i in round2.unmatched_rows]
        un_dets = [un_dets[j] for j in round2.unmatched_cols]
    matches.sort()
    return matches, un_tracks, un_dets


class CBiouTracker:
    """State machine over one sequence; feed frames in strictly increasing order.

    Alive tracks are held as arrays in creation order: ids (N,), corner-form
    states (N, 4), ages (N,) in frames since the last match, and each track's
    history window (N, n_max + 1, 5) as laid out in ``motion``.

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

    def step(self, frame_index: int, detections: Sequence[Detection]) -> FrameOutput:
        """Advance to ``frame_index`` and return the records matched in it.

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
        for det in detections:
            if det.frame != frame_index:
                raise ValueError(
                    f"detection for frame {det.frame} passed to step for frame {frame_index}"
                )
        cfg = self.config
        admitted = [d for d in detections if d.confidence >= cfg.det_conf_min]
        det_xyxy = geometry.to_xyxy(d.box for d in admitted)
        ids, states, ages, history = self._ids, self._states, self._ages, self._history

        if len(ids):
            elapsed = int(frame_index) - self._last_frame
            if elapsed > 1:
                # A track whose age would pass max_age inside the gap died there.
                alive = ages + (elapsed - 1) <= cfg.max_age
                ids, states, ages, history = ids[alive], states[alive], ages[alive], history[alive]
            ages = ages + elapsed
            # Survivors have elapsed <= max_age + 1, which bounds the predict loop.
            if cfg.motion_enabled and len(ids):
                velocity = motion.average_velocity(history)
                states, _ = motion.predict(states, velocity, elapsed)

        matches, _, un_dets = cascade_match(states, det_xyxy, cfg)
        born_ids = list(range(self._next_id, self._next_id + len(un_dets)))
        owners = [(int(ids[ti]), di) for ti, di in matches] + list(zip(born_ids, un_dets))
        records = tuple(
            (tid, admitted[di].box, admitted[di].confidence) for tid, di in sorted(owners)
        )

        if matches:
            ti, di = np.asarray(matches).T
            states[ti] = det_xyxy[di]
            ages[ti] = 0
            history[ti, :-1] = history[ti, 1:]
            history[ti, -1, 0] = frame_index
            history[ti, -1, 1:] = states[ti]
        alive = ages <= cfg.max_age
        if not alive.all():
            ids, states, ages, history = ids[alive], states[alive], ages[alive], history[alive]
        if un_dets:
            born = det_xyxy[un_dets]
            # A new track fills its whole window with its birth entry.
            window = np.empty((len(un_dets), cfg.n_max + 1, 5))
            window[..., 0] = frame_index
            window[..., 1:] = born[:, None]
            ids = np.concatenate((ids, born_ids))
            states = np.concatenate((states, born))
            ages = np.concatenate((ages, np.zeros(len(un_dets), dtype=np.int64)))
            history = np.concatenate((history, window))
            self._next_id += len(un_dets)

        self._ids, self._states, self._ages, self._history = ids, states, ages, history
        self._last_frame = int(frame_index)
        return FrameOutput(frame=int(frame_index), records=records)


def run_sequence(
    config: TrackerConfig,
    detections_by_frame: Mapping[int, Sequence[Detection]],
    *,
    interpolate_gaps: bool = False,
) -> list[FrameOutput]:
    """Drive a tracker over a whole sequence of per-frame detection lists.

    Frame indices absent from the mapping are treated as frames with zero
    detections. With ``interpolate_gaps`` the reported boxes of each track are
    linearly interpolated across its match gaps as a post-processing step.
    """
    if not detections_by_frame:
        return []
    frames = sorted(int(f) for f in detections_by_frame)
    tracker = CBiouTracker(config)
    outputs = [
        tracker.step(f, list(detections_by_frame.get(f, ())))
        for f in range(frames[0], frames[-1] + 1)
    ]
    if interpolate_gaps:
        outputs = _interpolate_gaps(outputs)
    return outputs


def _interpolate_gaps(outputs: list[FrameOutput]) -> list[FrameOutput]:
    by_track: dict[int, list[tuple[int, BoundingBox, float]]] = {}
    for out in outputs:
        for tid, box, conf in out.records:
            by_track.setdefault(tid, []).append((out.frame, box, conf))
    extra: dict[int, list[tuple[int, BoundingBox, float]]] = {}
    for tid, entries in by_track.items():
        for (f0, b0, c0), (f1, b1, c1) in zip(entries, entries[1:]):
            for f in range(f0 + 1, f1):
                t = (f - f0) / (f1 - f0)
                box = BoundingBox(
                    b0.x + t * (b1.x - b0.x),
                    b0.y + t * (b1.y - b0.y),
                    b0.w + t * (b1.w - b0.w),
                    b0.h + t * (b1.h - b0.h),
                )
                extra.setdefault(f, []).append((tid, box, c0 + t * (c1 - c0)))
    if not extra:
        return outputs
    filled = []
    for out in outputs:
        added = extra.get(out.frame)
        if not added:
            filled.append(out)
            continue
        records = sorted(list(out.records) + added, key=lambda rec: rec[0])
        filled.append(FrameOutput(frame=out.frame, records=tuple(records)))
    return filled
