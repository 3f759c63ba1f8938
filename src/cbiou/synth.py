"""Synthetic sequences with irregular motion, occlusion gaps, and detection
noise injection.

Objects follow piecewise-linear motion inside a rectangular arena: constant
velocity between seeded random heading/speed changes, reflecting off the
walls. Oracle detections are the ground-truth boxes at confidence 1.0, minus
frames suppressed by occlusion bursts. ``perturb`` removes a fraction of
detections (false negatives) and injects the same number of distractor boxes
at non-target locations (false positives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BoundingBox, corner_iou
from .metrics import SequenceAnnotations
from .tracker import Detection

FP_GT_IOU_MAX = 0.2
FP_MAX_ATTEMPTS = 1000


class GenerationError(ValueError):
    """Raised when noise injection cannot place a box within the attempt budget."""

    def __init__(self, message: str, frame: int | None = None):
        super().__init__(message)
        self.frame = frame


@dataclass(frozen=True)
class OcclusionSpec:
    """Per-object detection-suppression bursts: start probability and duration range."""

    probability: float
    duration: tuple[int, int]

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"occlusion probability must be in [0, 1], got {self.probability!r}")
        lo, hi = self.duration
        if lo % 1 or hi % 1 or lo < 1 or hi < lo:
            raise ValueError(f"occlusion duration range must satisfy 1 <= lo <= hi, got {self.duration!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic sequence."""

    num_objects: int
    num_frames: int
    arena: tuple[float, float]
    speed_range: tuple[float, float]
    turn_prob: float
    size_range: tuple[float, float]
    occlusion: OcclusionSpec | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_objects < 0 or self.num_objects % 1:
            raise ValueError(f"num_objects must be a non-negative integer, got {self.num_objects!r}")
        if self.num_frames < 1 or self.num_frames % 1:
            raise ValueError(f"num_frames must be a positive integer, got {self.num_frames!r}")
        width, height = self.arena
        if not (width > 0 and height > 0):
            raise ValueError(f"arena dimensions must be positive, got {self.arena!r}")
        for name, (lo, hi) in (("speed_range", self.speed_range), ("size_range", self.size_range)):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi or lo < 0:
                raise ValueError(f"{name} must be a non-empty non-negative range, got {(lo, hi)!r}")
        if self.size_range[0] <= 0:
            raise ValueError(f"box sides must be positive, got {self.size_range!r}")
        if self.size_range[1] > min(self.arena):
            raise ValueError(
                f"objects of side {self.size_range[1]} do not fit in arena {self.arena}"
            )
        if not (0.0 <= self.turn_prob <= 1.0):
            raise ValueError(f"turn_prob must be in [0, 1], got {self.turn_prob!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Detection noise level: equal false-negative and false-positive ratios."""

    ratio: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.ratio < 1.0):
            raise ValueError(f"noise ratio must be in [0, 1), got {self.ratio!r}")


def _reflect(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        return lo, -vel
    while True:
        if pos < lo:
            pos = 2 * lo - pos
            vel = -vel
        elif pos > hi:
            pos = 2 * hi - pos
            vel = -vel
        else:
            return pos, vel


def generate(spec: ScenarioSpec) -> tuple[SequenceAnnotations, dict[int, list[Detection]]]:
    """Simulate a scenario; returns (ground truth, oracle detections per frame).

    Deterministic for a given spec: the same seed always produces the same
    trajectories, occlusion bursts, and detections.
    """
    rng = np.random.default_rng(spec.seed)
    arena_w, arena_h = float(spec.arena[0]), float(spec.arena[1])
    tlwh: list[float] = []
    det_frames: dict[int, list[Detection]] = {f: [] for f in range(1, spec.num_frames + 1)}
    for _object in range(spec.num_objects):
        w = float(rng.uniform(spec.size_range[0], spec.size_range[1]))
        h = float(rng.uniform(spec.size_range[0], spec.size_range[1]))
        cx = float(rng.uniform(w / 2, arena_w - w / 2))
        cy = float(rng.uniform(h / 2, arena_h - h / 2))
        speed = float(rng.uniform(spec.speed_range[0], spec.speed_range[1]))
        heading = float(rng.uniform(0.0, 2.0 * math.pi))
        vx, vy = speed * math.cos(heading), speed * math.sin(heading)
        burst_left = 0
        for frame in range(1, spec.num_frames + 1):
            x, y = cx - w / 2, cy - h / 2
            box = BoundingBox(x, y, w, h)
            tlwh += (x, y, w, h)
            suppressed = False
            if spec.occlusion is not None:
                if burst_left > 0:
                    suppressed = True
                    burst_left -= 1
                elif rng.random() < spec.occlusion.probability:
                    lo, hi = spec.occlusion.duration
                    burst_left = int(rng.integers(lo, hi + 1))
                    suppressed = True
                    burst_left -= 1
            if not suppressed:
                det_frames[frame].append(Detection(box, 1.0))
            if spec.turn_prob > 0.0 and rng.random() < spec.turn_prob:
                speed = float(rng.uniform(spec.speed_range[0], spec.speed_range[1]))
                heading = float(rng.uniform(0.0, 2.0 * math.pi))
                vx, vy = speed * math.cos(heading), speed * math.sin(heading)
            cx, vx = _reflect(cx + vx, vx, w / 2, arena_w - w / 2)
            cy, vy = _reflect(cy + vy, vy, h / 2, arena_h - h / 2)
    # Boxes run object by object; the labels group them by frame, in id order.
    # Each frame holds one row per object, so without objects no frame is named.
    count, frames = spec.num_objects, spec.num_frames
    row_frames, ids = np.indices((frames, count)).reshape(2, -1) + 1
    boxes = np.array(tlwh).reshape(count, frames, 4).swapaxes(0, 1).reshape(-1, 4)
    frame_keys = np.arange(1, (frames if count else 0) + 1)
    return SequenceAnnotations(frame_keys, row_frames, ids, boxes), det_frames


def oracle_detections(gt: SequenceAnnotations) -> dict[int, list[Detection]]:
    """Ground-truth boxes reissued as detector output at confidence 1.0."""
    boxes = [BoundingBox(*row) for row in gt.tlwh.tolist()]
    return {
        frame: [Detection(box, 1.0) for box in boxes[rows]]
        for frame, rows in gt.frame_slices().items()
    }


def perturb(
    detections_by_frame: dict[int, list[Detection]],
    noise: NoiseSpec,
    gt: SequenceAnnotations,
    *,
    stratified: bool = False,
) -> dict[int, list[Detection]]:
    """Inject detection noise: remove round(ratio * N) detections uniformly
    without replacement, then add the same number of false positives.

    Each false positive takes its size from the empirical distribution of
    ground-truth boxes and is placed in the frame of a removed detection by
    rejection sampling until it overlaps every same-frame ground-truth box at
    IoU below 0.2. With ``stratified`` the removals are drawn per frame
    instead of over the pooled detection list.

    The removal count uses Python's ``round``, which rounds half to even, so
    one detection at ``ratio=0.5`` removes nothing and no box is placed.
    Raises ``GenerationError``, with ``.frame`` set, when ``FP_MAX_ATTEMPTS``
    candidates in a frame are all rejected.
    """
    frames = sorted(detections_by_frame)
    per_frame = [[(f, i) for i in range(len(detections_by_frame[f]))] for f in frames]
    groups = per_frame if stratified else [[entry for entries in per_frame for entry in entries]]
    rng = np.random.default_rng(noise.seed)
    removed: set[tuple[int, int]] = set()
    for group in groups:
        take = int(round(noise.ratio * len(group)))
        if take:
            removed.update(group[int(k)] for k in rng.choice(len(group), size=take, replace=False))

    result = {
        f: [d for i, d in enumerate(detections_by_frame[f]) if (f, i) not in removed]
        for f in frames
    }
    if not removed:
        return result

    if not gt.box_count():
        raise ValueError("cannot size false positives: ground truth has no boxes")
    sizes = gt.tlwh[:, 2:].tolist()
    env_x1, env_y1 = gt.xyxy[:, :2].min(axis=0).tolist()
    env_x2, env_y2 = gt.xyxy[:, 2:].max(axis=0).tolist()
    corners = gt.xyxy.tolist()
    gt_rows = gt.frame_slices()

    for frame, _ in sorted(removed):
        frame_corners = corners[gt_rows.get(frame, slice(0))]
        for _attempt in range(FP_MAX_ATTEMPTS):
            w, h = sizes[int(rng.integers(len(sizes)))]
            x = float(rng.uniform(env_x1, max(env_x1, env_x2 - w)))
            y = float(rng.uniform(env_y1, max(env_y1, env_y2 - h)))
            candidate = (x, y, x + w, y + h)
            if all(corner_iou(candidate, box) < FP_GT_IOU_MAX for box in frame_corners):
                break
        else:
            raise GenerationError(
                f"could not place a false positive in frame {frame} "
                f"after {FP_MAX_ATTEMPTS} attempts",
                frame=frame,
            )
        result[frame].append(Detection(BoundingBox(x, y, w, h), 1.0))
    return result
