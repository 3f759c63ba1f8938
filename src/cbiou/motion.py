"""Kalman-free motion model: average recent per-frame displacements and
extrapolate linearly in corner-form state space.

Both functions work on all alive tracks at once. A track's history is a
window of its last ``n_max + 1`` matches, oldest first, each entry a row
``[frame, x1, y1, x2, y2]``; a track born with one match fills every slot
with that entry, so the oldest entry is always slot 0 and a frame span of 0
means fewer than two matches.
"""

from __future__ import annotations

import numpy as np


def average_velocity(history: np.ndarray) -> np.ndarray:
    """Mean per-frame displacement over each track's history window.

    ``history`` has shape (N, n_max + 1, 5); the result has shape (N, 4).
    The total displacement between the oldest and newest entry is divided by
    their frame span, which equals the mean of consecutive deltas when the
    matched frames are consecutive and keeps pixels/frame units across gaps.
    A track with fewer than two matches (span 0) has velocity 0.
    """
    change = history[:, -1] - history[:, 0]
    return change[:, 1:] / np.maximum(change[:, :1], 1.0)


def predict(states: np.ndarray, velocities: np.ndarray, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance (N, 4) corner-form states by ``delta`` frames of constant velocity.

    Per frame, the velocity is added and an extent that collapses is
    re-centred with a 1-pixel minimum instead of failing, so advancing by
    a + b frames is bit-identical to advancing by a then by b, collapsed rows
    included: a step across a gap predicts as stepping each empty frame.
    Returns the new states and an (N,) degenerate mask, the rows collapsed at
    any frame. A non-finite predicted state raises ``ValueError``.
    """
    if int(delta) != delta or delta < 1:
        raise ValueError(f"delta must be a positive integer, got {delta!r}")
    out = states
    degenerate = np.zeros(len(states), dtype=bool)
    for _ in range(int(delta)):
        out = out + velocities
        collapsed = out[:, 2:] - out[:, :2] <= 0
        if collapsed.any():
            for axis in (0, 1):
                rows = collapsed[:, axis]
                center = (out[rows, axis] + out[rows, axis + 2]) / 2.0
                out[rows, axis] = center - 0.5
                out[rows, axis + 2] = center + 0.5
            degenerate |= collapsed.any(axis=1)
    if not np.isfinite(out).all():
        raise ValueError("predicted state must be finite")
    return out, degenerate
