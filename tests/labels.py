"""Labels for tests, written as per-frame (identity, ``BoundingBox``) rows."""

from typing import Iterable, Mapping

import numpy as np

from cbiou.geometry import BoundingBox, BoxTable


def labels(frames: Mapping[int, Iterable[tuple[int, BoundingBox]]]) -> BoxTable:
    """The labels of ``{frame: [(identity, box), ...]}``: frames ascending,
    frames without rows kept, rows in given order within a frame, and
    every confidence 1.0."""
    keys = sorted(frames)
    rows = [(frame, identity, box) for frame in keys for identity, box in frames[frame]]
    tlwh = np.array([(box.x, box.y, box.w, box.h) for _, _, box in rows], dtype=float).reshape(-1, 4)
    return BoxTable(keys, [row[0] for row in rows], [row[1] for row in rows], tlwh, np.ones(len(rows)))
