"""Labels for tests, written as per-frame (identity, ``BoundingBox``) rows."""

from typing import Iterable, Mapping

import numpy as np

from cbiou.geometry import BoundingBox
from cbiou.metrics import SequenceAnnotations


def labels(frames: Mapping[int, Iterable[tuple[int, BoundingBox]]]) -> SequenceAnnotations:
    """The labels of ``{frame: [(identity, box), ...]}``: frames ascending,
    frames without rows kept, and rows in given order within a frame."""
    keys = sorted(frames)
    rows = [(frame, identity, box) for frame in keys for identity, box in frames[frame]]
    tlwh = np.array([(box.x, box.y, box.w, box.h) for _, _, box in rows], dtype=float).reshape(-1, 4)
    return SequenceAnnotations(keys, [row[0] for row in rows], [row[1] for row in rows], tlwh)
