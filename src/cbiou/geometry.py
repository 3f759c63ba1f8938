"""Axis-aligned bounding boxes and pairwise similarity measures.

``BoundingBox`` is the validated top-left/width/height value that input and
the synthetic generator produce. Every similarity kind (IoU, GIoU, DIoU and
the buffered BIoU) has one implementation, the ``*_matrix`` form over (N, 4)
arrays of corner-form boxes; the tracker and the metrics call these on whole
frames. The scalar ``iou`` is kept for single-pair checks (see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

SIMILARITY_KINDS = ("iou", "giou", "diou", "biou")

# Largest |coordinate| a box corner may have. Below it a difference of two
# coordinates, even after a BIoU buffer of scale up to MAX_BUFFER_SCALE, stays
# below about 1e151, and a sum of a few of its squares below 1e304: no
# similarity kind overflows float64 (max about 1.8e308). Real images are many
# orders of magnitude smaller.
MAX_ABS_COORDINATE = 1e100
MAX_BUFFER_SCALE = 1e50


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class BoundingBox:
    """Box in top-left/width/height form; extents must be strictly positive,
    also after the corners x + w and y + h are rounded, and every corner
    coordinate must lie within +-``MAX_ABS_COORDINATE``."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        # Checked in corner form, which the matrix forms use: at large
        # coordinates a positive w can still give x + w == x.
        x, y, limit = self.x, self.y, MAX_ABS_COORDINATE
        x2, y2 = x + self.w, y + self.h
        if not (-limit <= x < x2 <= limit and -limit <= y < y2 <= limit):
            problem = (
                "extents must be positive in corner form"
                if x2 <= x or y2 <= y
                else f"corners must lie within +-{limit:g}"
            )
            raise ValueError(f"box {problem}, got x={x}, y={y}, w={self.w}, h={self.h}")


def _inter_union(a: BoundingBox, b: BoundingBox) -> tuple[float, float]:
    # Areas are computed from corner coordinates so that identical boxes give
    # an intersection exactly equal to each area (f(a, a) == 1 bit-exact).
    ax1, ay1, ax2, ay2 = a.x, a.y, a.x + a.w, a.y + a.h
    bx1, by1, bx2, by2 = b.x, b.y, b.x + b.w, b.y + b.h
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter, area_a + area_b - inter


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection area over union area; 0 for disjoint boxes.

    ``synth.perturb`` checks each false-positive candidate against the frame's
    boxes with this scalar form: nearly every candidate is accepted on its first
    try, so a batched ``iou_matrix`` row has nothing to amortise and costs about
    three times as much per candidate. It is also the reference the matrix
    forms and the metric tests are checked against.
    """
    inter, union = _inter_union(a, b)
    return inter / union


# Vectorized forms over (N, 4) arrays of [x1, y1, x2, y2] rows.


def to_xyxy(boxes: Iterable[BoundingBox]) -> np.ndarray:
    """Stack boxes into an (N, 4) corner-form array."""
    rows = [(box.x, box.y, box.x + box.w, box.y + box.h) for box in boxes]
    return np.asarray(rows, dtype=float).reshape(-1, 4)


def buffer_xyxy(boxes: np.ndarray, scale: float) -> np.ndarray:
    """Expand each box by ``scale`` times its own width and height on every
    side: same centre, same aspect ratio, area scaled by (1 + 2 * scale)^2."""
    scale = float(scale)
    if not math.isfinite(scale) or scale < 0:
        raise ValueError(f"buffer scale must be finite and non-negative, got {scale!r}")
    boxes = np.asarray(boxes, dtype=float)
    if boxes.size == 0:
        return boxes.reshape(0, 4)
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    out = np.empty_like(boxes)
    out[:, 0] = boxes[:, 0] - scale * w
    out[:, 1] = boxes[:, 1] - scale * h
    out[:, 2] = boxes[:, 2] + scale * w
    out[:, 3] = boxes[:, 3] + scale * h
    return out


def _pairwise_parts(a: np.ndarray, b: np.ndarray):
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(ix2 - ix1, 0.0, None) * np.clip(iy2 - iy1, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return inter, union


def _empty_or_arrays(a, b):
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return a, b, np.zeros((a.shape[0], b.shape[0]), dtype=float)
    return a, b, None


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two sets of corner-form boxes; shape (N, M)."""
    a, b, empty = _empty_or_arrays(a, b)
    if empty is not None:
        return empty
    inter, union = _pairwise_parts(a, b)
    return inter / union


def biou_matrix(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """Pairwise buffered IoU; both sides are expanded with the same scale."""
    a, b, empty = _empty_or_arrays(a, b)
    if empty is not None:
        return empty
    return iou_matrix(buffer_xyxy(a, scale), buffer_xyxy(b, scale))


def giou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b, empty = _empty_or_arrays(a, b)
    if empty is not None:
        return empty
    inter, union = _pairwise_parts(a, b)
    hull_w = np.maximum(a[:, None, 2], b[None, :, 2]) - np.minimum(a[:, None, 0], b[None, :, 0])
    hull_h = np.maximum(a[:, None, 3], b[None, :, 3]) - np.minimum(a[:, None, 1], b[None, :, 1])
    hull = hull_w * hull_h
    return inter / union - (hull - union) / hull


def diou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b, empty = _empty_or_arrays(a, b)
    if empty is not None:
        return empty
    inter, union = _pairwise_parts(a, b)
    acx = (a[:, 0] + a[:, 2]) / 2.0
    acy = (a[:, 1] + a[:, 3]) / 2.0
    bcx = (b[:, 0] + b[:, 2]) / 2.0
    bcy = (b[:, 1] + b[:, 3]) / 2.0
    dcx = acx[:, None] - bcx[None, :]
    dcy = acy[:, None] - bcy[None, :]
    hull_w = np.maximum(a[:, None, 2], b[None, :, 2]) - np.minimum(a[:, None, 0], b[None, :, 0])
    hull_h = np.maximum(a[:, None, 3], b[None, :, 3]) - np.minimum(a[:, None, 1], b[None, :, 1])
    return inter / union - (dcx * dcx + dcy * dcy) / (hull_w * hull_w + hull_h * hull_h)


def similarity_matrix(kind: str, a: np.ndarray, b: np.ndarray, buffer_scale: float = 0.0) -> np.ndarray:
    """Dispatch on the similarity kind; ``buffer_scale`` only applies to biou."""
    if kind == "iou":
        return iou_matrix(a, b)
    if kind == "giou":
        return giou_matrix(a, b)
    if kind == "diou":
        return diou_matrix(a, b)
    if kind == "biou":
        return biou_matrix(a, b, buffer_scale)
    raise ValueError(f"unknown similarity kind {kind!r}, expected one of {SIMILARITY_KINDS}")
