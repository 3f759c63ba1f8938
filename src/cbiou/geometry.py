"""Axis-aligned bounding boxes and pairwise similarity measures.

``BoundingBox`` is the validated top-left/width/height box of the API's
``Detection`` and ``FrameOutput`` records, which the synthetic generator
also builds; files are read into (N, 4) arrays of such rows. Its check has
one array form, ``valid_tlwh``, which the file readers, the row tables and
the tracker's gap filling use; ``raise_first_bad_row`` raises the record's
error for the first row that fails. ``grouped_rows`` checks the layout that
the label and detection tables share, rows grouped by frame, and gives their
boxes in corner form. ``similarity_matrix`` is the tracker's one entry
point: it scores every (track, detection) pair of a frame under any
similarity kind (IoU, GIoU, DIoU or the buffered BIoU), over (N, 4) arrays
of corner-form boxes. The metrics score plain IoU: ``iou_matrix`` over whole
frames, and ``paired_iou`` cell by cell for two row-paired arrays, on every
cell of a sequence at once. The scalar ``corner_iou`` and its
``BoundingBox`` form ``iou`` are kept for single-pair checks (see their
docstrings).

The kernels run coordinate-major: each array form turns its (N, 4) sides
into contiguous (4, N) coordinate rows once, with ``_coordinate_rows``, and
every broadcast then pairs (2, N, 1) rows with (2, 1, M) ones, so numpy's
inner loop runs over M boxes. Broadcasting (N, 1, 2) corners instead gives
an inner loop two coordinates long, restarted for every box pair. On one
CPU of a shared 2-CPU x86-64 machine (numpy 2.4) that form took 1.6-2.1
times as long for a 30 x 26 matrix, the size of a crowded frame, and
1.5-1.8 times as long for a 2,000 x 2,000 BIoU matrix. Every similarity
kind shares one fused overlap routine, ``_overlap``, which takes the
overlap's low and high corners as two broadcast max/min calls and computes
each side's areas once; ``buffer_xyxy`` moves all four corners of (N, 4)
rows with one addition. Each gives the bits of the one-call-per-coordinate
formulas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

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


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Box in top-left/width/height form; extents must be strictly positive,
    also after the corners x + w and y + h are rounded, so must the area
    (x2 - x) * (y2 - y) that the similarity measures divide by, and every
    corner coordinate must lie within +-``MAX_ABS_COORDINATE``."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        x, y, w, h, limit = self.x, self.y, self.w, self.h, MAX_ABS_COORDINATE
        if not type(x) is type(y) is type(w) is type(h) is float:
            for name in ("x", "y", "w", "h"):
                object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
            x, y, w, h = self.x, self.y, self.w, self.h
        # Checked in corner form, which the matrix forms use: at large
        # coordinates a positive w can still give x + w == x.
        x2, y2 = x + w, y + h
        if not (-limit <= x < x2 <= limit and -limit <= y < y2 <= limit and (x2 - x) * (y2 - y) > 0):
            for name, value in zip("xywh", (x, y, w, h)):  # float boxes skipped these checks
                _require_finite(name, value)
            problem = (
                "extents must be positive in corner form"
                if x2 <= x or y2 <= y
                else "area must be positive in corner form"
                if (x2 - x) * (y2 - y) <= 0
                else f"corners must lie within +-{limit:g}"
            )
            raise ValueError(f"box {problem}, got x={x}, y={y}, w={w}, h={h}")


def _inter_union(a, b) -> tuple[float, float]:
    """Intersection and union areas of two (x1, y1, x2, y2) corner tuples."""
    # Areas are computed from corner coordinates so that identical boxes give
    # an intersection exactly equal to each area (f(a, a) == 1 bit-exact).
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter, area_a + area_b - inter


def corner_iou(a, b) -> float:
    """IoU of two (x1, y1, x2, y2) corner tuples; 0 for disjoint boxes.

    ``synth.perturb`` checks each false-positive candidate with it, so it
    builds a ``BoundingBox`` only for a box it places. Nearly every candidate
    is accepted on its first try, so a batched ``iou_matrix`` row has nothing
    to amortise and costs about three times as much per candidate.
    """
    inter, union = _inter_union(a, b)
    return inter / union


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """``corner_iou`` of two boxes, the reference the matrix forms and the
    metric tests are checked against; ``perturb`` calls ``corner_iou``."""
    return corner_iou((a.x, a.y, a.x + a.w, a.y + a.h), (b.x, b.y, b.x + b.w, b.y + b.h))


# Vectorized forms over (N, 4) arrays of [x1, y1, x2, y2] rows.


def to_xyxy(boxes: Iterable[BoundingBox]) -> np.ndarray:
    """Stack boxes into an (N, 4) corner-form array."""
    # One flat pass: numpy reads a stream of floats faster than a list of tuples.
    corners = itertools.chain.from_iterable((box.x, box.y, box.x + box.w, box.y + box.h) for box in boxes)
    return np.fromiter(corners, dtype=float).reshape(-1, 4)


class LabelOverflowError(ValueError):
    """Frames or identities that do not fit in int64: a data error."""


def int64_values(values, name: str) -> np.ndarray:
    """``values`` as an int64 array. Each must be an integer: a fractional,
    NaN or infinite one raises ``ValueError``, naming it as a ``name``, and
    one outside int64 raises ``LabelOverflowError``."""
    array = np.asarray(values)
    if array.dtype.kind == "f":
        integral = np.isfinite(array) & (np.trunc(array) == array)
        if not integral.all():
            raise ValueError(f"{name} {array[~integral][0].item()!r} is not an integer")
        if ((array < -(2.0**63)) | (array >= 2.0**63)).any():
            raise LabelOverflowError(f"every {name} must fit in 64 bits")
        return array.astype(np.int64)
    if array.dtype.kind == "u" and array.size and array.max() > np.iinfo(np.int64).max:
        raise LabelOverflowError(f"every {name} must fit in 64 bits")
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise LabelOverflowError(f"every {name} must fit in 64 bits") from None


def grouped_rows(frame_keys, row_frames, tlwh, *columns) -> tuple[np.ndarray, ...]:
    """The arrays of a table of rows grouped by frame, checked, as read-only
    copies that the table owns: ``frame_keys`` and ``row_frames`` as int64,
    ``tlwh`` and the same boxes in corner form, ``xyxy``, as float, then
    each of ``columns`` as given. The corners are the ones ``to_xyxy`` gives for the boxes of those rows,
    bit for bit.

    The layout, which the label and detection tables share: ``frame_keys``
    strictly ascending; ``row_frames`` (N,) non-decreasing, each one of
    ``frame_keys``; ``tlwh`` (N, 4); and N values in each column. A table
    not laid out so raises ``ValueError``, and frames as ``int64_values``
    does.
    """
    frame_keys = int64_values(frame_keys, "frame")
    row_frames = int64_values(row_frames, "frame")
    tlwh = np.asarray(tlwh, dtype=float)
    n = len(row_frames) if row_frames.ndim == 1 else -1
    if frame_keys.ndim != 1 or tlwh.shape != (n, 4) or any(len(values) != n for values in columns):
        shapes = ", ".join(str(np.shape(values)) for values in (row_frames, tlwh, *columns))
        raise ValueError(
            "rows need one-dimensional frame_keys, (N,) row_frames, (N, 4) tlwh and N values "
            f"per column, got frame_keys {frame_keys.shape} and rows {shapes}"
        )
    if (frame_keys[1:] <= frame_keys[:-1]).any():
        raise ValueError("frame_keys must be strictly ascending")
    if (row_frames[1:] < row_frames[:-1]).any():
        raise ValueError("rows must be grouped by ascending frame")
    # Keys are distinct, so each row counts at most once: all do iff all are keys.
    counted = np.searchsorted(row_frames, frame_keys, "right") - np.searchsorted(row_frames, frame_keys)
    if counted.sum() != n:
        keys = set(frame_keys.tolist())
        missing = next(frame for frame in row_frames.tolist() if frame not in keys)
        raise ValueError(f"row frame {missing} is not one of frame_keys")
    xyxy = tlwh.copy()
    np.add(tlwh[:, :2], tlwh[:, 2:], out=xyxy[:, 2:])
    # Copies, as the conversions above return the caller's own arrays when
    # they need none: a table owns its rows, and its caller's stay writeable.
    arrays = (frame_keys.copy(), row_frames.copy(), tlwh.copy(), xyxy, *(np.array(values) for values in columns))
    for values in arrays:
        values.flags.writeable = False
    return arrays


def valid_tlwh(tlwh: np.ndarray) -> np.ndarray:
    """One bool per (N, 4) top-left/width/height row: whether its corners
    pass ``BoundingBox``'s check. Non-finite rows fail it. An array of any
    other shape raises ``ValueError``."""
    tlwh = np.asarray(tlwh, dtype=float)
    if tlwh.shape[1:] != (4,):
        raise ValueError(f"boxes must be an (N, 4) array, got shape {tlwh.shape}")
    x, y, w, h = tlwh.T
    limit = MAX_ABS_COORDINATE
    with np.errstate(invalid="ignore", over="ignore"):
        x2, y2 = x + w, y + h
        # x < x + w also holds w > 0 (and y < y + h, h > 0)
        inside = (-limit <= x) & (x < x2) & (x2 <= limit) & (-limit <= y) & (y < y2) & (y2 <= limit)
        return inside & ((x2 - x) * (y2 - y) > 0)


def raise_first_bad_row(bad: np.ndarray, rebuild: Callable[[int], object], name: str = "") -> None:
    """Where ``bad`` marks a row, rebuild the first marked row as its record
    with ``rebuild(row)`` and let the record's ``ValueError`` out, prefixed
    with ``"<name> row <row>: "`` when ``name`` is given."""
    if bad.any():
        row = int(np.argmax(bad))
        try:
            rebuild(row)
        except ValueError as exc:
            raise ValueError(f"{name} row {row}: {exc}" if name else str(exc)) from None


def buffer_xyxy(boxes: np.ndarray, scale: float) -> np.ndarray:
    """Expand each box by ``scale`` times its own width and height on every
    side: same centre, same aspect ratio, area scaled by (1 + 2 * scale)^2."""
    scale = float(scale)
    if not math.isfinite(scale) or scale < 0:
        raise ValueError(f"buffer scale must be finite and non-negative, got {scale!r}")
    boxes = np.asarray(boxes, dtype=float)
    if boxes.size == 0:
        return boxes.reshape(0, 4)
    # x1 - s * w is x1 + -(s * w) bit for bit, so one addition moves all four corners.
    grow = scale * (boxes[:, 2:] - boxes[:, :2])
    return boxes + np.concatenate((-grow, grow), axis=1)


def _coordinate_rows(boxes: np.ndarray) -> np.ndarray:
    """(N, 4) corner-form boxes as contiguous (4, N) rows: x1, y1, x2, y2."""
    return np.ascontiguousarray(boxes.T)


def _areas(rows: np.ndarray) -> np.ndarray:
    # Areas come from corner coordinates, so identical boxes give an
    # intersection exactly equal to each area (f(a, a) == 1 bit-exact).
    wh = rows[2:] - rows[:2]
    return wh[0] * wh[1]


def _overlap(a: np.ndarray, b: np.ndarray, pairwise: bool):
    """Intersection and union areas of boxes given as (4, N) and (4, M)
    coordinate rows: of every (box of ``a``, box of ``b``) pair, shape
    (N, M), or with ``pairwise`` false (M == N) of each box of ``a`` with
    the same box of ``b``, shape (N,).

    The one overlap formula of every similarity kind: the overlap's corners
    are the broadcast elementwise max of the low corners and min of the high
    ones, and each side's areas are computed once.
    """
    area_a, area_b = _areas(a), _areas(b)
    if pairwise:
        a, b, area_a = a[:, :, None], b[:, None, :], area_a[:, None]
    wh = np.minimum(a[2:], b[2:])
    wh -= np.maximum(a[:2], b[:2])
    np.maximum(wh, 0.0, out=wh)
    inter = wh[0] * wh[1]
    return inter, area_a + area_b - inter


def _hull_wh(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Width and height of each pair's enclosing box, from (4, N) and (4, M)
    coordinate rows; shape (2, N, M)."""
    return np.maximum(a[2:, :, None], b[2:, None, :]) - np.minimum(a[:2, :, None], b[:2, None, :])


def _box_arrays(a, b, paired: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as float arrays of (N, 4) and (M, 4) corner-form rows,
    with ``paired`` of equal length; any other shape raises ``ValueError``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[1:] != (4,) or b.shape[1:] != (4,) or (paired and a.shape != b.shape):
        need = "two (C, 4) arrays of equal length" if paired else "(N, 4) and (M, 4) arrays"
        raise ValueError(f"boxes must be {need}, got shapes {a.shape} and {b.shape}")
    return a, b


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two sets of corner-form boxes, (N, 4) and (M, 4)
    arrays; shape (N, M)."""
    a, b = _box_arrays(a, b)
    if not len(a) or not len(b):
        return np.zeros((len(a), len(b)))
    inter, union = _overlap(_coordinate_rows(a), _coordinate_rows(b), pairwise=True)
    return inter / union


def paired_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each row of ``a`` with the same row of ``b``, two (C, 4) arrays
    of corner-form boxes; shape (C,). Each value has the bits of the
    matching ``iou_matrix`` entry. An array in Fortran order is read as its
    coordinate rows without a copy."""
    a, b = _box_arrays(a, b, paired=True)
    inter, union = _overlap(_coordinate_rows(a), _coordinate_rows(b), pairwise=False)
    return inter / union


def similarity_matrix(kind: str, a: np.ndarray, b: np.ndarray, buffer_scale: float = 0.0) -> np.ndarray:
    """Pairwise similarity of the given kind between two sets of corner-form
    boxes, (N, 4) and (M, 4) arrays; shape (N, M). ``buffer_scale`` only
    applies to biou, which expands both sides by it before taking their IoU."""
    if kind not in SIMILARITY_KINDS:
        raise ValueError(f"unknown similarity kind {kind!r}, expected one of {SIMILARITY_KINDS}")
    a, b = _box_arrays(a, b)
    if not len(a) or not len(b):
        return np.zeros((len(a), len(b)))
    if kind == "biou":
        a, b = buffer_xyxy(a, buffer_scale), buffer_xyxy(b, buffer_scale)
    a, b = _coordinate_rows(a), _coordinate_rows(b)
    inter, union = _overlap(a, b, pairwise=True)
    if kind in ("iou", "biou"):
        return inter / union
    hull_wh = _hull_wh(a, b)
    if kind == "giou":
        hull = hull_wh[0] * hull_wh[1]
        return inter / union - (hull - union) / hull
    # DIoU: centre offsets (dx, dy) and hull extents, squared, each summed x then y.
    centre_a, centre_b = (a[:2] + a[2:]) / 2.0, (b[:2] + b[2:]) / 2.0
    dc = centre_a[:, :, None] - centre_b[:, None, :]
    dc *= dc
    hull_wh *= hull_wh
    return inter / union - (dc[0] + dc[1]) / (hull_wh[0] + hull_wh[1])
