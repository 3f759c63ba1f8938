"""MOTChallenge-style comma-separated annotation files.

Detections: ``frame,id,x,y,w,h,conf,-1,-1,-1`` with id -1 for raw detector
output. Ground truth: ``frame,id,x,y,w,h,active,class,visibility``. Readers
tolerate 6 to 10 columns (missing conf, active and visibility default to 1)
and CR/LF line endings, and ignore the columns they do not read.

Each reader parses its file once into one float array, a row per box and a
column per field it reads, next to the line number of every row. The row
checks run as array operations over the columns: finite numbers, integer
frames and ids, frame >= 1, positive extents also in corner form, corners
within ``MAX_ABS_COORDINATE``, real result ids, and one ground-truth or
result row per (frame, id). Frames and ids are int64, and one outside int64
is a data error; one at or beyond 2**53 in magnitude, where float64 rounds,
is read again exactly. The earliest failing line is reported, as
``_check_row`` words it for one row: bytes that are not UTF-8 and rows that
do not parse as parse errors, the rest as data errors. Ground truth and
results become ``SequenceAnnotations``, built from their arrays as every
label is, and ``write_ground_truth`` writes from those arrays: neither
builds a ``BoundingBox`` per row. Detections become the tracker's
``DetectionTable``, which ``read_detections`` turns into per-frame
``Detection`` lists for the API's ``run_sequence``.

Writers emit UTF-8 with LF endings, rows sorted by (frame, id), and
coordinates at fixed 2-decimal precision.
"""

from __future__ import annotations

import math
import operator
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .geometry import BoundingBox, valid_tlwh
from .metrics import SequenceAnnotations, sorted_unique
from .tracker import Detection, DetectionTable, FrameOutput

_INT64 = np.iinfo(np.int64)
# Frames and ids of this magnitude or more may have been rounded by float64.
_FLOAT_EXACT = 2.0**53
_CHUNK_FLOATS = 8192


class MotFileError(ValueError):
    """Base for annotation-file problems; carries the offending line number(s)."""

    def __init__(self, message: str, path=None, line: int | None = None):
        location = f"{path}:{line}: " if path is not None and line is not None else ""
        super().__init__(f"{location}{message}")
        self.path = path
        self.line = line


class MotParseError(MotFileError):
    """A row that does not parse as the expected comma-separated format."""


class MotDataError(MotFileError):
    """A row that parses but violates a data invariant."""


class _Layout(NamedTuple):
    """The columns a reader reads after frame, id, x, y, w and h, as
    (name, column, default when the row is shorter, integer); whether ids
    label boxes, so that a (frame, id) appears once; and whether they must
    be real (>= 0)."""

    extras: tuple[tuple[str, int, float, bool], ...]
    labels: bool
    real_ids: bool


_DETECTIONS = _Layout((("conf", 6, 1.0, False),), labels=False, real_ids=False)
_GROUND_TRUTH = _Layout(
    (("active", 6, 1.0, True), ("visibility", 8, 1.0, False)), labels=True, real_ids=False
)
_RESULTS = _Layout((), labels=True, real_ids=True)


def _lines(path) -> list[str]:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count lines as splitlines does below; the bytes before exc.start decode.
        lineno = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise MotParseError(
            f"not UTF-8 text at byte {exc.start}: {exc.reason}", path, lineno
        ) from None
    return text.splitlines()


def _parse_int(path, lineno: int, name: str, field: str) -> int:
    try:
        return int(field)
    except ValueError:
        pass
    value = _parse_float(path, lineno, name, field)
    if value != int(value):
        raise MotParseError(f"{name} is not an integer: {field!r}", path, lineno)
    return int(value)


def _parse_float(path, lineno: int, name: str, field: str) -> float:
    try:
        value = float(field)
    except ValueError:
        raise MotParseError(f"{name} is not a number: {field!r}", path, lineno) from None
    if not math.isfinite(value):
        raise MotDataError(f"{name} must be finite, got {field!r}", path, lineno)
    return value


def _check_row(path, lineno: int, line: str, layout: _Layout) -> tuple:
    """Check one non-blank row as ``layout`` reads it, one field at a time.

    Returns (frame, id, x, y, w, h, *extras) with exact integer frame and id,
    or raises the row's first fault. This is the reference the array checks
    in ``_faults`` follow, and it words their errors.
    """
    fields = [field.strip() for field in line.strip().split(",")]
    if not 6 <= len(fields) <= 10:
        raise MotParseError(
            f"expected 6 to 10 comma-separated fields, got {len(fields)}", path, lineno
        )
    frame = _parse_int(path, lineno, "frame", fields[0])
    identity = _parse_int(path, lineno, "id", fields[1])
    for name, value in (("frame", frame), ("id", identity)):
        if not _INT64.min <= value <= _INT64.max:
            raise MotDataError(f"{name} must fit in 64 bits, got {value}", path, lineno)
    x = _parse_float(path, lineno, "x", fields[2])
    y = _parse_float(path, lineno, "y", fields[3])
    w = _parse_float(path, lineno, "w", fields[4])
    h = _parse_float(path, lineno, "h", fields[5])
    if frame < 1:
        raise MotDataError(f"frame must be >= 1, got {frame}", path, lineno)
    if w <= 0 or h <= 0:
        raise MotDataError(f"box extents must be positive, got w={w}, h={h}", path, lineno)
    try:
        BoundingBox(x, y, w, h)
    except ValueError as exc:
        raise MotDataError(str(exc), path, lineno) from None
    extras = [
        (_parse_int if integer else _parse_float)(path, lineno, name, fields[column])
        if column < len(fields)
        else default
        for name, column, default, integer in layout.extras
    ]
    if layout.real_ids and identity < 0:
        raise MotDataError(f"result rows need a real track id, got {identity}", path, lineno)
    return (frame, identity, x, y, w, h, *extras)


def _convert(path, lines: list[str], layout: _Layout):
    """Convert each non-blank line's read columns to floats.

    Returns the (rows, columns) values, the line number of each row, and the
    fault of the first line that does not convert (None if all do). Lines
    the fast conversion rejects, blank ones and short ones go through
    ``_check_row``, which supplies defaults and words the fault.
    """
    columns = (0, 1, 2, 3, 4, 5, *(column for _name, column, _default, _int in layout.extras))
    pick = operator.itemgetter(*columns)
    last, width = columns[-1], len(columns)
    # Floats move to numpy a chunk at a time: a whole file's fields as
    # Python floats would raise the peak memory of a read.
    chunks, floats, linenos = [], [], []
    fault = None
    for lineno, line in enumerate(lines, start=1):
        if len(floats) >= _CHUNK_FLOATS:
            chunks.append(np.array(floats, dtype=float))
            floats.clear()
        fields = line.split(",")
        if last < len(fields) <= 10:
            try:
                floats.extend(map(float, pick(fields)))
                linenos.append(lineno)
                continue
            except ValueError:
                # extend keeps the fields converted before the fault.
                del floats[len(floats) - len(floats) % width :]
        if not line.strip():
            continue
        try:
            floats.extend(map(float, _check_row(path, lineno, line, layout)))
        except MotFileError as exc:
            fault = exc
            break
        linenos.append(lineno)
    chunks.append(np.array(floats, dtype=float))
    return np.concatenate(chunks).reshape(-1, width), linenos, fault


def _faults(values: np.ndarray, layout: _Layout) -> np.ndarray:
    """Rows that fail a row check, and rows whose frame or id float64 may
    have rounded, which ``_check_row`` must read again; one bool per row."""
    frame, identity = values[:, :2].T
    integers = values[:, [0, 1, *(6 + k for k, extra in enumerate(layout.extras) if extra[3])]]
    with np.errstate(invalid="ignore"):
        ok = (
            np.isfinite(values).all(axis=1)
            & (integers == np.floor(integers)).all(axis=1)
            & (np.abs(values[:, :2]) < _FLOAT_EXACT).all(axis=1)
            & (frame >= 1)
            & valid_tlwh(values[:, 2:6])
        )
    if layout.real_ids:
        ok &= identity >= 0
    return ~ok


def _first_duplicate(frames: np.ndarray, ids: np.ndarray) -> tuple[int, int] | None:
    """(row, earlier row) of the first row, in row order, whose (frame, id)
    an earlier row has; None if every pair is unique."""
    order = np.lexsort((np.arange(len(frames)), ids, frames))
    frames, ids = frames[order], ids[order]
    repeat = np.r_[False, (frames[1:] == frames[:-1]) & (ids[1:] == ids[:-1])]
    if not repeat.any():
        return None
    # Sorted runs hold one (frame, id) each, in row order: a run's first row
    # came first.
    run_start = np.maximum.accumulate(np.where(repeat, 0, np.arange(len(order))))
    repeats = np.flatnonzero(repeat)
    later = repeats[np.argmin(order[repeats])]
    return int(order[later]), int(order[run_start[later]])


def _read(path, layout: _Layout, keep=None):
    """Parse and check ``path``; return the frames, ids and values of the
    rows that stay.

    ``keep`` maps values to the mask of rows that stay (default: all); the
    duplicate check of labelled rows sees only those. Raises the
    ``MotFileError`` of the earliest failing line.
    """
    lines = _lines(path)
    values, linenos, fault = _convert(path, lines, layout)
    suspect = _faults(values, layout)
    # Unsuspected rows hold integer frames and ids that float64 keeps exact.
    frames, ids = np.where(suspect[:, None], 0.0, values[:, :2]).astype(np.int64).T
    checked = len(values)
    for row in np.flatnonzero(suspect).tolist():
        lineno = linenos[row]
        try:
            frames[row], ids[row] = _check_row(path, lineno, lines[lineno - 1], layout)[:2]
        except MotFileError as exc:
            # Every converted row comes before a line that did not convert.
            fault, checked = exc, row
            break
    rows = np.arange(checked) if keep is None else np.flatnonzero(keep(values[:checked]))
    duplicate = _first_duplicate(frames[rows], ids[rows]) if layout.labels else None
    if duplicate is not None:
        later, first = rows[duplicate[0]], rows[duplicate[1]]
        raise MotDataError(
            f"duplicate (frame={frames[later]}, id={ids[later]}) also present at line {linenos[first]}",
            path,
            linenos[later],
        )
    if fault is not None:
        raise fault
    return frames[rows], ids[rows], values[rows]


def read_detection_table(path) -> DetectionTable:
    """Read a detection file into the tracker's ``DetectionTable``, with no
    ``BoundingBox`` per row.

    The id column is ignored; a missing confidence column defaults to 1.0.
    """
    frames, _ids, values = _read(path, _DETECTIONS)
    order = np.argsort(frames, kind="stable")
    row_frames = frames[order]
    values = values[order]
    return DetectionTable(sorted_unique(row_frames), row_frames, values[:, 2:6], values[:, 6])


def read_detections(path) -> dict[int, list[Detection]]:
    """Read a detection file into per-frame lists, ordered by frame; the
    mapping form of ``read_detection_table``."""
    table = read_detection_table(path)
    grouped: dict[int, list[Detection]] = {frame: [] for frame in table.frame_keys.tolist()}
    columns = (table.row_frames, *table.tlwh.T, table.confidence)
    for frame, x, y, w, h, conf in zip(*(column.tolist() for column in columns)):
        grouped[frame].append(Detection(BoundingBox(x, y, w, h), conf))
    return grouped


def _annotations(frames: np.ndarray, ids: np.ndarray, values: np.ndarray) -> SequenceAnnotations:
    order = np.argsort(frames, kind="stable")
    row_frames = frames[order]
    return SequenceAnnotations(sorted_unique(row_frames), row_frames, ids[order], values[order, 2:6])


def read_ground_truth(path, min_visibility: float | None = None) -> SequenceAnnotations:
    """Read a ground-truth file; drops rows with active = 0 and, when a
    threshold is given, rows below the visibility threshold."""
    if min_visibility is not None and not math.isfinite(min_visibility):
        raise ValueError(f"min_visibility must be finite, got {min_visibility!r}")

    def keep(values: np.ndarray) -> np.ndarray:
        kept = values[:, 6] != 0
        if min_visibility is not None:
            kept &= values[:, 7] >= min_visibility
        return kept

    return _annotations(*_read(path, _GROUND_TRUTH, keep))


def read_results(path) -> SequenceAnnotations:
    """Read a tracker results file; the confidence column is ignored."""
    return _annotations(*_read(path, _RESULTS))


_RESULT_ROW = "{},{},{:.2f},{:.2f},{:.2f},{:.2f},{:.2f},-1,-1,-1\n"


def result_lines(outputs: Iterable[FrameOutput]) -> list[str]:
    """Format tracker outputs as result-file rows sorted by (frame, id)."""
    rows = []
    for out in outputs:
        for tid, box, conf in out.records:
            rows.append((out.frame, tid, box.x, box.y, box.w, box.h, conf))
    rows.sort(key=lambda row: (row[0], row[1]))
    return [_RESULT_ROW.format(*row) for row in rows]


def write_results(path, outputs: Iterable[FrameOutput]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(result_lines(outputs))


def write_result_rows(path, frames, ids, tlwh, confidence) -> None:
    """Write result rows given as arrays (``tracker.result_rows``), sorted by
    (frame, id); the same bytes as ``write_results`` of the same records."""
    order = np.lexsort((ids, frames))
    columns = (frames[order], ids[order], *tlwh[order].T, confidence[order])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_RESULT_ROW.format(*row) for row in zip(*(column.tolist() for column in columns)))


def write_detections(path, detections_by_frame: Mapping[int, Sequence[Detection]]) -> None:
    """Write per-frame detections as raw rows (id -1), sorted by frame."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame in sorted(detections_by_frame):
            for det in detections_by_frame[frame]:
                box = det.box
                fh.write(
                    f"{frame},-1,{box.x:.2f},{box.y:.2f},{box.w:.2f},{box.h:.2f},"
                    f"{det.confidence:.2f},-1,-1,-1\n"
                )


def write_ground_truth(path, annotations: SequenceAnnotations) -> None:
    """Write annotations as ground-truth rows (active 1, class 1, visibility 1.0)."""
    order = np.lexsort((annotations.ids, annotations.row_frames))
    columns = (annotations.row_frames[order], annotations.ids[order], *annotations.tlwh[order].T)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame, identity, x, y, w, h in zip(*(column.tolist() for column in columns)):
            fh.write(f"{frame},{identity},{x:.2f},{y:.2f},{w:.2f},{h:.2f},1,1,1.0\n")
