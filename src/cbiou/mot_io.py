"""MOTChallenge-style comma-separated annotation files.

Detections: ``frame,id,x,y,w,h,conf,-1,-1,-1`` with id -1 for raw detector
output. Ground truth: ``frame,id,x,y,w,h,active,class,visibility``. Readers
tolerate 6 to 10 columns (missing conf and visibility default to 1.0) and
CR/LF line endings, and reject non-finite numbers as data errors; writers
emit UTF-8 with LF endings, rows sorted by (frame, id), and coordinates at
fixed 2-decimal precision.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .geometry import BoundingBox
from .metrics import SequenceAnnotations
from .tracker import Detection, FrameOutput


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


def _rows(path) -> Iterable[tuple[int, list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        yield lineno, [field.strip() for field in line.split(",")]


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


def _parse_common(path, lineno: int, fields: list[str]):
    if not 6 <= len(fields) <= 10:
        raise MotParseError(
            f"expected 6 to 10 comma-separated fields, got {len(fields)}", path, lineno
        )
    frame = _parse_int(path, lineno, "frame", fields[0])
    identity = _parse_int(path, lineno, "id", fields[1])
    x = _parse_float(path, lineno, "x", fields[2])
    y = _parse_float(path, lineno, "y", fields[3])
    w = _parse_float(path, lineno, "w", fields[4])
    h = _parse_float(path, lineno, "h", fields[5])
    if frame < 1:
        raise MotDataError(f"frame must be >= 1, got {frame}", path, lineno)
    if w <= 0 or h <= 0:
        raise MotDataError(f"box extents must be positive, got w={w}, h={h}", path, lineno)
    try:
        box = BoundingBox(x, y, w, h)
    except ValueError as exc:
        raise MotDataError(str(exc), path, lineno) from None
    return frame, identity, box


def read_detections(path) -> dict[int, list[Detection]]:
    """Read a detection file into per-frame lists, ordered by frame.

    The id column is ignored; a missing confidence column defaults to 1.0.
    """
    grouped: dict[int, list[Detection]] = {}
    for lineno, fields in _rows(path):
        frame, _identity, box = _parse_common(path, lineno, fields)
        conf = _parse_float(path, lineno, "conf", fields[6]) if len(fields) > 6 else 1.0
        grouped.setdefault(frame, []).append(Detection(frame=frame, box=box, confidence=conf))
    return {frame: grouped[frame] for frame in sorted(grouped)}


def read_ground_truth(path, min_visibility: float | None = None) -> SequenceAnnotations:
    """Read a ground-truth file; drops rows with active = 0 and, when a
    threshold is given, rows below the visibility threshold."""
    frames: dict[int, list[tuple[int, BoundingBox]]] = {}
    first_line: dict[tuple[int, int], int] = {}
    for lineno, fields in _rows(path):
        frame, identity, box = _parse_common(path, lineno, fields)
        active = _parse_int(path, lineno, "active", fields[6]) if len(fields) > 6 else 1
        visibility = _parse_float(path, lineno, "visibility", fields[8]) if len(fields) > 8 else 1.0
        if active == 0:
            continue
        if min_visibility is not None and visibility < min_visibility:
            continue
        key = (frame, identity)
        if key in first_line:
            raise MotDataError(
                f"duplicate (frame={frame}, id={identity}) also present at line {first_line[key]}",
                path,
                lineno,
            )
        first_line[key] = lineno
        frames.setdefault(frame, []).append((identity, box))
    return SequenceAnnotations(frames)


def read_results(path) -> SequenceAnnotations:
    """Read a tracker results file; the confidence column is ignored."""
    frames: dict[int, list[tuple[int, BoundingBox]]] = {}
    first_line: dict[tuple[int, int], int] = {}
    for lineno, fields in _rows(path):
        frame, identity, box = _parse_common(path, lineno, fields)
        if identity < 0:
            raise MotDataError(f"result rows need a real track id, got {identity}", path, lineno)
        key = (frame, identity)
        if key in first_line:
            raise MotDataError(
                f"duplicate (frame={frame}, id={identity}) also present at line {first_line[key]}",
                path,
                lineno,
            )
        first_line[key] = lineno
        frames.setdefault(frame, []).append((identity, box))
    return SequenceAnnotations(frames)


def result_lines(outputs: Iterable[FrameOutput]) -> list[str]:
    """Format tracker outputs as result-file rows sorted by (frame, id)."""
    rows = []
    for out in outputs:
        for tid, box, conf in out.records:
            rows.append((out.frame, tid, box, conf))
    rows.sort(key=lambda row: (row[0], row[1]))
    return [
        f"{frame},{tid},{box.x:.2f},{box.y:.2f},{box.w:.2f},{box.h:.2f},{conf:.2f},-1,-1,-1\n"
        for frame, tid, box, conf in rows
    ]


def write_results(path, outputs: Iterable[FrameOutput]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(result_lines(outputs))


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame in sorted(annotations.frames):
            for identity, box in sorted(annotations.frames[frame], key=lambda row: row[0]):
                fh.write(
                    f"{frame},{identity},{box.x:.2f},{box.y:.2f},{box.w:.2f},{box.h:.2f},1,1,1.0\n"
                )
