"""The per-record gap filling that ``result_rows``' array form replaced, kept
as the reference its rows are checked against."""

from cbiou.geometry import BoundingBox
from cbiou.tracker import FrameOutput


def fill_gaps(outputs: list[FrameOutput]) -> list[FrameOutput]:
    """``outputs`` with each track's boxes and confidences linearly
    interpolated across its match gaps, each frame's records by track id.
    A gap frame without an output gets one, in frame order."""
    by_track = {}
    for out in outputs:
        for tid, box, conf in out.records:
            by_track.setdefault(tid, []).append((out.frame, box, conf))
    records = {out.frame: list(out.records) for out in outputs}
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
                records.setdefault(f, []).append((tid, box, c0 + t * (c1 - c0)))
    return [FrameOutput(f, tuple(sorted(records[f], key=lambda r: r[0]))) for f in sorted(records)]
