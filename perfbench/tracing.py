"""Span tracer for the benchmark's traced runs.

The tracer wraps public attributes of the ``cbiou`` modules from outside the
package, so the program itself carries no tracing code. Each wrapped call
records one span (name, start, end, parent span) in memory; counts that
explain the work (matrix cells, file rows, tracker births) are recorded at
the same boundaries. ``per_layer_metrics`` folds spans and counts into the
metrics listed under ``per_layer`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# Every wrapped function reports calls, total seconds and self seconds.
TIMED = (
    "assignment.solve",
    "assignment.gated_match",
    "geometry.similarity_matrix",
    "geometry.iou_matrix",
    "motion.predict",
    "motion.average_velocity",
    "tracker.step",
    "tracker.cascade_match",
    "tracker.run_sequence",
    "metrics.evaluate",
    "metrics.hota",
    "metrics.clear_mota",
    "metrics.idf1",
    "metrics.pool_sequences",
    "mot_io.read_detections",
    "mot_io.read_ground_truth",
    "mot_io.read_results",
    "mot_io.write_results",
    "synth.generate",
    "synth.perturb",
)
CELL_COUNTS = ("assignment.solve", "geometry.similarity_matrix", "geometry.iou_matrix")
ROW_COUNTS = (
    "mot_io.read_detections",
    "mot_io.read_ground_truth",
    "mot_io.read_results",
    "mot_io.write_results",
)
# Child-process spans recorded by the parent around each ``cbiou`` command.
PROCESSES = ("cli.track", "cli.eval")
VARIANT_SLUGS = {
    "IoU": "iou",
    "GIoU": "giou",
    "DIoU": "diou",
    "BIoU": "biou",
    "C-BIoU": "c-biou",
    "C-BIoU+motion": "c-biou-motion",
}
# Counts that must repeat exactly between two traced runs of the same inputs.
EXACT_COUNTS = (
    [f"{name}.calls" for name in TIMED]
    + [f"{name}.cells" for name in CELL_COUNTS]
    + [f"{name}.rows" for name in ROW_COUNTS]
    + ["tracker.births", "tracker.alive_tracks.max", "tracker.alive_tracks.mean"]
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in CELL_COUNTS:
        units[f"{name}.cells"] = "count"
    units["assignment.kept_ratio"] = "ratio"
    units["tracker.alive_tracks.mean"] = "count"
    units["tracker.alive_tracks.max"] = "count"
    units["tracker.births"] = "count"
    for name in ROW_COUNTS:
        units[f"{name}.rows"] = "count"
    for name in PROCESSES:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units["cli.import_s"] = "s"
    for slug in VARIANT_SLUGS.values():
        units[f"experiments.variant.{slug}.track_s"] = "s"
        units[f"experiments.variant.{slug}.eval_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """In-memory spans and counts for one traced run (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def open_span(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self._stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def patch(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``name`` is a string or a function of the call arguments. ``before``
        and ``after`` record counts outside the span's own interval. A missing
        attribute raises ``AttributeError``, so a renamed layer fails the run
        instead of reading as zero cost.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            index = tracer.open_span(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close_span(index)
            if after is not None:
                after(tracer, args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def merge(self, payload: dict, parent: int) -> None:
        """Append a child process's dumped spans and counts under ``parent``."""
        base = len(self.names)
        for name, start, end, up in payload["spans"]:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent if up < 0 else base + up)
        self.counts.update(payload["counts"])
        for key, values in payload["samples"].items():
            self.samples[key].extend(values)

    def payload(self) -> dict:
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        return {"spans": spans, "counts": dict(self.counts), "samples": dict(self.samples)}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload(), fh, separators=(",", ":"))


def _matrix_cells(key: str):
    def after(tracer: Tracer, args, _result) -> None:
        rows, cols = np.shape(args[0])
        tracer.counts[key] += rows * cols

    return after


def _pair_cells(key: str, first: int):
    """Cells of a pairwise matrix over the box sets ``args[first]`` and ``args[first + 1]``."""

    def after(tracer: Tracer, args, _result) -> None:
        tracer.counts[key] += len(args[first]) * len(args[first + 1])

    return after


def _gated(tracer: Tracer, args, result) -> None:
    rows, cols = np.shape(args[0])
    tracer.counts["assignment.gated_match.solved"] += min(rows, cols)
    tracer.counts["assignment.gated_match.kept"] += len(result.pairs)


def _rows(key: str, count):
    def after(tracer: Tracer, args, result) -> None:
        tracer.counts[key] += count(args, result)

    return after


def instrument(tracer: Tracer) -> None:
    """Wrap the public attributes of every timed layer."""
    from cbiou import assignment, experiments, geometry, metrics, mot_io, motion, synth, tracker

    tracer.patch(assignment, "solve", "assignment.solve", after=_matrix_cells("assignment.solve.cells"))
    tracer.patch(assignment, "gated_match", "assignment.gated_match", after=_gated)
    tracer.patch(
        geometry,
        "similarity_matrix",
        "geometry.similarity_matrix",
        after=_pair_cells("geometry.similarity_matrix.cells", 1),
    )
    tracer.patch(
        geometry, "iou_matrix", "geometry.iou_matrix", after=_pair_cells("geometry.iou_matrix.cells", 0)
    )
    tracer.patch(motion, "predict", "motion.predict")
    tracer.patch(motion, "average_velocity", "motion.average_velocity")

    last_id: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def before_step(tr: Tracer, args) -> None:
        tr.samples["tracker.alive_tracks"].append(len(args[0].tracks))

    def after_step(tr: Tracer, args, result) -> None:
        seen = last_id.get(args[0], 0)
        born = [tid for tid, _box, _conf in result.records if tid > seen]
        tr.counts["tracker.births"] += len(born)
        if born:
            last_id[args[0]] = max(born)

    tracer.patch(tracker.CBiouTracker, "step", "tracker.step", before=before_step, after=after_step)
    tracer.patch(tracker, "cascade_match", "tracker.cascade_match")
    tracer.patch(tracker, "run_sequence", "tracker.run_sequence")

    for name in ("evaluate", "hota", "clear_mota", "idf1", "pool_sequences"):
        tracer.patch(metrics, name, f"metrics.{name}")

    tracer.patch(
        mot_io,
        "read_detections",
        "mot_io.read_detections",
        after=_rows("mot_io.read_detections.rows", lambda _a, r: sum(len(v) for v in r.values())),
    )
    for name in ("read_ground_truth", "read_results"):
        tracer.patch(
            mot_io, name, f"mot_io.{name}", after=_rows(f"mot_io.{name}.rows", lambda _a, r: r.box_count())
        )
    tracer.patch(
        mot_io,
        "write_results",
        "mot_io.write_results",
        after=_rows("mot_io.write_results.rows", lambda a, _r: sum(len(o.records) for o in a[1])),
    )
    tracer.patch(synth, "generate", "synth.generate")
    tracer.patch(synth, "perturb", "synth.perturb")

    slugs = {
        config: VARIANT_SLUGS[label]
        for label, config in experiments.variant_configs(tracker.TrackerConfig()).items()
    }
    tracer.patch(
        experiments,
        "track_and_evaluate",
        lambda args: f"experiments.variant.{slugs.get(args[0], 'other')}",
    )


@contextmanager
def instrumented(tracer: Tracer):
    try:
        instrument(tracer)
        yield tracer
    finally:
        tracer.restore()


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold spans and counts into the per-layer metric values."""
    n = len(tracer.names)
    duration = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child_time = [0] * n
    for i in range(n):
        up = tracer.parents[i]
        if up >= 0:
            child_time[up] += duration[i]
    calls: Counter = Counter()
    total: Counter = Counter()
    self_time: Counter = Counter()
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        total[name] += duration[i]
        self_time[name] += duration[i] - child_time[i]

    values: dict[str, float] = {}
    for name in TIMED:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.s"] = total[name] / 1e9
        values[f"{name}.self_s"] = self_time[name] / 1e9
    for name in CELL_COUNTS:
        values[f"{name}.cells"] = tracer.counts[f"{name}.cells"]
    solved = tracer.counts["assignment.gated_match.solved"]
    values["assignment.kept_ratio"] = tracer.counts["assignment.gated_match.kept"] / solved if solved else 0.0
    alive = tracer.samples.get("tracker.alive_tracks", [])
    values["tracker.alive_tracks.mean"] = sum(alive) / len(alive) if alive else 0.0
    values["tracker.alive_tracks.max"] = max(alive) if alive else 0
    values["tracker.births"] = tracer.counts["tracker.births"]
    for name in ROW_COUNTS:
        values[f"{name}.rows"] = tracer.counts[f"{name}.rows"]
    for name in PROCESSES:
        values[f"{name}.s"] = total[name] / 1e9
        values[f"{name}.self_s"] = self_time[name] / 1e9
    imports = tracer.samples.get("cli.import_s", [])
    values["cli.import_s"] = sum(imports) / len(imports) if imports else 0.0

    track_ns: Counter = Counter()
    for i, name in enumerate(tracer.names):
        up = tracer.parents[i]
        if name == "tracker.run_sequence" and up >= 0 and tracer.names[up].startswith("experiments.variant."):
            track_ns[tracer.names[up]] += duration[i]
    for slug in VARIANT_SLUGS.values():
        key = f"experiments.variant.{slug}"
        values[f"{key}.track_s"] = track_ns[key] / 1e9
        values[f"{key}.eval_s"] = (total[key] - track_ns[key]) / 1e9
    values["trace.spans"] = n
    return values
