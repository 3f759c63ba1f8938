"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
``setup_s``), computes untimed reference data in ``prepare``, and runs one
round of timed units in ``run_round``. A unit is one operation the benchmark
counts as attempted: a crowd scene, one ``run_compare`` call, or one ``cbiou``
child process. Every unit returns a fingerprint of its output; repeats of a
unit must reproduce it exactly. Right after each unit, ``clock.scale()`` gives
the factor that turns its seconds into reference seconds (see
``reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

from cbiou import experiments, mot_io, scenarios, synth, tracker
from cbiou.synth import NoiseSpec

import tracing

CHILD_TIMEOUT_S = 170
NOISE_RATIO = 0.2
ARENA_SCALE = 4.0


@dataclass
class Unit:
    """One timed operation: its duration, output fingerprint and check result.
    ``scale`` turns ``elapsed`` into reference seconds."""

    name: str
    elapsed: float
    fingerprint: str
    ok: bool
    detail: dict = field(default_factory=dict)
    scale: float = 1.0


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digest(outputs) -> str:
    """The tracker output digest that ``experiments.run_bench`` reports."""
    return sha256_text("".join(mot_io.result_lines(outputs)))


def unit_medians(rounds, raw: bool = False) -> float:
    """Sum over the units of a round of each unit's median time across rounds,
    in reference seconds, or in raw seconds with ``raw``."""
    return sum(
        median(units[i].elapsed * (1.0 if raw else units[i].scale) for units in rounds)
        for i in range(len(rounds[0]))
    )


def sub_seed(seed: int, k: int) -> int:
    """Scenario seed of the k-th sequence of a run; k stays below 1000."""
    return seed * 1000 + k


def detector_order(dets_by_frame, seed: int, k: int) -> dict:
    """Permute each frame's detections with a seeded generator.

    A detector reports boxes in an order that carries no identity. In object
    order the tracker would see its own creation order back, which no real
    detector provides, and the cost of tie-breaking in matching would depend
    on how many identity swaps a scene happens to contain.
    """
    rng = np.random.default_rng([seed, k])
    return {f: [dets[i] for i in rng.permutation(len(dets))] for f, dets in sorted(dets_by_frame.items())}


class Crowd:
    """Dense scenes stepped in memory; no I/O and no evaluation in the timed part."""

    name = "crowd"
    FULL = {"scenes": 4, "objects": 30, "frames": 100}
    TINY = {"scenes": 1, "objects": 6, "frames": 8}
    rss_of_children = False

    def __init__(self, sizes: dict, workdir: Path):
        self.sizes = sizes

    def setup(self, seed: int) -> list:
        scenes = []
        for k in range(self.sizes["scenes"]):
            spec = scenarios.bench_scenario(self.sizes["objects"], self.sizes["frames"], sub_seed(seed, k))
            gt, dets = synth.generate(spec)
            scenes.append((gt, list(detector_order(dets, seed, k).items())))
        return scenes

    def prepare(self, scenes) -> None:
        # (frame, box) -> ground-truth identity; tracker output boxes are the
        # detection boxes, which are the ground-truth boxes of this scene.
        self.owner = [
            {(frame, box): gid for frame, rows in gt.frames.items() for gid, box in rows}
            for gt, _frames in scenes
        ]

    def frames(self, scenes) -> int:
        return sum(len(frames) for _gt, frames in scenes)

    def run_round(self, scenes, clock, tracer=None) -> list[Unit]:
        units = []
        for k, ((_gt, frames), owner) in enumerate(zip(scenes, self.owner)):
            trk = tracker.CBiouTracker(tracker.TrackerConfig())
            outputs, latencies = [], []
            start = time.perf_counter()
            for frame, dets in frames:
                t0 = time.perf_counter()
                outputs.append(trk.step(frame, dets))
                latencies.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            scale = clock.scale()
            ok = all(_reports_every_detection(out, dets) for out, (_f, dets) in zip(outputs, frames))
            units.append(
                Unit(
                    f"scene{k}",
                    elapsed,
                    output_digest(outputs),
                    ok,
                    {"latencies": latencies, "id_switches": _id_switches(outputs, owner)},
                    scale,
                )
            )
        return units

    def summary(self, scenes, rounds) -> tuple[dict, list[Unit]]:
        latencies = [lat * unit.scale for units in rounds for unit in units for lat in unit.detail["latencies"]]
        q = np.quantile(latencies, [0.5, 0.95])
        switches = sum(unit.detail["id_switches"] for unit in rounds[0])
        values = {
            "digest": (sha256_text("".join(unit.fingerprint for unit in rounds[0])), "sha256"),
            "frame_ms_p50": (1e3 * q[0], "ms"),
            "frame_ms_p95": (1e3 * q[1], "ms"),
            "frame_samples": (len(latencies), "count"),
            "id_switches": (switches, "count"),
        }
        return values, []


def _reports_every_detection(out, dets) -> bool:
    """Every detection is admitted (confidence 1) and reported once, matched or born."""
    ids = [tid for tid, _box, _conf in out.records]
    return len(set(ids)) == len(ids) and sorted(
        (b.x, b.y, b.w, b.h) for _tid, b, _c in out.records
    ) == sorted((d.box.x, d.box.y, d.box.w, d.box.h) for d in dets)


def _id_switches(outputs, owner) -> int:
    """Changes of track id along each ground-truth identity's frames."""
    last: dict[int, int] = {}
    switches = 0
    for out in outputs:
        for tid, box, _conf in out.records:
            gid = owner[(out.frame, box)]
            if gid in last and last[gid] != tid:
                switches += 1
            last[gid] = tid
    return switches


class Ablation:
    """The six-variant comparison table on noisy noise-study sequences.

    Each sequence gets its own ``run_compare`` call. Pooling all of them into
    one call makes the global identity assignment in ``metrics.idf1`` grow
    with the square of the pooled identities and dominate the run.
    """

    name = "ablation"
    FULL = {"sequences": 30, "objects": 6, "frames": 12}
    TINY = {"sequences": 1, "objects": 3, "frames": 12}
    rss_of_children = False

    def __init__(self, sizes: dict, workdir: Path):
        self.sizes = sizes

    def setup(self, seed: int) -> list[tuple]:
        pairs = []
        for k in range(self.sizes["sequences"]):
            spec = replace(
                scenarios.noise_study_scenario(sub_seed(seed, k)),
                num_objects=self.sizes["objects"],
                num_frames=self.sizes["frames"],
            )
            gt, dets = synth.generate(spec)
            noisy = synth.perturb(dets, NoiseSpec(NOISE_RATIO, sub_seed(seed, k)), gt)
            pairs.append((detector_order(noisy, seed, k), gt))
        return pairs

    def prepare(self, pairs) -> None:
        pass

    def frames(self, pairs) -> int:
        return len(experiments.VARIANT_ORDER) * sum(max(dets) - min(dets) + 1 for dets, _gt in pairs)

    def run_round(self, pairs, clock, tracer=None) -> list[Unit]:
        units = []
        for k, (dets, gt) in enumerate(pairs):
            start = time.perf_counter()
            reports = experiments.run_compare(tracker.TrackerConfig(), [dets], [gt], jobs=1)
            elapsed = time.perf_counter() - start
            scale = clock.scale()
            ok = list(reports) == list(experiments.VARIANT_ORDER)
            fingerprint = sha256_text(repr(sorted(reports.items())))
            units.append(Unit(f"seq{k}", elapsed, fingerprint, ok, {"reports": reports}, scale))
        return units

    def summary(self, pairs, rounds) -> tuple[dict, list[Unit]]:
        """Mean scores over the sequences, and the C-BIoU+motion output
        digest, tracked twice."""
        config = experiments.variant_configs(tracker.TrackerConfig())["C-BIoU+motion"]
        digests = [
            sha256_text("".join(line for dets, _gt in pairs for line in mot_io.result_lines(tracker.run_sequence(config, dets))))
            for _ in range(2)
        ]
        reports = [unit.detail["reports"] for unit in rounds[0]]

        def mean(label: str, key: str) -> float:
            return sum(getattr(r[label], key) for r in reports) / len(reports)

        values = {"digest": (digests[0], "sha256")}
        for key in ("hota", "mota", "idf1"):
            values[key] = (mean("C-BIoU+motion", key), "ratio")
        for label, slug in tracing.VARIANT_SLUGS.items():
            values[f"hota.{slug}"] = (mean(label, "hota"), "ratio")
        return values, [Unit("digest", 0.0, digests[0], digests[0] == digests[1])]


class CliOracle:
    """``cbiou track`` then ``cbiou eval`` as child processes on oracle files.

    Rows stay in ground-truth order and the arena is four times as wide and
    high as ``bench_scenario``'s, so objects rarely meet: the workload
    isolates process start-up and file parsing, and keeps matching and
    evaluation trivial. In the bench arena, chance identity swaps between
    crossing objects multiply the cost of tie-breaking in ``metrics.hota``.
    """

    name = "cli_oracle"
    FULL = {"objects": 10, "frames": 1000}
    TINY = {"objects": 3, "frames": 20}
    rss_of_children = True

    def __init__(self, sizes: dict, workdir: Path):
        self.sizes = sizes
        self.dets = workdir / "dets.txt"
        self.gt = workdir / "gt.txt"
        self.res = workdir / "res.txt"
        self.report = workdir / "report.txt"
        self.spans = workdir / "spans.json"
        src = Path(tracker.__file__).resolve().parents[1]
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def setup(self, seed: int) -> int:
        spec = scenarios.bench_scenario(self.sizes["objects"], self.sizes["frames"], sub_seed(seed, 0))
        width, height = spec.arena
        gt, dets = synth.generate(replace(spec, arena=(ARENA_SCALE * width, ARENA_SCALE * height)))
        mot_io.write_detections(self.dets, dets)
        mot_io.write_ground_truth(self.gt, gt)
        return self.sizes["frames"]

    def prepare(self, _frames) -> None:
        outputs = tracker.run_sequence(tracker.TrackerConfig(), mot_io.read_detections(self.dets))
        self.expected = "".join(mot_io.result_lines(outputs))

    def frames(self, frames: int) -> int:
        return frames

    def run_round(self, _frames, clock, tracer=None) -> list[Unit]:
        self.res.unlink(missing_ok=True)
        track = self.run_child("track", ["--dets", str(self.dets), "--out", str(self.res)], clock, tracer)
        result = self.res.read_text(encoding="utf-8") if self.res.is_file() else ""
        track.fingerprint = sha256_text(result)
        track.ok = track.ok and result == self.expected

        self.report.unlink(missing_ok=True)
        args = ["--gt", str(self.gt), "--res", str(self.res), "--report", str(self.report)]
        evaluation = self.run_child("eval", args, clock, tracer)
        text = self.report.read_text(encoding="utf-8") if self.report.is_file() else ""
        report = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
        evaluation.fingerprint = sha256_text(text)
        # Oracle detections are all reported, so every ground-truth box is hit.
        evaluation.ok = evaluation.ok and report.get("fn") == "0" and report.get("fp") == "0"
        evaluation.detail["report"] = report
        return [track, evaluation]

    def run_child(self, command: str, args: list[str], clock, tracer) -> Unit:
        argv = [command, *args]
        if tracer is None:
            cmd = [sys.executable, "-m", "cbiou.cli", *argv]
        else:
            self.spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(self.spans), *argv]
            span = tracer.open_span(f"cli.{command}")
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            ok = proc.returncode == 0
            if not ok:
                print(f"cbiou {command} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        except subprocess.TimeoutExpired:
            ok = False
            print(f"cbiou {command} timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        elapsed = time.perf_counter() - start
        scale = clock.scale()
        if tracer is not None:
            tracer.close_span(span)
            if self.spans.is_file():
                tracer.merge(json.loads(self.spans.read_text(encoding="utf-8")), span)
        return Unit(command, elapsed, "", ok, scale=scale)

    def summary(self, _frames, rounds) -> tuple[dict, list[Unit]]:
        report = rounds[0][1].detail["report"]
        values = {
            "track_s": (median(units[0].elapsed * units[0].scale for units in rounds), "s"),
            "eval_s": (median(units[1].elapsed * units[1].scale for units in rounds), "s"),
            "digest": (rounds[0][0].fingerprint, "sha256"),
        }
        for key in ("hota", "mota", "idf1"):
            values[key] = (float(report.get(key, "nan")) / 100.0, "ratio")
        return values, []


WORKLOADS = {cls.name: cls for cls in (Crowd, Ablation, CliOracle)}
