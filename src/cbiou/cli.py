"""Command-line interface wiring the tracker, metrics, and synthetic data
into runnable experiments.

Subcommands: track, eval, grid, compare, perturb. Every run writes a
JSON manifest next to its output with the fully resolved configuration, so a
run can be reproduced from the manifest alone. Exit codes: 0 success, 2
argument/configuration errors, 3 data errors, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__, experiments, metrics, mot_io, synth, tracker
from .experiments import VARIANT_ORDER
from .metrics import MetricsReport
from .mot_io import MotFileError
from .synth import GenerationError, NoiseSpec
from .tracker import TrackerConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

CONFIG_ENV_VAR = "CBIOU_CONFIG"

_CONFIG_FIELD_TYPES = {f.name: f.type for f in fields(TrackerConfig)}


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` config file into TrackerConfig kwargs."""
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = _CONFIG_FIELD_TYPES[key]
        if kind == "bool":
            lowered = value.lower()
            if lowered in ("true", "1", "yes"):
                values[key] = True
            elif lowered in ("false", "0", "no"):
                values[key] = False
            else:
                raise ValueError(f"{path}:{lineno}: expected a boolean for {key}, got {value!r}")
        elif kind == "int":
            values[key] = int(value)
        elif kind == "str":
            values[key] = value
        else:
            values[key] = float(value)
    return values


def resolve_config(args) -> TrackerConfig:
    """Build the effective TrackerConfig: file values, then CLI overrides."""
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    values = load_config_file(config_path) if config_path else {}
    overrides = {
        "b1": getattr(args, "b1", None),
        "b2": getattr(args, "b2", None),
        "max_age": getattr(args, "max_age", None),
        "min_sim": getattr(args, "min_sim", None),
        "det_conf_min": getattr(args, "det_conf_min", None),
        "similarity_kind": getattr(args, "sim", None),
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    if getattr(args, "no_cascade", False):
        values["cascade_enabled"] = False
    if getattr(args, "no_motion", False):
        values["motion_enabled"] = False
    return TrackerConfig(**values)


def _manifest_path(output_path) -> str:
    return f"{output_path}.manifest.json"


def write_manifest(output_path, payload: dict) -> None:
    payload = dict(payload)
    payload["tool"] = "cbiou"
    payload["version"] = __version__
    with open(_manifest_path(output_path), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_metrics_lines(report: MetricsReport) -> list[str]:
    """Stable key/value rendering; rates are x100 at one decimal."""
    return [
        f"hota = {100.0 * report.hota:.1f}",
        f"deta = {100.0 * report.deta:.1f}",
        f"assa = {100.0 * report.assa:.1f}",
        f"mota = {100.0 * report.mota:.1f}",
        f"idf1 = {100.0 * report.idf1:.1f}",
        f"tp = {report.tp}",
        f"fn = {report.fn}",
        f"fp = {report.fp}",
        f"idsw = {report.idsw}",
        f"gt_total = {report.gt_total}",
    ]


def format_per_alpha_lines(report: MetricsReport) -> list[str]:
    """One line per HOTA alpha with its HOTA, DetA and AssA, x100 at one decimal."""
    return [
        f"alpha_{alpha:.2f} = hota {100.0 * h:.1f} deta {100.0 * d:.1f} assa {100.0 * a:.1f}"
        for alpha, h, d, a in report.per_alpha
    ]


def _metrics_csv_row(report: MetricsReport) -> str:
    return (
        f"{100.0 * report.hota:.1f},{100.0 * report.deta:.1f},{100.0 * report.assa:.1f},"
        f"{100.0 * report.mota:.1f},{100.0 * report.idf1:.1f}"
    )


def _discover_pairs(dets_path, gt_path) -> list[tuple[Path, Path]]:
    dets_path, gt_path = Path(dets_path), Path(gt_path)
    if dets_path.is_dir() != gt_path.is_dir():
        raise ValueError("detections and ground truth must both be files or both be directories")
    if not dets_path.is_dir():
        return [(dets_path, gt_path)]
    det_files = {p.stem: p for p in sorted(dets_path.glob("*.txt"))}
    gt_files = {p.stem: p for p in sorted(gt_path.glob("*.txt"))}
    if not det_files:
        raise ValueError(f"no .txt sequences found under {dets_path}")
    if set(det_files) != set(gt_files):
        missing = sorted(set(det_files) ^ set(gt_files))
        raise ValueError(f"unpaired sequences between {dets_path} and {gt_path}: {missing}")
    return [(det_files[stem], gt_files[stem]) for stem in sorted(det_files)]


def _load_pairs(dets_path, gt_path, min_visibility=None):
    pairs = _discover_pairs(dets_path, gt_path)
    det_seqs = [mot_io.read_detections(d) for d, _ in pairs]
    gt_seqs = [mot_io.read_ground_truth(g, min_visibility) for _, g in pairs]
    return pairs, det_seqs, gt_seqs


def cmd_track(args) -> int:
    start = time.perf_counter()
    config = resolve_config(args)
    dets = mot_io.read_detections(args.dets)
    outputs = tracker.run_sequence(config, dets, interpolate_gaps=args.interpolate)
    mot_io.write_results(args.out, outputs)
    write_manifest(
        args.out,
        {
            "command": "track",
            "config": asdict(config),
            "inputs": {"dets": str(args.dets)},
            "outputs": {"results": str(args.out)},
            "options": {"interpolate": bool(args.interpolate)},
            "timings": {"wall_s": time.perf_counter() - start},
        },
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    start = time.perf_counter()
    gt = mot_io.read_ground_truth(args.gt, args.min_visibility)
    pred = mot_io.read_results(args.res)
    report = metrics.evaluate(gt, pred)
    lines = format_metrics_lines(report)
    with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines + format_per_alpha_lines(report)) + "\n")
    if args.pretty:
        print("metric   value")
        for line in lines[:5]:
            key, _, value = line.partition(" = ")
            print(f"{key:8s} {value}")
    write_manifest(
        args.report,
        {
            "command": "eval",
            "inputs": {"gt": str(args.gt), "res": str(args.res)},
            "outputs": {"report": str(args.report)},
            "options": {"min_visibility": args.min_visibility},
            "timings": {"wall_s": time.perf_counter() - start},
        },
    )
    return EXIT_OK


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def cmd_grid(args) -> int:
    start = time.perf_counter()
    base = resolve_config(args)
    pairs, det_seqs, gt_seqs = _load_pairs(args.dets, args.gt)
    lo, hi, step = _parse_range(args.range)
    combos = experiments.enumerate_buffer_grid(lo, hi, step)
    result = experiments.run_grid(base, det_seqs, gt_seqs, combos, jobs=args.jobs)
    lines = [
        "command = grid",
        f"combinations = {len(result.scores)}",
        f"best_b1 = {result.best[0]:g}",
        f"best_b2 = {result.best[1]:g}",
        f"best_hota = {100.0 * result.best_hota:.1f}",
        "",
        "b1,b2,hota,deta,assa,mota,idf1",
    ]
    lines += [f"{b1:g},{b2:g},{_metrics_csv_row(report)}" for b1, b2, report in result.scores]
    with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if args.pretty:
        print("\n".join(lines))
    write_manifest(
        args.report,
        {
            "command": "grid",
            "config": asdict(base),
            "inputs": {
                "dets": str(args.dets),
                "gt": str(args.gt),
                "sequences": [p.stem for p, _ in pairs],
            },
            "outputs": {"report": str(args.report)},
            "options": {"range": args.range, "jobs": args.jobs},
            "timings": {"wall_s": time.perf_counter() - start},
        },
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    start = time.perf_counter()
    base = resolve_config(args)
    pairs, det_seqs, gt_seqs = _load_pairs(args.dets, args.gt)
    reports = experiments.run_compare(base, det_seqs, gt_seqs, jobs=args.jobs)
    lines = ["variant,hota,deta,assa,mota,idf1"]
    lines += [f"{name},{_metrics_csv_row(reports[name])}" for name in VARIANT_ORDER]
    with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if args.pretty:
        print("\n".join(lines))
    write_manifest(
        args.report,
        {
            "command": "compare",
            "config": asdict(base),
            "variants": {
                name: asdict(config)
                for name, config in experiments.variant_configs(base).items()
            },
            "inputs": {
                "dets": str(args.dets),
                "gt": str(args.gt),
                "sequences": [p.stem for p, _ in pairs],
            },
            "outputs": {"report": str(args.report)},
            "options": {"jobs": args.jobs},
            "timings": {"wall_s": time.perf_counter() - start},
        },
    )
    return EXIT_OK


def cmd_perturb(args) -> int:
    start = time.perf_counter()
    noise = NoiseSpec(ratio=args.ratio, seed=args.seed)
    gt = mot_io.read_ground_truth(args.gt)
    dets = synth.oracle_detections(gt)
    noisy = synth.perturb(dets, noise, gt, stratified=args.stratified)
    mot_io.write_detections(args.out, noisy)
    write_manifest(
        args.out,
        {
            "command": "perturb",
            "inputs": {"gt": str(args.gt)},
            "outputs": {"dets": str(args.out)},
            "options": {"ratio": args.ratio, "seed": args.seed, "stratified": args.stratified},
            "timings": {"wall_s": time.perf_counter() - start},
        },
    )
    return EXIT_OK


def _add_config_options(sub, with_buffers: bool = True) -> None:
    sub.add_argument("--config", help=f"config file (default: ${CONFIG_ENV_VAR} if set)")
    if with_buffers:
        sub.add_argument("--b1", type=float, help="round-1 buffer scale")
        sub.add_argument("--b2", type=float, help="round-2 buffer scale")
    sub.add_argument("--max-age", type=int, dest="max_age", help="frames a track may stay unmatched")
    sub.add_argument("--min-sim", type=float, dest="min_sim", help="matching gate")
    sub.add_argument("--det-conf-min", type=float, dest="det_conf_min", help="detection confidence floor")
    sub.add_argument("--sim", choices=list(tracker.SIMILARITY_KINDS), help="similarity kind")
    sub.add_argument("--no-cascade", action="store_true", help="single matching round")
    sub.add_argument("--no-motion", action="store_true", help="disable motion estimation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbiou", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cbiou {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("--dets", required=True, help="detection file")
    p.add_argument("--out", required=True, help="results file to write")
    p.add_argument("--interpolate", action="store_true", help="fill match gaps by linear interpolation")
    _add_config_options(p)
    p.set_defaults(handler=cmd_track)

    p = subs.add_parser("eval", help="evaluate results against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--res", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--min-visibility", type=float, dest="min_visibility")
    p.add_argument("--pretty", action="store_true", help="also print a readable table")
    p.set_defaults(handler=cmd_eval)

    p = subs.add_parser("grid", help="search buffer-scale combinations (b1 < b2)")
    p.add_argument("--dets", required=True, help="detection file or directory")
    p.add_argument("--gt", required=True, help="ground-truth file or directory")
    p.add_argument("--report", required=True)
    p.add_argument("--range", default="0.1:0.7:0.1", help="start:stop:step of buffer scales")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--pretty", action="store_true")
    _add_config_options(p, with_buffers=False)
    p.set_defaults(handler=cmd_grid)

    p = subs.add_parser("compare", help="run the six tracker variants on the same inputs")
    p.add_argument("--dets", required=True, help="detection file or directory")
    p.add_argument("--gt", required=True, help="ground-truth file or directory")
    p.add_argument("--report", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--pretty", action="store_true")
    _add_config_options(p)
    p.set_defaults(handler=cmd_compare)

    p = subs.add_parser("perturb", help="inject FN/FP noise into oracle detections")
    p.add_argument("--gt", required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--stratified", action="store_true", help="draw removals per frame")
    p.set_defaults(handler=cmd_perturb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (MotFileError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
