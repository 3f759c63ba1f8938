"""Command-line interface wiring the tracker, metrics, and synthetic data
into runnable experiments.

Subcommands: track, eval, grid, compare, perturb. A tracker flag overrides
the ``TrackerConfig`` field it names, over a ``key = value`` config file
(``--config``, default ``$CBIOU_CONFIG``). Each subcommand takes only the
tracker flags it honours:

- ``track``: ``--b1 --b2 --max-age --min-sim --det-conf-min --sim
  --no-cascade --no-motion``;
- ``grid``: ``--max-age --min-sim --det-conf-min --no-motion`` (the grid runs
  cascaded BIoU, with the buffers from ``--range``; a config file's ``b1`` and
  ``b2`` are ignored);
- ``compare``: ``--b1 --b2 --max-age --min-sim --det-conf-min`` (each variant
  sets its own similarity kind and switches);
- ``eval`` and ``perturb``: none.

A config file may set any field, so one file serves every subcommand.

Each handler returns its output path and manifest payload, and ``main`` times
the handler and writes the JSON manifest next to the output, with the fully
resolved configuration, so a run can be reproduced from the manifest alone.
Exit codes: 0 success, 2 argument/configuration errors, 3 data errors, 4 I/O
errors.

Each handler imports the modules its subcommand runs, and building the parser
imports none of them, so a process pays only for its own subcommand: ``track``
loads ``tracker`` (with ``assignment``, ``geometry`` and ``motion``),
``eval`` loads ``metrics`` (with ``assignment`` and ``geometry``), ``grid``
and ``compare`` load ``experiments`` (both of those), and ``perturb`` loads
``synth``; every one loads ``mot_io``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, mot_io
from .geometry import SIMILARITY_KINDS, LabelOverflowError
from .mot_io import MotFileError, _split_lines

if TYPE_CHECKING:
    from .metrics import MetricsReport
    from .tracker import TrackerConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

CONFIG_ENV_VAR = "CBIOU_CONFIG"

_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# How a config value of each field type is read, and what it must look like.
_CONFIG_READERS = {
    "bool": (lambda value: _BOOLEANS[value.lower()], "a boolean"),
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "text"),
}

# Each tracker flag by the TrackerConfig field it sets, which is its dest.
_TRACKER_FLAGS = {
    "b1": ("--b1", {"type": float, "help": "round-1 buffer scale"}),
    "b2": ("--b2", {"type": float, "help": "round-2 buffer scale"}),
    "max_age": ("--max-age", {"type": int, "help": "frames a track may stay unmatched"}),
    "min_sim": ("--min-sim", {"type": float, "help": "matching gate"}),
    "det_conf_min": ("--det-conf-min", {"type": float, "help": "detection confidence floor"}),
    "similarity_kind": ("--sim", {"choices": SIMILARITY_KINDS, "help": "similarity kind"}),
    "cascade_enabled": (
        "--no-cascade", {"action": "store_false", "default": None, "help": "single matching round"}
    ),
    "motion_enabled": (
        "--no-motion", {"action": "store_false", "default": None, "help": "disable motion estimation"}
    ),
}


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` config file into TrackerConfig kwargs."""
    from .tracker import TrackerConfig

    field_types = {f.name: f.type for f in fields(TrackerConfig)}
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count lines as below; the bytes before exc.start decode.
        lines = _split_lines(data[: exc.start].decode("utf-8") + "?")
        key, sep, _ = lines[-1].partition("=")
        where = f" in the value of {key.strip()}" if sep and not key.lstrip().startswith("#") else ""
        raise ValueError(
            f"{path}:{len(lines)}: not UTF-8 text{where} at byte {exc.start}: {exc.reason}"
        ) from None
    values: dict = {}
    for lineno, raw in enumerate(_split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in field_types:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        read, expected = _CONFIG_READERS[field_types[key]]
        try:
            values[key] = read(value)
        except (KeyError, ValueError):
            raise ValueError(f"{path}:{lineno}: expected {expected} for {key}, got {value!r}") from None
    return values


def resolve_config(args, ignore=()) -> TrackerConfig:
    """Build the effective TrackerConfig: file values, then every flag given;
    the ``ignore`` fields keep their defaults."""
    from .tracker import TrackerConfig

    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    values = load_config_file(config_path) if config_path else {}
    flags = {name: getattr(args, name, None) for name in _TRACKER_FLAGS}
    values.update({name: value for name, value in flags.items() if value is not None})
    return TrackerConfig(**{name: value for name, value in values.items() if name not in ignore})


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


def _load_pairs(args):
    """Read the paired sequences of ``--dets``/``--gt``; also return the manifest's inputs."""
    pairs = _discover_pairs(args.dets, args.gt)
    det_seqs = [mot_io.read_detection_table(d) for d, _ in pairs]
    gt_seqs = [mot_io.read_ground_truth(g) for _, g in pairs]
    inputs = {"dets": str(args.dets), "gt": str(args.gt), "sequences": [d.stem for d, _ in pairs]}
    return det_seqs, gt_seqs, inputs


def _write_report(args, lines: list[str]) -> None:
    """Write the report lines, and echo them under ``--pretty``."""
    with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if args.pretty:
        print("\n".join(lines))


def cmd_track(args) -> tuple[str, dict]:
    from . import tracker

    config = resolve_config(args)
    table = mot_io.read_detection_table(args.dets)
    rows = tracker.result_rows(config, table, interpolate_gaps=args.interpolate)
    mot_io.write_result_rows(args.out, *rows)
    return args.out, {
        "command": "track",
        "config": asdict(config),
        "inputs": {"dets": str(args.dets)},
        "outputs": {"results": str(args.out)},
        "options": {"interpolate": bool(args.interpolate)},
    }


def cmd_eval(args) -> tuple[str, dict]:
    from . import metrics

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
    return args.report, {
        "command": "eval",
        "inputs": {"gt": str(args.gt), "res": str(args.res)},
        "outputs": {"report": str(args.report)},
        "options": {"min_visibility": args.min_visibility},
    }


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def cmd_grid(args) -> tuple[str, dict]:
    from . import experiments

    # Every cell sets its own b1/b2, so a config file's buffers are neither run nor checked.
    base = resolve_config(args, ignore=("b1", "b2"))
    combos = experiments.enumerate_buffer_grid(*_parse_range(args.range))
    det_seqs, gt_seqs, inputs = _load_pairs(args)
    result = experiments.run_grid(base, det_seqs, gt_seqs, combos, jobs=args.jobs)
    best = result.best_config
    lines = [
        "command = grid",
        f"combinations = {len(result.scores)}",
        f"best_b1 = {best.b1:g}",
        f"best_b2 = {best.b2:g}",
        f"best_hota = {100.0 * result.best_hota:.1f}",
        "",
        "b1,b2,hota,deta,assa,mota,idf1",
    ]
    lines += [f"{b1:g},{b2:g},{_metrics_csv_row(report)}" for b1, b2, report in result.scores]
    _write_report(args, lines)
    return args.report, {
        "command": "grid",
        "config": asdict(best),
        "inputs": inputs,
        "outputs": {"report": str(args.report)},
        "options": {"range": args.range, "jobs": args.jobs},
    }


def cmd_compare(args) -> tuple[str, dict]:
    from . import experiments

    base = resolve_config(args)
    det_seqs, gt_seqs, inputs = _load_pairs(args)
    reports = experiments.run_compare(base, det_seqs, gt_seqs, jobs=args.jobs)
    lines = ["variant,hota,deta,assa,mota,idf1"]
    lines += [f"{name},{_metrics_csv_row(reports[name])}" for name in experiments.VARIANT_ORDER]
    _write_report(args, lines)
    variants = experiments.variant_configs(base)
    return args.report, {
        "command": "compare",
        "config": asdict(base),
        "variants": {name: asdict(config) for name, config in variants.items()},
        "inputs": inputs,
        "outputs": {"report": str(args.report)},
        "options": {"jobs": args.jobs},
    }


def cmd_perturb(args) -> tuple[str, dict]:
    from . import synth

    noise = synth.NoiseSpec(ratio=args.ratio, seed=args.seed)
    gt = mot_io.read_ground_truth(args.gt)
    dets = synth.oracle_detections(gt)
    noisy = synth.perturb(dets, noise, gt, stratified=args.stratified)
    mot_io.write_detections(args.out, noisy)
    return args.out, {
        "command": "perturb",
        "inputs": {"gt": str(args.gt)},
        "outputs": {"dets": str(args.out)},
        "options": {"ratio": args.ratio, "seed": args.seed, "stratified": args.stratified},
    }


def _add_tracker_flags(sub, names) -> None:
    sub.add_argument("--config", help=f"config file (default: ${CONFIG_ENV_VAR} if set)")
    for name in names:
        flag, options = _TRACKER_FLAGS[name]
        sub.add_argument(flag, dest=name, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbiou", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cbiou {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("--dets", required=True, help="detection file")
    p.add_argument("--out", required=True, help="results file to write")
    p.add_argument(
        "--interpolate",
        action="store_true",
        help="fill each gap of up to max_age frames between two matches of a track linearly; "
        "on noisy detections this can lower MOTA",
    )
    _add_tracker_flags(p, _TRACKER_FLAGS)
    p.set_defaults(handler=cmd_track)

    p = subs.add_parser("eval", help="evaluate results against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--res", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--min-visibility", type=float, dest="min_visibility")
    p.add_argument("--pretty", action="store_true", help="also print a readable table")
    p.set_defaults(handler=cmd_eval)

    p = subs.add_parser("grid", help="search buffer-scale combinations (b1 < b2) of cascaded BIoU")
    p.add_argument("--dets", required=True, help="detection file or directory")
    p.add_argument("--gt", required=True, help="ground-truth file or directory")
    p.add_argument("--report", required=True)
    p.add_argument("--range", default="0.1:0.7:0.1", help="start:stop:step of buffer scales")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--pretty", action="store_true")
    _add_tracker_flags(p, ("max_age", "min_sim", "det_conf_min", "motion_enabled"))
    p.set_defaults(handler=cmd_grid)

    p = subs.add_parser("compare", help="run the six tracker variants on the same inputs")
    p.add_argument("--dets", required=True, help="detection file or directory")
    p.add_argument("--gt", required=True, help="ground-truth file or directory")
    p.add_argument("--report", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--pretty", action="store_true")
    _add_tracker_flags(p, ("b1", "b2", "max_age", "min_sim", "det_conf_min"))
    p.set_defaults(handler=cmd_compare)

    p = subs.add_parser("perturb", help="inject FN/FP noise into oracle detections")
    p.add_argument("--gt", required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--stratified", action="store_true", help="draw removals per frame")
    p.set_defaults(handler=cmd_perturb)

    return parser


def _data_errors() -> tuple[type[Exception], ...]:
    """The errors that exit with ``EXIT_DATA``. ``GenerationError`` is one
    of them once ``synth`` is loaded: only ``synth`` raises it, and importing
    ``synth`` here would load it into every subcommand."""
    synth = sys.modules.get(f"{__package__}.synth")
    return (MotFileError, LabelOverflowError, *([synth.GenerationError] if synth else []))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        output_path, manifest = args.handler(args)
        manifest.update(tool="cbiou", version=__version__, timings={"wall_s": time.perf_counter() - start})
        with open(f"{output_path}.manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except _data_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
