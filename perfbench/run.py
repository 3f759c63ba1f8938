"""Benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload {crowd,ablation,cli_oracle} --seed N \
        --seconds S --trace {0,1} [--scale {full,tiny}]

With ``--trace 0`` the run builds its inputs several times (``setup_s`` is
the median), then repeats rounds of the workload for about ``--seconds``
seconds (at least one round) and reports the end-to-end metrics. Times are
in reference seconds, which a fixed kernel run around each timed part makes
steady against the machine's speed drift (see ``reference.py``); the raw
seconds are printed too. With ``--trace 1`` it runs one
untraced round and two traced rounds, reports the per-layer metrics of the
first traced round, the tracing overhead, and checks that the two traced
rounds give the same counts. Either way the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the readable lines above it also hold the workload's own
figures, the environment and the sizes. Runs write only under ``.perfbench/``
in the repository root.
"""

from __future__ import annotations

import os

# Pin numeric thread pools before numpy loads; child processes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# setup_s is the median of at least this many set-ups, repeated for at least
# SETUP_MIN_S seconds, reference kernel runs included.
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "frames_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["crowd", "ablation", "cli_oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import cbiou from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "cbiou" / "__init__.py").is_file():
        raise SystemExit(f"error: no cbiou package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cbiou

    if Path(cbiou.__file__).resolve().parent != SRC / "cbiou":
        raise SystemExit(f"error: imported cbiou from {cbiou.__file__}, not from {SRC}")


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU. On a shared machine each
    CPU's speed drifts on its own, so the reference kernel only gauges the
    speed a timed unit got when both ran on the same CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(args, sizes, cpu: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": sizes,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def check_repeats(rounds) -> tuple[int, int]:
    """Count attempted units and failed ones: a failed check, or a fingerprint
    that differs from the first round's for the same unit."""
    first = {unit.name: unit.fingerprint for unit in rounds[0]}
    attempted = failed = 0
    for units in rounds:
        for unit in units:
            attempted += 1
            if not unit.ok or unit.fingerprint != first[unit.name]:
                failed += 1
    return attempted, failed


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    import reference
    import workloads

    clock = reference.Clock()
    raw_setup, setup_times = [], []
    phase = time.perf_counter()
    while len(raw_setup) < SETUP_MIN_REPEATS or time.perf_counter() - phase < SETUP_MIN_S:
        # Start each set-up from a collected heap, so whether a full garbage
        # collection falls inside it does not depend on the previous one.
        inputs = None
        gc.collect()
        start = time.perf_counter()
        inputs = workload.setup(seed)
        raw_setup.append(time.perf_counter() - start)
        setup_times.append(raw_setup[-1] * clock.scale())
    workload.prepare(inputs)

    rounds = []
    start = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        rounds.append(workload.run_round(inputs, clock))
        last = time.perf_counter() - t0
    own, checks = workload.summary(inputs, rounds)
    attempted, failed = check_repeats(rounds)
    attempted += len(checks)
    failed += sum(not unit.ok for unit in checks)
    wall_s = workloads.unit_medians(rounds)
    metrics = {
        "setup_s": median(setup_times),
        "wall_s": wall_s,
        "frames_per_s": workload.frames(inputs) / wall_s,
        "peak_rss_mb": peak_rss_mb(workload.rss_of_children),
    }
    extras = {
        "rounds": (len(rounds), "count"),
        "raw_setup_s": (median(raw_setup), "s"),
        "raw_wall_s": (workloads.unit_medians(rounds, raw=True), "s"),
        "kernel_ms": (1e3 * median(clock.kernel_times), "ms"),
        **own,
    }
    extras["error_rate"] = (failed / attempted, "ratio")
    return metrics, extras, attempted, failed


def run_traced(workload, seed: int, spans_path: Path) -> tuple[dict, dict, int, int]:
    import reference
    import tracing

    clock = reference.Clock()
    inputs = workload.setup(seed)
    workload.prepare(inputs)
    baseline = workload.run_round(inputs, clock)
    tracers, traced_rounds = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            inputs = workload.setup(seed)
            traced_rounds.append(workload.run_round(inputs, clock, tracer))
        tracers.append(tracer)

    attempted, failed = check_repeats([baseline, *traced_rounds])
    first, second = (tracing.per_layer_metrics(tracer) for tracer in tracers)
    differing = [key for key in tracing.EXACT_COUNTS if first[key] != second[key]]
    attempted += 1
    if differing:
        failed += 1
        print(f"per-layer counts differ between traced rounds: {differing}", file=sys.stderr)
    traced_wall = median(sum(unit.elapsed for unit in units) for units in traced_rounds)
    first["trace.overhead_s"] = traced_wall - sum(unit.elapsed for unit in baseline)
    tracers[0].dump(spans_path)
    extras = {
        "untraced_wall_s": (sum(unit.elapsed for unit in baseline), "s"),
        "traced_wall_s": (traced_wall, "s"),
        "counts_repeat": (int(not differing), "bool"),
    }
    return first, extras, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    sizes = cls.FULL if args.scale == "full" else cls.TINY
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = cls(sizes, workdir)
        if args.trace:
            values, extras, attempted, failed = run_traced(workload, args.seed, OUT / f"{tag}-spans.json")
            units = tracing.per_layer_units()
        else:
            values, extras, attempted, failed = run_untraced(workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, sizes, cpu)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {"environment": env, "metrics": metrics, "extras": extras, "attempted": attempted, "failed": failed}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(" ".join(f"{key}={value}" for key, value in env.items() if key != "threads"))
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in extras.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:48s} {shown} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
