"""The benchmark's own tests, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
# Figures each workload prints besides the contract's metrics.
OWN_FIGURES = {
    "crowd": ["digest", "frame_ms_p50", "frame_ms_p95", "id_switches", "error_rate"],
    "ablation": ["digest", "hota", "mota", "idf1", "hota.giou", "hota.c-biou-motion", "error_rate"],
    "cli_oracle": ["track_s", "eval_s", "digest", "hota", "mota", "idf1", "error_rate"],
}

run.import_program()
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0.3", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_emits_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["tracker.step.calls"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        printed = {line.split()[0] for line in proc.stdout.splitlines()[1:-1]}
        assert set(OWN_FIGURES[workload]) <= printed


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counts_repeat_across_traced_runs(workload):
    first, second = (result_of(bench(workload, 1))["metrics"] for _ in range(2))
    for key in tracing.EXACT_COUNTS:
        assert first[key]["value"] == second[key]["value"], key


def test_corrupted_result_file_is_reported_as_failure(tmp_path, monkeypatch):
    original = workloads.CliOracle.run_child

    def corrupting(self, command, args, clock, tracer):
        unit = original(self, command, args, clock, tracer)
        if command == "track":
            lines = self.res.read_text(encoding="utf-8").splitlines(keepends=True)
            fields = lines[0].split(",")
            fields[2] = f"{float(fields[2]) + 1.0:.2f}"
            self.res.write_text(",".join(fields) + "".join(lines[1:]), encoding="utf-8")
        return unit

    monkeypatch.setattr(workloads.CliOracle, "run_child", corrupting)
    workload = workloads.CliOracle(workloads.CliOracle.TINY, tmp_path)
    _metrics, extras, attempted, failed = run.run_untraced(workload, seed=1, seconds=0.1)
    rounds = extras["rounds"][0]
    assert attempted == 2 * rounds
    assert failed == rounds  # every track unit; eval still matches every box
    assert extras["error_rate"][0] == pytest.approx(0.5)


def test_reference_kernel_runs_no_program_code():
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        clock = reference.Clock()
        assert clock.scale() > 0
    assert tracer.names == []
    assert len(clock.kernel_times) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOAD_NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
