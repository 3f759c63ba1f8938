"""Output pins: exact tracker and metric outputs on fixed seeds.

A refactor that is meant to keep behaviour must keep these values. A change
that moves them changes what the tracker or the metrics compute, and has to
say so and update the pins.
"""

import hashlib

import pytest

from cbiou import cli, experiments, metrics, mot_io, scenarios, synth
from cbiou.synth import NoiseSpec
from cbiou.tracker import TrackerConfig, run_sequence

BENCH_DIGEST = "5afa372f16dfe8ea088988151170ed7f9d1cea1dbe8877ab5b7514b506e9d2c7"
NOISE_STUDY_REPORT_DIGEST = "b10ca18d853cc27b9e02e09a1a8d174d16a97d5874eb6bf30a26f97ecac5de2f"
ORACLE_REPORT_DIGEST = "f9e67b42242fee96c8312bb24a4aabd6f8e573e2720184d380676d0c35bb7c3a"
GROUND_TRUTH_FILE_DIGEST = "f242065080a9b9208dcae09de4ff9aa66d4499221b927d3db213a51f2722c3a1"
COMPARE_REPORTS_DIGEST = "41740b8dfaefa7b8e489636889d3a991144819a9fe0614dddc515d1e86e4c00a"
GRID_RESULT_DIGEST = "f9bd9e9cfe98e9a50cbe6e7e7158ce7a6fd53033b00af9be0740ed2d06280181"
PERTURB_FILE_DIGESTS = {
    (): "71e12abbde675354b2fbedba84c08cf264bb68855e99938aa6df28d4e28e09c7",
    ("--stratified",): "5ec8d931c33510ba9ae2642a75d50a10cf2c5f246f677b0ad7be52e688f1bee2",
}


def report_digest(report) -> str:
    """sha256 of the whole report's repr: every field, per_alpha included."""
    return hashlib.sha256(repr(report).encode("utf-8")).hexdigest()


def test_bench_scenario_output_digest():
    _gt, dets = synth.generate(scenarios.bench_scenario(30, 100, 7))
    lines = mot_io.result_lines(run_sequence(TrackerConfig(), dets))
    assert hashlib.sha256("".join(lines).encode("utf-8")).hexdigest() == BENCH_DIGEST


def test_noise_study_metrics_at_20_percent():
    config = experiments.variant_configs(TrackerConfig())["C-BIoU+motion"]
    gt, dets = synth.generate(scenarios.noise_study_scenario(1))
    noisy = synth.perturb(dets, NoiseSpec(0.2, 1), gt)
    report = experiments.track_and_evaluate(config, [noisy], [gt])
    assert report.hota == 0.48358517981890187
    assert report.mota == 0.5506666666666666
    assert report.idf1 == 0.46169630642954856
    assert report.idsw == 28


def test_noise_study_full_report_at_20_percent():
    config = experiments.variant_configs(TrackerConfig())["C-BIoU+motion"]
    gt, dets = synth.generate(scenarios.noise_study_scenario(1))
    noisy = synth.perturb(dets, NoiseSpec(0.2, 1), gt)
    report = experiments.track_and_evaluate(config, [noisy], [gt])
    assert report_digest(report) == NOISE_STUDY_REPORT_DIGEST


def test_oracle_full_report_on_bench_scenario():
    gt, _dets = synth.generate(scenarios.bench_scenario(30, 100, 7))
    assert report_digest(metrics.evaluate(gt, gt)) == ORACLE_REPORT_DIGEST


@pytest.fixture(scope="module")
def irregular_sequence():
    gt, dets = synth.generate(scenarios.irregular_scenarios()[0])
    return dets, gt


def test_compare_reports_on_irregular_scenario(irregular_sequence):
    # the six variants: all four similarity kinds, cascade and motion on and
    # off, stepped in lockstep
    dets, gt = irregular_sequence
    assert report_digest(experiments.run_compare(TrackerConfig(), [dets], [gt])) == COMPARE_REPORTS_DIGEST


def test_grid_result_on_irregular_scenario(irregular_sequence):
    dets, gt = irregular_sequence
    combos = experiments.enumerate_buffer_grid(0.1, 0.5, 0.1)
    assert len(combos) == 10
    assert report_digest(experiments.run_grid(TrackerConfig(), [dets], [gt], combos)) == GRID_RESULT_DIGEST


def file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def bench_ground_truth_file(tmp_path_factory):
    gt, _dets = synth.generate(scenarios.bench_scenario(30, 100, 7))
    path = tmp_path_factory.mktemp("regression") / "gt.txt"
    mot_io.write_ground_truth(path, gt)
    return path


def test_ground_truth_file_bytes(bench_ground_truth_file):
    assert file_digest(bench_ground_truth_file) == GROUND_TRUTH_FILE_DIGEST


@pytest.mark.parametrize("extra", list(PERTURB_FILE_DIGESTS))
def test_perturb_file_bytes(bench_ground_truth_file, tmp_path, extra):
    out = tmp_path / "dets.txt"
    argv = ["perturb", "--gt", str(bench_ground_truth_file), "--ratio", "0.3", "--seed", "7"]
    assert cli.main([*argv, "--out", str(out), *extra]) == 0
    assert file_digest(out) == PERTURB_FILE_DIGESTS[extra]
