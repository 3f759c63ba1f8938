"""Output pins: exact tracker and metric outputs on fixed seeds.

A refactor that is meant to keep behaviour must keep these values. A change
that moves them changes what the tracker or the metrics compute, and has to
say so and update the pins.
"""

import hashlib

from cbiou import experiments, metrics, mot_io, scenarios, synth
from cbiou.metrics import SequenceAnnotations
from cbiou.synth import NoiseSpec
from cbiou.tracker import TrackerConfig, run_sequence

BENCH_DIGEST = "5afa372f16dfe8ea088988151170ed7f9d1cea1dbe8877ab5b7514b506e9d2c7"


def test_bench_scenario_output_digest():
    _gt, dets = synth.generate(scenarios.bench_scenario(30, 100, 7))
    lines = mot_io.result_lines(run_sequence(TrackerConfig(), dets))
    assert hashlib.sha256("".join(lines).encode("utf-8")).hexdigest() == BENCH_DIGEST


def test_noise_study_metrics_at_20_percent():
    config = experiments.variant_configs(TrackerConfig())["C-BIoU+motion"]
    gt, dets = synth.generate(scenarios.noise_study_scenario(1))
    noisy = synth.perturb(dets, NoiseSpec(0.2, 1), gt)
    outputs = run_sequence(config, noisy)
    report = metrics.evaluate(gt, SequenceAnnotations.from_frame_outputs(outputs))
    assert report.hota == 0.48358517981890187
    assert report.mota == 0.5506666666666666
    assert report.idf1 == 0.46169630642954856
    assert report.idsw == 28
