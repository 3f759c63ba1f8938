from cbiou import experiments, scenarios, synth
from cbiou.synth import NoiseSpec
from cbiou.tracker import TrackerConfig


def test_parallel_compare_equals_serial():
    gt, dets = synth.generate(scenarios.noise_study_scenario(2))
    noisy = synth.perturb(dets, NoiseSpec(0.2, 2), gt)
    serial = experiments.run_compare(TrackerConfig(), [noisy], [gt], jobs=1)
    parallel = experiments.run_compare(TrackerConfig(), [noisy], [gt], jobs=2)
    assert list(parallel) == list(experiments.VARIANT_ORDER)
    assert parallel == serial
