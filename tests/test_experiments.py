import concurrent.futures

from cbiou import experiments, scenarios, synth
from cbiou.synth import NoiseSpec, ScenarioSpec
from cbiou.tracker import TrackerConfig


def tiny_sequence():
    spec = ScenarioSpec(
        num_objects=3,
        num_frames=12,
        arena=(200.0, 200.0),
        speed_range=(3.0, 9.0),
        turn_prob=0.1,
        size_range=(10.0, 20.0),
        occlusion=None,
        seed=4,
    )
    gt, dets = synth.generate(spec)
    return [synth.perturb(dets, NoiseSpec(0.2, 4), gt)], [gt]


def test_parallel_compare_equals_serial():
    gt, dets = synth.generate(scenarios.noise_study_scenario(2))
    noisy = synth.perturb(dets, NoiseSpec(0.2, 2), gt)
    serial = experiments.run_compare(TrackerConfig(), [noisy], [gt], jobs=1)
    parallel = experiments.run_compare(TrackerConfig(), [noisy], [gt], jobs=2)
    assert list(parallel) == list(experiments.VARIANT_ORDER)
    assert parallel == serial


def test_parallel_grid_equals_serial():
    det_seqs, gt_seqs = tiny_sequence()
    combos = experiments.enumerate_buffer_grid(0.1, 0.3, 0.1)
    serial = experiments.run_grid(TrackerConfig(), det_seqs, gt_seqs, combos, jobs=1)
    parallel = experiments.run_grid(TrackerConfig(), det_seqs, gt_seqs, combos, jobs=2)
    assert parallel == serial


def test_pool_is_never_larger_than_the_task_count(monkeypatch):
    sizes = []

    class RecordingExecutor:
        """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    det_seqs, gt_seqs = tiny_sequence()
    reports = experiments.run_compare(TrackerConfig(), det_seqs, gt_seqs, jobs=100_000)
    assert list(reports) == list(experiments.VARIANT_ORDER)
    combos = experiments.enumerate_buffer_grid(0.1, 0.3, 0.1)
    experiments.run_grid(TrackerConfig(), det_seqs, gt_seqs, combos, jobs=100_000)
    experiments.run_grid(TrackerConfig(), det_seqs, gt_seqs, combos, jobs=2)
    # a single task runs in this process: no pool
    experiments.run_grid(TrackerConfig(), det_seqs, gt_seqs, combos[:1], jobs=100_000)
    assert sizes == [6, 3, 2]
