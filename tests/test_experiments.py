import concurrent.futures
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbiou import experiments, metrics, scenarios, synth, tracker
from cbiou.geometry import BoundingBox
from cbiou.metrics import SequenceAnnotations
from cbiou.synth import NoiseSpec, ScenarioSpec
from cbiou.tracker import Detection, DetectionTable, TrackerConfig
from labels import labels


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


def test_parallel_compare_after_the_frames_view_is_read():
    det_seqs, gt_seqs = tiny_sequence()
    gt_seqs[0].frames
    serial = experiments.run_compare(TrackerConfig(), det_seqs, gt_seqs, jobs=1)
    assert experiments.run_compare(TrackerConfig(), det_seqs, gt_seqs, jobs=2) == serial


def test_parallel_grid_equals_serial():
    det_seqs, gt_seqs = tiny_sequence()
    combos = experiments.enumerate_buffer_grid(0.1, 0.3, 0.1)
    serial = experiments.run_grid(TrackerConfig(), det_seqs, gt_seqs, combos, jobs=1)
    parallel = experiments.run_grid(TrackerConfig(), det_seqs, gt_seqs, combos, jobs=2)
    assert parallel == serial


def test_reports_do_not_depend_on_jobs(monkeypatch):
    # jobs splits the cells into contiguous lockstep chunks: 6 cells into
    # 1, 2 or 4 chunks, and the grid's 6 cells likewise, also on fewer CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    det_seqs, gt_seqs = tiny_sequence()
    combos = experiments.enumerate_buffer_grid(0.1, 0.4, 0.1)
    compares = [experiments.run_compare(TrackerConfig(), det_seqs, gt_seqs, jobs=jobs) for jobs in (1, 2, 4)]
    grids = [experiments.run_grid(TrackerConfig(), det_seqs, gt_seqs, combos, jobs=jobs) for jobs in (1, 2, 4)]
    assert compares[0] == compares[1] == compares[2]
    assert grids[0] == grids[1] == grids[2]
    # and each cell's report is its config's own
    for config, report in zip(experiments.variant_configs(TrackerConfig()).values(), compares[0].values()):
        assert repr(report) == repr(experiments.track_and_evaluate(config, det_seqs, gt_seqs))
    for b1, b2, report in grids[0].scores:
        config = replace(TrackerConfig(), b1=b1, b2=b2)
        assert repr(report) == repr(experiments.track_and_evaluate(config, det_seqs, gt_seqs))


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
    combos = experiments.enumerate_buffer_grid(0.1, 0.3, 0.1)
    # nor larger than the CPU count: a pool forks all its workers at once
    for cpus, expected in ((8, [6, 3, 2]), (2, [2, 2, 2])):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        sizes.clear()
        reports = experiments.run_compare(TrackerConfig(), det_seqs, gt_seqs, jobs=100_000)
        assert list(reports) == list(experiments.VARIANT_ORDER)
        experiments.run_grid(TrackerConfig(), det_seqs, gt_seqs, combos, jobs=100_000)
        experiments.run_grid(TrackerConfig(), det_seqs, gt_seqs, combos, jobs=2)
        # a single task runs in this process: no pool
        experiments.run_grid(TrackerConfig(), det_seqs, gt_seqs, combos[:1], jobs=100_000)
        assert sizes == expected


def test_buffer_grid_is_bounded_in_values():
    limit = experiments.MAX_GRID_VALUES
    assert len(experiments.enumerate_buffer_grid(0, limit - 1, 1)) == limit * (limit - 1) // 2
    # one value over the bound; without the check this builds only about limit**2 / 2 pairs
    with pytest.raises(ValueError, match=rf"grid range 0:{limit}:1 has {limit + 1} values, more than {limit}"):
        experiments.enumerate_buffer_grid(0, limit, 1)


def test_buffer_grid_stops_at_its_stop():
    # the step count 2.6 was rounded to 3, which stepped past 0.36 to 0.4
    combos = experiments.enumerate_buffer_grid(0.1, 0.36, 0.1)
    assert combos == [(0.1, 0.2), (0.1, 0.3), (0.2, 0.3)]
    # counts that float error leaves just below or above an integer
    assert len(experiments.enumerate_buffer_grid(0.1, 0.7, 0.1)) == 21
    assert len(experiments.enumerate_buffer_grid(0.1, 0.8, 0.1)) == 28
    assert max(b2 for _b1, b2 in experiments.enumerate_buffer_grid(0.1, 0.7, 0.1)) == 0.7



def sliding_box_grid(step):
    """The 0.1:0.4:0.1 grid, without motion, over one 10 px box that moves
    ``step`` px per frame and is detected exactly."""
    boxes = {f: BoundingBox(step * (f - 1), 0, 10, 10) for f in range(1, 7)}
    dets = {f: [Detection(b, 1.0)] for f, b in boxes.items()}
    gt = labels({f: [(1, b)] for f, b in boxes.items()})
    combos = experiments.enumerate_buffer_grid(0.1, 0.4, 0.1)
    return combos, experiments.run_grid(TrackerConfig(motion_enabled=False), [dets], [gt], combos)


def test_grid_tie_goes_to_the_first_cell():
    combos, result = sliding_box_grid(0)
    assert [report.hota for _b1, _b2, report in result.scores] == [1.0] * len(combos)
    assert (result.best_config.b1, result.best_config.b2) == combos[0] == (0.1, 0.2)
    assert result.best_hota == 1.0


def test_grid_tie_goes_to_the_smaller_cell_in_any_order():
    # the first cell in combos order won, here (0.3, 0.4)
    gt, dets = synth.generate(scenarios.bench_scenario(2, 5, 1))
    combos = [(0.3, 0.4), (0.1, 0.2)]
    result = experiments.run_grid(TrackerConfig(), [dets], [gt], combos)
    assert [report.hota for _b1, _b2, report in result.scores] == [1.0, 1.0]
    assert (result.best_config.b1, result.best_config.b2) == (0.1, 0.2)


def test_grid_later_cell_wins_outright():
    # Consecutive boxes are 7 px apart and each grows by b * 10 px a side, so
    # only b2 = 0.4 links them; the cells with it tie, and the first is best.
    combos, result = sliding_box_grid(17)
    hotas = [report.hota for _b1, _b2, report in result.scores]
    assert [hota == 1.0 for hota in hotas] == [False, False, True, False, True, True]
    assert (result.best_config.b1, result.best_config.b2) == combos[2] == (0.1, 0.4)
    assert result.best_hota == 1.0


def test_cells_share_one_table_per_sequence(monkeypatch):
    # A call builds each sequence's table once; a parallel task carries the
    # tables' arrays, not the Detection lists.
    seen = []

    def recording_map(fn, items, jobs):
        seen.append(fn.keywords["det_seqs"])
        return [fn(item) for item in items]

    monkeypatch.setattr(experiments, "_pool_map", recording_map)
    det_seqs, gt_seqs = tiny_sequence()
    by_mapping = experiments.run_compare(TrackerConfig(), det_seqs, gt_seqs, jobs=2)
    tables = seen[-1]
    assert len(tables) == 1 and isinstance(tables[0], DetectionTable)
    assert not any(isinstance(value, Detection) for value in vars(tables[0]).values())
    # tables given in: passed through as they are, with the same reports
    assert experiments.run_compare(TrackerConfig(), tables, gt_seqs, jobs=2) == by_mapping
    assert seen[-1][0] is tables[0]
    combos = experiments.enumerate_buffer_grid(0.1, 0.3, 0.1)
    assert experiments.run_grid(TrackerConfig(), tables, gt_seqs, combos) == experiments.run_grid(
        TrackerConfig(), det_seqs, gt_seqs, combos
    )


def test_track_and_evaluate_labels_are_the_frame_outputs():
    det_seqs, gt_seqs = tiny_sequence()
    config = TrackerConfig(max_age=2)
    outputs = tracker.run_sequence(config, det_seqs[0])
    pred = labels(
        {out.frame: [(tid, box) for tid, box, _conf in out.records] for out in outputs if out.records}
    )
    expected = metrics.evaluate(gt_seqs[0], pred)
    assert repr(experiments.track_and_evaluate(config, det_seqs, gt_seqs)) == repr(expected)


def per_cell_label_reports(configs, tables, gt_seqs):
    """The reference route for a sweep's cells: each cell's rows become its
    prediction labels, and its sequences are pooled by ``evaluate_many``."""
    pairs = [[] for _ in configs]
    for table, gt in zip(tables, gt_seqs):
        for cell, (frames, tids, rows) in zip(pairs, tracker.track_cells(configs, table)):
            pred = SequenceAnnotations(metrics.sorted_unique(frames), frames, tids, table.tlwh[rows])
            cell.append((gt, pred))
    return [metrics.evaluate_many(cell) for cell in pairs]


@st.composite
def frame_rows(draw, row):
    """Rows on a few of frames 1..8: gaps between them, and frames with keys
    but no rows; 10 px high strips at a few places, so that boxes overlap
    within a frame and tracks carry on across frames."""
    keys = sorted(draw(st.lists(st.integers(1, 8), max_size=5, unique=True)))
    rows = [(key, draw(row)) for key in keys for _ in range(draw(st.integers(0, 4)))]
    return keys, rows


STRIP = st.tuples(st.sampled_from([0, 4, 20, 26, 40]), st.sampled_from([6, 10, 14]))
DET_ROWS = frame_rows(st.tuples(STRIP, st.sampled_from([0.05, 0.3, 0.9])))
GT_ROWS = frame_rows(st.tuples(STRIP, st.integers(-2, 6)))


def strip_tlwh(strips):
    return np.array([(x, 0.0, w, 10.0) for x, w in strips], dtype=float).reshape(-1, 4)


@st.composite
def sweeps(draw):
    """Cells sharing det_conf_min, and one or three sequences whose rows
    below it the cells never admit."""
    base = TrackerConfig(det_conf_min=draw(st.sampled_from([0.1, 0.5])), max_age=draw(st.sampled_from([1, 30])))
    variants = [*experiments.variant_configs(base).values(), replace(base, b1=0.1, b2=0.4)]
    configs = draw(st.lists(st.sampled_from(variants), min_size=1, max_size=4))
    tables, gt_seqs = [], []
    for _ in range(draw(st.sampled_from([1, 3]))):
        keys, rows = draw(DET_ROWS)
        frames = [frame for frame, _ in rows]
        tables.append(DetectionTable(keys, frames, strip_tlwh(s for _, (s, _c) in rows), [c for _, (_s, c) in rows]))
        keys, rows = draw(GT_ROWS)
        # one row per gt identity in a frame
        rows = list({(frame, identity): (frame, strip) for frame, (strip, identity) in rows}.items())
        gt_seqs.append(
            SequenceAnnotations(
                keys,
                [frame for (frame, _id), _ in rows],
                [identity for (_f, identity), _ in rows],
                strip_tlwh(strip for _, (_f, strip) in rows),
            )
        )
    return configs, tables, gt_seqs


def swapped_rows_sweep():
    """Frame 2 lists its detections in the other order, so a cell's rows
    there (by track id) are not in table order, and gt 3 overlaps both: a
    conflict frame whose columns the cell reorders."""
    table = DetectionTable([1, 2], [1, 1, 2, 2], strip_tlwh([(0, 10), (30, 10)] * 2)[[0, 1, 1, 0]], [0.9] * 4)
    gt = SequenceAnnotations([1, 2], [1, 1, 2, 2, 2], [1, 2, 1, 2, 3], strip_tlwh([(0, 10), (30, 10)] * 2 + [(5, 30)]))
    return [TrackerConfig()], [table], [gt]


@settings(max_examples=150)
@given(sweeps(), st.sampled_from([None, 1, 7]))
@example(swapped_rows_sweep(), None)
def test_sweep_reports_equal_per_cell_label_reports(sweep, chunk):
    configs, tables, gt_seqs = sweep
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(metrics, "_CHUNK_CELLS", chunk)
        got = experiments._evaluate_cells(configs, tables, gt_seqs)
        assert repr(got) == repr(per_cell_label_reports(configs, tables, gt_seqs))


def test_sweeps_build_no_labels_and_align_each_sequence_once_per_chunk(monkeypatch):
    gt_seqs, tables = [], []
    for seed in (4, 5, 6):
        gt, dets = synth.generate(replace(scenarios.noise_study_scenario(seed), num_objects=4, num_frames=10))
        gt_seqs.append(gt)
        tables.append(DetectionTable.from_detections(synth.perturb(dets, NoiseSpec(0.2, seed), gt)))
    built, aligned = [], []
    init = SequenceAnnotations.__init__
    monkeypatch.setattr(SequenceAnnotations, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    align = metrics.align_sequence
    monkeypatch.setattr(metrics, "align_sequence", lambda gt, *args: aligned.append(gt) or align(gt, *args))
    # every lockstep chunk runs in this process, so each is counted
    monkeypatch.setattr(experiments, "_pool_map", lambda fn, items, jobs: [fn(item) for item in items])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for jobs in (1, 2, 4):
        aligned.clear()
        experiments.run_compare(TrackerConfig(), tables, gt_seqs, jobs=jobs)
        assert [gt_seqs.index(gt) for gt in aligned] == [0, 1, 2] * jobs
    assert built == []
