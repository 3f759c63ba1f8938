import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbiou import assignment, geometry, motion
from cbiou import tracker as tracker_module
from cbiou.geometry import BoundingBox
from cbiou.experiments import enumerate_buffer_grid, track_and_evaluate, variant_configs
from cbiou.synth import OcclusionSpec, ScenarioSpec, generate
from cbiou.tracker import (
    MAX_AGE_LIMIT,
    N_MAX_LIMIT,
    CBiouTracker,
    Detection,
    DetectionTable,
    FrameRows,
    TrackerConfig,
    result_rows,
    run_sequence,
    track_cells,
)
from gap_filling import fill_gaps
from labels import labels


def det(x, y=0.0, w=10.0, h=10.0, conf=1.0) -> Detection:
    return Detection(BoundingBox(x, y, w, h), conf)


class TestTrackerConfig:
    def test_defaults(self):
        cfg = TrackerConfig()
        assert (cfg.b1, cfg.b2) == (0.3, 0.4)
        assert cfg.max_age == 30
        assert cfg.n_max == 5
        assert cfg.similarity_kind == "biou"
        assert cfg.cascade_enabled and cfg.motion_enabled

    def test_buffer_order_enforced_when_cascaded(self):
        with pytest.raises(ValueError):
            TrackerConfig(b1=0.5, b2=0.4)
        with pytest.raises(ValueError):
            TrackerConfig(b1=0.4, b2=0.4)
        # b2 is ignored without cascading
        TrackerConfig(b1=0.5, b2=0.4, cascade_enabled=False)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(max_age=0)
        with pytest.raises(ValueError):
            TrackerConfig(n_max=1)
        with pytest.raises(ValueError):
            TrackerConfig(det_conf_min=1.5)
        with pytest.raises(ValueError):
            TrackerConfig(similarity_kind="ciou")
        with pytest.raises(ValueError):
            TrackerConfig(b1=-0.1)

    @pytest.mark.parametrize("name", ["max_age", "n_max"])
    def test_integral_window_fields_are_stored_as_int(self, name):
        # n_max=5.0 passed the check, then sized np.zeros and raised TypeError
        cfg = TrackerConfig(**{name: 5.0})
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) == 5
        assert CBiouTracker(cfg).step(1, [det(0)]).records[0][0] == 1

    @pytest.mark.parametrize("name, most", [("max_age", MAX_AGE_LIMIT), ("n_max", N_MAX_LIMIT)])
    def test_work_sizing_fields_are_bounded(self, name, most):
        # a step across a gap predicts up to max_age + 1 frames, and each born
        # track keeps n_max + 1 history slots
        assert getattr(TrackerConfig(**{name: most}), name) == most
        with pytest.raises(ValueError, match=f"{name} must be at most {most}, got {most + 1}"):
            TrackerConfig(**{name: most + 1})

    @pytest.mark.parametrize("name", ["max_age", "n_max"])
    def test_bool_window_fields_rejected(self, name):
        # max_age=True was taken as 1
        with pytest.raises(ValueError, match=f"{name} must be an integer >= ., got True"):
            TrackerConfig(**{name: True})

    @pytest.mark.parametrize("name", ["cascade_enabled", "motion_enabled"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None, np.bool_(True)])
    def test_switches_must_be_bools(self, name, value):
        # cascade_enabled="false" was truthy, so the tracker ran cascaded
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a bool, got {value!r}")):
            TrackerConfig(**{name: value})

    @pytest.mark.parametrize("name", ["b1", "b2", "min_sim", "det_conf_min"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_numeric_fields_reject_bools_and_non_numbers(self, name, value):
        # b1=True and det_conf_min=False were taken as 1 and 0
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, got {value!r}")):
            TrackerConfig(**{name: value})

    def test_numeric_fields_are_stored_as_float(self):
        cfg = TrackerConfig(b1=0, b2=1, min_sim=np.float32(0.5), det_conf_min=np.int64(0))
        values = (cfg.b1, cfg.b2, cfg.min_sim, cfg.det_conf_min)
        assert [type(value) for value in values] == [float] * 4
        assert values == (0.0, 1.0, 0.5, 0.0)
        assert cfg == TrackerConfig(b1=0.0, b2=1.0, min_sim=0.5, det_conf_min=0.0)


INF = float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: TrackerConfig(max_age=INF),
        lambda: TrackerConfig(n_max=INF),
        lambda: CBiouTracker().step(INF, []),
        lambda: ScenarioSpec(INF, 10, (100.0, 100.0), (1.0, 2.0), 0.0, (5.0, 10.0)),
        lambda: OcclusionSpec(0.1, (INF, INF)),
        lambda: enumerate_buffer_grid(0.0, 1e300, 1e-300),
    ],
    ids=["max_age", "n_max", "step_frame", "num_objects", "occlusion_duration", "grid_count"],
)
def test_infinite_counts_are_value_errors(build):
    # int(inf) raised OverflowError, which the documented ValueError misses
    with pytest.raises(ValueError):
        build()


class TestStep:
    def test_first_frame_initializes_all_detections(self):
        tracker = CBiouTracker()
        out = tracker.step(1, [det(0), det(100), det(200)])
        assert [rec[0] for rec in out.records] == [1, 2, 3]
        assert [rec[1].x for rec in out.records] == [0, 100, 200]

    def test_nonoverlapping_jump_keeps_id(self):
        # plain IoU would be 0 here; the buffered overlap at b1=0.3 is 1/7
        outputs = run_sequence(TrackerConfig(), {1: [det(0)], 2: [det(12)]})
        assert [rec[0] for out in outputs for rec in out.records] == [1, 1]

    def test_termination_and_fresh_id(self):
        cfg = TrackerConfig(max_age=2)
        tracker = CBiouTracker(cfg)
        tracker.step(1, [det(0)])
        for f in range(2, 5):
            tracker.step(f, [])
        assert tracker.tracks == ()
        out = tracker.step(5, [det(0)])
        assert out.records[0][0] == 2

    def test_age_bound_while_alive(self):
        cfg = TrackerConfig(max_age=3, motion_enabled=False)
        tracker = CBiouTracker(cfg)
        tracker.step(1, [det(0)])
        for f in range(2, 10):
            tracker.step(f, [])
            for _tid, _state, age in tracker.tracks:
                assert 0 <= age <= cfg.max_age

    def test_frame_must_increase(self):
        tracker = CBiouTracker()
        tracker.step(5, [])
        with pytest.raises(ValueError):
            tracker.step(5, [])
        with pytest.raises(ValueError):
            tracker.step(4, [])

    def test_low_confidence_detections_dropped(self):
        cfg = TrackerConfig(det_conf_min=0.5)
        tracker = CBiouTracker(cfg)
        out = tracker.step(1, [det(0, conf=0.4), det(100, conf=0.6)])
        assert len(out.records) == 1
        assert out.records[0][1].x == 100

    def test_ids_strictly_increase(self):
        tracker = CBiouTracker()
        tracker.step(1, [det(0), det(500)])
        out = tracker.step(2, [det(0), det(500), det(1000)])
        assert [rec[0] for rec in out.records] == [1, 2, 3]

    def test_coasting_uses_frozen_velocity(self):
        cfg = TrackerConfig(max_age=10)
        tracker = CBiouTracker(cfg)
        tracker.step(1, [det(0)])
        tracker.step(2, [det(5)])  # velocity 5 px/frame
        for missing in range(1, 4):
            tracker.step(2 + missing, [])
            _tid, state, age = tracker.tracks[0]
            assert state[0] == pytest.approx(5 + 5 * missing)
            assert age == missing

    def test_matched_state_is_detection_box(self):
        tracker = CBiouTracker()
        tracker.step(1, [det(0)])
        tracker.step(2, [det(7, y=1, w=12, h=9)])
        _tid, (x1, y1, x2, y2), _age = tracker.tracks[0]
        assert (x1, y1) == (7, 1)
        assert (x2 - x1, y2 - y1) == (12, 9)

    def test_gap_ages_by_elapsed_frames(self):
        tracker = CBiouTracker(TrackerConfig(max_age=2))
        tracker.step(1, [det(0)])
        out = tracker.step(500, [det(0)])
        assert [rec[0] for rec in out.records] == [2]
        tracker.step(502, [])
        assert [age for _tid, _state, age in tracker.tracks] == [2]

    def test_gap_prediction_is_bounded_by_max_age(self, monkeypatch):
        # predict adds the velocity once per elapsed frame; a gap of 10**9
        # frames must not cost 10**9 additions once every track has aged out
        deltas = []
        original = motion.predict

        def spy(states, velocities, delta):
            assert delta <= 4, f"predict asked for {delta} frames"
            deltas.append(delta)
            return original(states, velocities, delta)

        monkeypatch.setattr(motion, "predict", spy)
        tracker = CBiouTracker(TrackerConfig(max_age=3))
        tracker.step(1, [det(0)])
        tracker.step(2, [det(5)])
        tracker.step(6, [det(25)])
        out = tracker.step(10**9, [det(0)])
        assert deltas == [1, 4]
        assert [rec[0] for rec in out.records] == [2]

    def test_direct_stepping_with_gaps_matches_run_sequence(self):
        spec = ScenarioSpec(
            num_objects=8,
            num_frames=120,
            arena=(600.0, 600.0),
            speed_range=(2.0, 8.0),
            turn_prob=0.1,
            size_range=(15.0, 25.0),
            seed=4,
        )
        _, dets = generate(spec)
        rng = np.random.default_rng(4)
        present = {f: dets[f] for f in sorted(dets) if f == 1 or rng.random() < 0.4}
        for max_age in (1, 3, 30):
            cfg = TrackerConfig(max_age=max_age)
            tracker = CBiouTracker(cfg)
            direct = [tracker.step(f, present[f]) for f in present]
            assert direct == run_sequence(cfg, present)

    def test_failed_step_leaves_tracker_unchanged(self, monkeypatch):
        assert_failed_steps_roll_back(monkeypatch, [TrackerConfig(similarity_kind="iou", cascade_enabled=False)])

    def test_failed_lockstep_step_leaves_tracker_unchanged(self, monkeypatch):
        # cells with mixed motion and mixed max_age
        configs = [
            TrackerConfig(similarity_kind="iou", cascade_enabled=False, max_age=1),
            TrackerConfig(motion_enabled=False),
            TrackerConfig(similarity_kind="diou", max_age=3),
        ]
        assert_failed_steps_roll_back(monkeypatch, configs)


def assert_failed_steps_roll_back(monkeypatch, configs):
    # Boxes within MAX_ABS_COORDINATE cannot make a prediction or a
    # similarity overflow, so the failure is injected at each of the two
    # calls that raise on one, in a step to the next frame and in one that
    # crosses a gap.
    tracker, twin = CBiouTracker(*configs), CBiouTracker(*configs)
    for t in (tracker, twin):
        t.step(1, [det(0)])
        t.step(2, [det(5)])
    before = tracker.tracks
    assert [tid for tid, _state, _age in before] == list(range(1, len(configs) + 1))

    def fail(*_args):
        raise ValueError("non-finite values")

    for frame in (3, 4):
        for owner, name in ((motion, "predict"), (tracker_module, "cascade_match")):
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, fail)
                with pytest.raises(ValueError, match="finite"):
                    tracker.step(frame, [det(15)])
            assert tracker.tracks == before
    with pytest.raises(ValueError, match="must increase"):
        tracker.step(2, [])
    # the next allowed frame is still 3, and the tracker steps as one that never failed
    assert tracker.step(3, [det(10)]) == twin.step(3, [det(10)])
    assert tracker.tracks == twin.tracks


def cascade_match(t_xyxy, d_xyxy, config):
    """``tracker.cascade_match`` for the tracks of one config: (matches,
    unmatched tracks, unmatched detections)."""
    rounds = tracker_module._Rounds([config])
    matches, un_t, un_d = tracker_module.cascade_match(t_xyxy, d_xyxy, rounds, (0, len(t_xyxy)))
    return matches, list(un_t[0]), list(un_d[0])


class TestCascadeMatch:
    def test_no_tracks_means_all_detections_unmatched(self):
        matches, un_t, un_d = cascade_match(
            np.zeros((0, 4)), geometry.to_xyxy([BoundingBox(0, 0, 1, 1)]), TrackerConfig()
        )
        assert matches == [] and un_t == [] and un_d == [0]

    def test_round2_catches_what_round1_misses(self):
        cfg = TrackerConfig(b1=0.1, b2=0.4)
        track_box = BoundingBox(0, 0, 10, 10)
        det_box = BoundingBox(17, 0, 10, 10)
        tracks, dets = geometry.to_xyxy([track_box]), geometry.to_xyxy([det_box])
        assert geometry.similarity_matrix("biou", tracks, dets, cfg.b1)[0, 0] == 0.0
        assert geometry.similarity_matrix("biou", tracks, dets, cfg.b2)[0, 0] > 0.0
        matches, un_t, un_d = cascade_match(tracks, dets, cfg)
        assert matches == [(0, 0)] and un_t == [] and un_d == []

    def test_cascade_disabled_is_single_round(self):
        cfg = TrackerConfig(b1=0.1, b2=0.4, cascade_enabled=False)
        track_box = BoundingBox(0, 0, 10, 10)
        det_box = BoundingBox(17, 0, 10, 10)
        matches, un_t, un_d = cascade_match(
            geometry.to_xyxy([track_box]), geometry.to_xyxy([det_box]), cfg
        )
        assert matches == [] and un_t == [0] and un_d == [0]

    def test_rounds_are_disjoint_and_round1_has_priority(self):
        rng = np.random.default_rng(21)
        cfg = TrackerConfig()
        for _ in range(100):
            tracks = geometry.to_xyxy(
                BoundingBox(rng.uniform(0, 300), rng.uniform(0, 300), 10, 10)
                for _ in range(int(rng.integers(1, 8)))
            )
            dets = geometry.to_xyxy(
                BoundingBox(rng.uniform(0, 300), rng.uniform(0, 300), 10, 10)
                for _ in range(int(rng.integers(1, 8)))
            )
            matches, un_t, un_d = cascade_match(tracks, dets, cfg)
            used_t = [t for t, _ in matches]
            used_d = [d for _, d in matches]
            assert len(set(used_t)) == len(used_t)
            assert len(set(used_d)) == len(used_d)
            assert sorted(used_t + un_t) == list(range(len(tracks)))
            assert sorted(used_d + un_d) == list(range(len(dets)))
            # pairs added by round 2 were genuinely unmatched under b1
            sim1 = geometry.similarity_matrix("biou", tracks, dets, cfg.b1)
            round1 = set(assignment.gated_match(sim1, cfg.min_sim).pairs)
            for pair in matches:
                if pair not in round1:
                    assert sim1[pair] < cfg.min_sim


class TestRunSequence:
    def test_empty_stream(self):
        assert run_sequence(TrackerConfig(), {}) == []

    def test_missing_frames_treated_as_empty(self):
        # frames 2 and 3 age the track without ending it; only keys get an output
        outputs = run_sequence(
            TrackerConfig(max_age=5), {1: [det(0)], 4: [det(3)]}
        )
        assert [out.frame for out in outputs] == [1, 4]
        assert [[rec[0] for rec in out.records] for out in outputs] == [[1], [1]]

    def test_single_linear_object_is_one_perfect_track(self):
        frames = 200
        dets = {
            f: [det(2.0 * f, y=1.5 * f)]
            for f in range(1, frames + 1)
        }
        outputs = run_sequence(TrackerConfig(), dets)
        ids = {rec[0] for out in outputs for rec in out.records}
        assert ids == {1}
        gt = labels({f: [(1, dets[f][0].box)] for f in dets})
        report = track_and_evaluate(TrackerConfig(), [dets], [gt])
        assert report.idf1 == 1.0
        assert report.idsw == 0

    def test_occluded_swap_preserves_ids(self):
        # two objects approach, both fully occluded for 3 frames mid-crossing
        # (no annotations, no detections), and each reappears on the far side
        frames = 21
        gap = {10, 11, 12}
        dets = {}
        gt_frames = {}
        for f in range(1, frames + 1):
            xa = 10.0 * f
            xb = 220.0 - 10.0 * f
            if f not in gap:
                gt_frames[f] = [(1, BoundingBox(xa, 0, 8, 8)), (2, BoundingBox(xb, 40, 8, 8))]
                dets[f] = [det(xa, y=0, w=8, h=8), det(xb, y=40, w=8, h=8)]
            else:
                dets[f] = []
        report = track_and_evaluate(TrackerConfig(max_age=5), [dets], [labels(gt_frames)])
        assert report.assa == 1.0
        assert report.idsw == 0

    def test_determinism(self):
        spec = ScenarioSpec(
            num_objects=8,
            num_frames=60,
            arena=(600.0, 600.0),
            speed_range=(5.0, 20.0),
            turn_prob=0.1,
            size_range=(15.0, 25.0),
            seed=3,
        )
        _, dets = generate(spec)
        a = run_sequence(TrackerConfig(), dets)
        b = run_sequence(TrackerConfig(), dets)
        assert a == b

    def test_iou_kind_equals_zero_buffer(self):
        spec = ScenarioSpec(
            num_objects=6,
            num_frames=50,
            arena=(400.0, 400.0),
            speed_range=(2.0, 8.0),
            turn_prob=0.1,
            size_range=(15.0, 25.0),
            seed=11,
        )
        _, dets = generate(spec)
        as_iou = run_sequence(
            TrackerConfig(similarity_kind="iou", cascade_enabled=False, motion_enabled=False), dets
        )
        as_zero_biou = run_sequence(
            TrackerConfig(
                b1=0.0, similarity_kind="biou", cascade_enabled=False, motion_enabled=False
            ),
            dets,
        )
        assert as_iou == as_zero_biou

    def test_interpolation_fills_gaps(self):
        dets = {
            1: [det(0)],
            2: [det(10)],
            5: [det(40)],
        }
        table = DetectionTable.from_detections(dets)
        frames, tids, tlwh, _conf = result_rows(TrackerConfig(), table, interpolate_gaps=True)
        by_frame = dict(zip(frames.tolist(), tlwh[:, 0].tolist()))
        assert by_frame[3] == pytest.approx(20)
        assert by_frame[4] == pytest.approx(30)
        assert tids.tolist() == [1] * 5
        plain = run_sequence(TrackerConfig(), dets)
        assert [out.frame for out in plain] == [1, 2, 5]


class TestFrameOutput:
    def test_one_record_per_id(self):
        outputs = run_sequence(
            TrackerConfig(), {1: [det(0), det(100), det(200)]}
        )
        ids = [rec[0] for rec in outputs[0].records]
        assert len(ids) == len(set(ids))

    def test_records_sorted_by_id(self):
        outputs = run_sequence(
            TrackerConfig(), {1: [det(300), det(0), det(150)]}
        )
        ids = [rec[0] for rec in outputs[0].records]
        assert ids == sorted(ids)


class TestDetectionTable:
    def test_rows_grouped_by_frame_in_given_order(self):
        dets = {4: [det(7, conf=0.5), det(1)], 2: [], 1: [det(3, w=2.5)]}
        table = DetectionTable.from_detections(dets)
        assert table.frame_keys.tolist() == [1, 2, 4]
        assert table.row_frames.tolist() == [1, 4, 4]
        assert table.tlwh.tolist() == [[3, 0, 2.5, 10], [7, 0, 10, 10], [1, 0, 10, 10]]
        assert table.confidence.tolist() == [1.0, 0.5, 1.0]
        assert table.xyxy.tobytes() == geometry.to_xyxy(d.box for f in (1, 4) for d in dets[f]).tobytes()
        with pytest.raises(ValueError):
            table.xyxy[0, 0] = 5.0

    @pytest.mark.parametrize("key", [1.5, float("nan"), float("inf")])
    def test_non_integral_frame_key_rejected(self, key):
        # int(1.5) named frame 1, whose lookup missed: the detection was dropped
        message = re.escape(f"frame {key!r} is not an integer")
        with pytest.raises(ValueError, match=message):
            DetectionTable.from_detections({key: [det(0)]})
        with pytest.raises(ValueError, match=message):
            run_sequence(TrackerConfig(), {key: [det(0)]})

    def test_frame_below_one_rejected(self):
        with pytest.raises(ValueError, match="frame 0 is below 1"):
            run_sequence(TrackerConfig(), {0: [], 1: [det(0)]})

    def test_integral_float_frame_key_is_its_integer(self):
        assert run_sequence(TrackerConfig(), {2.0: [det(0)]}) == run_sequence(TrackerConfig(), {2: [det(0)]})

    def test_rows_index_the_table(self):
        dets = {1: [det(0), det(100, conf=0.05)], 3: [det(4), det(300)]}
        table = DetectionTable.from_detections(dets)
        frames, tids, rows = track_cells([TrackerConfig(max_age=3)], table)[0]
        assert frames.tolist() == [1, 3, 3]
        assert tids.tolist() == [1, 1, 2]
        # row 1 is below det_conf_min: never admitted, never reported
        assert rows.tolist() == [0, 2, 3]
        assert [a.dtype for a in (frames, tids, rows)] == [np.int64] * 3

    def test_pickled_table_stays_read_only(self):
        # a process pool pickles the table for each compare/grid task
        dets = {1: [det(0), det(100, conf=0.05)], 3: [det(4), det(300)]}
        table = DetectionTable.from_detections(dets)
        copied = pickle.loads(pickle.dumps(table))
        for name in ("frame_keys", "row_frames", "tlwh", "xyxy", "confidence"):
            assert getattr(copied, name).tobytes() == getattr(table, name).tobytes()
            assert not getattr(copied, name).flags.writeable
        config = TrackerConfig(max_age=3)
        assert [a.tolist() for a in track_cells([config], copied)[0]] == [
            a.tolist() for a in track_cells([config], table)[0]
        ]

    @pytest.mark.parametrize(
        "frame_keys, rows, message",
        [
            ([0, 1], [(0, [0, 0, 10, 10], 1.0)], "frame 0 is below 1"),
            (
                [1, 2],
                [(1, [0, 0, 10, 10], 1.0), (2, [0, 0, 0, 10], 1.0), (2, [0, 0, 10, 10], INF)],
                "detection row 1: box extents must be positive in corner form, got x=0.0, y=0.0, w=0.0, h=10.0",
            ),
            ([1], [(1, [0, 0, 10, 10], 1.0), (1, [INF, 0, 10, 10], 1.0)], "detection row 1: x must be finite, got inf"),
            ([1], [(1, [0, 0, 10, 10], float("nan"))], "detection row 0: confidence must be finite, got nan"),
        ],
        ids=["frame_zero", "zero_width", "infinite_x", "nan_confidence"],
    )
    def test_rows_a_detection_rejects_are_rejected(self, frame_keys, rows, message):
        # a zero-width box was widened to 1 px by predict and never matched;
        # a frame 0 failed only at its first step
        frames, tlwh, confidence = zip(*rows)
        with pytest.raises(ValueError, match=re.escape(message)):
            DetectionTable(frame_keys, frames, tlwh, confidence)

    def test_empty_table(self):
        empty = DetectionTable.from_detections({})
        assert [a.tolist() for a in track_cells([TrackerConfig()], empty)[0]] == [[], [], []]
        assert [len(a) for a in result_rows(TrackerConfig(), empty, interpolate_gaps=True)] == [0] * 4


class TestTableFrames:
    DETS = {1: [det(0), det(100, conf=0.05), det(50)], 3: [det(51, w=9.5), det(2)]}

    def test_frames_admit_rows_and_skip_frames_without_them(self):
        table = DetectionTable.from_detections({**self.DETS, 4: [], 5: [det(0, conf=0.05)]})
        frames = list(table.frames(0.1))
        assert [frame for frame, _ in frames] == [1, 3]
        assert [rows.rows for _, rows in frames] == [[0, 2], [3, 4]]
        assert [rows.confidence for _, rows in frames] == [[1.0, 1.0], [1.0, 1.0]]
        assert frames[1][1].xyxy.tobytes() == table.xyxy[3:5].tobytes()
        assert [frame for frame, _ in table.frames(0.01)] == [1, 3, 5]
        assert list(table.frames(1.5)) == []
        assert list(DetectionTable.from_detections({}).frames(0.1)) == []

    def test_step_answers_in_the_form_it_is_given(self):
        table = DetectionTable.from_detections(self.DETS)
        by_rows, by_boxes = CBiouTracker(), CBiouTracker()
        for frame, rows in table.frames(TrackerConfig().det_conf_min):
            got = by_rows.step(frame, rows)
            want = by_boxes.step(frame, self.DETS.get(frame, []))
            assert isinstance(got, FrameRows) and got.frame == want.frame == frame
            assert [(tid, table.tlwh[row].tolist(), conf) for tid, row, conf in got.records] == [
                (tid, [box.x, box.y, box.w, box.h], conf) for tid, box, conf in want.records
            ]
        assert by_rows.tracks == by_boxes.tracks

    @staticmethod
    def stepped_frames(monkeypatch, config, dets):
        """The outputs a wrapped ``CBiouTracker.step`` sees in a table run of
        ``config``, and the run's (frames, track ids, rows)."""
        seen = []
        original = CBiouTracker.step

        def wrapped(self, frame, detections):
            out = original(self, frame, detections)
            seen.append(out)
            return out

        monkeypatch.setattr(CBiouTracker, "step", wrapped)
        return seen, track_cells([config], DetectionTable.from_detections(dets))[0]

    def test_table_runs_step_only_frames_with_admitted_rows(self, monkeypatch):
        # frame 2 has no rows: a track is alive, but frame 3's step crosses it
        seen, (frames, tids, rows) = self.stepped_frames(monkeypatch, TrackerConfig(), self.DETS)
        assert [out.frame for out in seen] == [1, 3]
        assert [(out.frame, tid, row) for out in seen for tid, row, _ in out.records] == list(
            zip(frames.tolist(), tids.tolist(), rows.tolist())
        )

    def test_table_runs_skip_empty_frames_without_tracks(self, monkeypatch):
        # the track of frame 1 dies in frame 5, inside the gap that frame 50's
        # step crosses; frame 60 has no admitted rows, so it is not stepped,
        # but run_sequence still gives its key an output
        dets = {1: [det(0)], 50: [det(0)], 60: [det(0, conf=0.05)]}
        seen, (frames, tids, _rows) = self.stepped_frames(monkeypatch, TrackerConfig(max_age=3), dets)
        assert [out.frame for out in seen] == [1, 50]
        assert list(zip(frames.tolist(), tids.tolist())) == [(1, 1), (50, 2)]
        outputs = run_sequence(TrackerConfig(max_age=3), dets)
        assert [(out.frame, tid) for out in outputs for tid, _box, _conf in out.records] == [(1, 1), (50, 2)]
        assert [out.frame for out in outputs] == [1, 50, 60]


# Boxes on a 60 x 60 arena, with confidences on both sides of det_conf_min:
# crowded enough that buffers overlap, round 2 runs and tracks coast and die.
DETECTION = st.builds(
    lambda x, y, w, h, conf: (x, y, w, h, conf),
    st.integers(0, 50),
    st.integers(0, 50),
    st.integers(2, 15),
    st.integers(2, 15),
    st.sampled_from([0.05, 0.1, 0.5, 1.0]),
)
SEQUENCES = st.dictionaries(
    st.integers(1, 14), st.lists(DETECTION, max_size=6), min_size=1, max_size=10
).map(lambda frames: {f: [det(x, y, w, h, conf) for x, y, w, h, conf in rows] for f, rows in frames.items()})
CONFIGS = st.builds(
    lambda kind, cascade, motion_on, max_age, conf_min: TrackerConfig(
        similarity_kind=kind,
        cascade_enabled=cascade,
        motion_enabled=motion_on,
        max_age=max_age,
        det_conf_min=conf_min,
    ),
    st.sampled_from(geometry.SIMILARITY_KINDS),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1, 2, 30]),
    st.sampled_from([0.1, 0.6]),
)


def result_row_records(config, table, interpolate_gaps):
    """``result_rows`` as (frame, track id, tlwh, confidence) tuples, by frame and then by track id."""
    frames, tids, tlwh, conf = result_rows(config, table, interpolate_gaps=interpolate_gaps)
    order = np.lexsort((tids, frames))
    return list(zip(frames[order].tolist(), tids[order].tolist(), tlwh[order].tolist(), conf[order].tolist()))


def frame_records(outputs):
    """The records of ``FrameOutput``s in the form of ``result_row_records``."""
    return [(out.frame, tid, [box.x, box.y, box.w, box.h], c) for out in outputs for tid, box, c in out.records]


def step_every_frame(config, dets):
    """``step`` on every frame from the first key to the last, and the
    outputs of the keys: what ``run_sequence``, which crosses each gap in
    one step, must give."""
    tracker = CBiouTracker(config)
    outputs = [tracker.step(f, dets.get(f, [])) for f in range(min(dets), max(dets) + 1)]
    return [out for out in outputs if out.frame in dets]


class TestTableLoopEqualsStep:
    @settings(max_examples=300)
    @given(CONFIGS, SEQUENCES)
    def test_outputs_equal(self, config, dets):
        outputs = run_sequence(config, dets)
        assert outputs == step_every_frame(config, dets)
        # each record holds its Detection's own box and confidence
        given_boxes = {id(d.box) for rows in dets.values() for d in rows}
        assert all(id(box) in given_boxes for out in outputs for _tid, box, _conf in out.records)

    @settings(max_examples=100)
    @given(CONFIGS, SEQUENCES)
    def test_result_rows_equal_frame_outputs(self, config, dets):
        # the array rows of cbiou track, with and without gap filling
        table = DetectionTable.from_detections(dets)
        for interpolate in (False, True):
            outputs = run_sequence(config, dets)
            assert result_row_records(config, table, interpolate) == frame_records(
                fill_gaps(outputs) if interpolate else outputs
            )


# Cells over all four kinds, with and without cascade and motion. Buffers are
# often shared, as in a grid: cells with the same (kind, b1) form runs, and
# cells with other b1 share a b2 in round 2.
CELLS = st.lists(
    st.builds(
        lambda kind, cascade, motion_on, b1, b2, max_age: TrackerConfig(
            b1=b1,
            b2=b2,
            max_age=max_age,
            similarity_kind=kind,
            cascade_enabled=cascade,
            motion_enabled=motion_on,
        ),
        st.sampled_from(geometry.SIMILARITY_KINDS),
        st.booleans(),
        st.booleans(),
        st.one_of(st.sampled_from([0.0, 0.1, 0.3]), st.floats(0.0, 0.35)),
        st.one_of(st.sampled_from([0.4, 0.8]), st.floats(0.36, 1.0)),
        st.sampled_from([1, 2, 3, 30]),
    ),
    min_size=1,
    max_size=8,
)


def cell_of(tid, cells):
    """The cell and the cell's own id of a lockstep tracker's track id."""
    serial, cell = divmod(tid - 1, cells)
    return cell, serial + 1


class TestLockstep:
    @settings(max_examples=200)
    @given(CELLS, st.sampled_from([0.1, 0.6]), st.sampled_from([2, 5]), SEQUENCES)
    def test_each_cell_equals_its_config_alone(self, cells, conf_min, n_max, dets):
        configs = [replace(config, det_conf_min=conf_min, n_max=n_max) for config in cells]
        table = DetectionTable.from_detections(dets)
        for config, rows in zip(configs, track_cells(configs, table), strict=True):
            alone = track_cells([config], table)[0]
            assert [a.tolist() for a in rows] == [a.tolist() for a in alone]
        # stepped directly, only on the frames present: the gap rule, per cell
        together = CBiouTracker(*configs)
        merged = {
            f: [(cell_of(tid, len(configs)), box, c) for tid, box, c in together.step(f, dets[f]).records]
            for f in sorted(dets)
        }
        for k, config in enumerate(configs):
            alone = CBiouTracker(config)
            for frame, records in merged.items():
                mine = [(serial, box, c) for (cell, serial), box, c in records if cell == k]
                assert mine == list(alone.step(frame, dets[frame]).records)

    @pytest.mark.parametrize("field, value", [("det_conf_min", 0.5), ("n_max", 3)])
    def test_cells_must_share_admission_and_history(self, field, value):
        table = DetectionTable.from_detections({1: [det(0)]})
        with pytest.raises(ValueError, match="must share det_conf_min and n_max"):
            track_cells([TrackerConfig(), replace(TrackerConfig(), **{field: value})], table)
        with pytest.raises(ValueError, match="at least one config"):
            track_cells([], table)

    def test_round2_scores_each_cells_own_leftovers(self):
        # Frame 2 is 0.5 px from track 1 and 5 px from track 2. The b1 = 0.1
        # cell links track 1 in round 1, the b1 = 0 cell leaves both tracks
        # to the shared b2 = 0.4 round, where both cells link track 2.
        configs = [TrackerConfig(b1=b1, b2=0.4, motion_enabled=False) for b1 in (0.0, 0.1)]
        dets = {1: [det(0), det(100)], 2: [det(10.5), det(115)]}
        table = DetectionTable.from_detections(dets)
        together = track_cells(configs, table)
        for config, rows in zip(configs, together):
            assert [a.tolist() for a in rows] == [a.tolist() for a in track_cells([config], table)[0]]
            assert rows[1].tolist() == [1, 2, 1, 2]

    def test_one_similarity_call_per_kind_and_buffer(self, monkeypatch):
        # the six variants: round 1 scores IoU, GIoU, DIoU and the three BIoU
        # cells (same b1) in four calls, round 2 both cascade cells in one
        calls = []
        original = geometry.similarity_matrix

        def spy(kind, a, b, scale=0.0):
            calls.append((kind, scale, len(a)))
            return original(kind, a, b, scale)

        monkeypatch.setattr(geometry, "similarity_matrix", spy)
        configs = list(variant_configs(TrackerConfig()).values())
        dets = {1: [det(0), det(100)], 2: [det(2), det(118)]}
        track_cells(configs, DetectionTable.from_detections(dets))
        assert calls == [
            ("iou", 0.3, 2), ("giou", 0.3, 2), ("diou", 0.3, 2), ("biou", 0.3, 6), ("biou", 0.4, 2)
        ]


# Boxes that narrow by under a pixel a frame, then gaps of up to 30 frames,
# the largest max_age drawn: a coasting prediction keeps narrowing and
# collapses inside a gap, where the gap rule re-centres it frame by frame.
# Frames 1 and 2 are consecutive so that every track has a velocity.
NARROWING = st.tuples(
    st.floats(0, 40), st.floats(2, 10), st.floats(0.05, 0.95), st.floats(-1, 1)
)


@st.composite
def collapsing_sequences(draw):
    objects = draw(st.lists(NARROWING, min_size=1, max_size=3))
    frames = [1, 2]
    for gap in draw(st.lists(st.integers(0, 30), min_size=1, max_size=4)):
        frames.append(frames[-1] + gap + 1)
    return {
        f: [
            det(x + drift * (f - 1), y=12.0 * k, w=max(w - shrink * (f - 1), 0.1))
            for k, (x, w, shrink, drift) in enumerate(objects)
        ]
        for f in frames
    }


def direct_rows(config, dets, every_frame=False):
    """``config`` stepped directly on the frames of ``dets``, each gap in
    one step, or on every frame from the first to the last, as (frames,
    track ids, table rows) lists."""
    row_of = {id(d.box): row for row, d in enumerate(d for f in sorted(dets) for d in dets[f])}
    frames = range(min(dets), max(dets) + 1) if every_frame else sorted(dets)
    tracker = CBiouTracker(config)
    records = [
        (f, tid, row_of[id(box)]) for f in frames for tid, box, _c in tracker.step(f, dets.get(f, [])).records
    ]
    return [list(column) for column in zip(*records)] or [[], [], []]


class TestGapRule:
    def test_collapse_inside_a_gap_is_recentred_where_it_happens(self):
        # Frame 2's box narrows the prediction 0.5 px a frame; it collapses
        # in frames 21 and 23, and re-centred there ends at x in [-1, -0.5]
        # in frame 24, 0.04 px short of the detection at b2. Re-centred once,
        # at the end of the gap, it was 1 px wide and kept track 1.
        config = TrackerConfig(b1=0.0, b2=0.1)
        dets = {1: [det(0)], 2: [det(0, w=9.5)], 24: [det(-0.4, w=0.1)]}
        tracker = CBiouTracker(config)
        direct = [tracker.step(f, dets[f]) for f in dets]
        assert [[rec[0] for rec in out.records] for out in direct] == [[1], [1], [2]]
        assert run_sequence(config, dets) == direct
        table = DetectionTable.from_detections(dets)
        assert [a.tolist() for a in track_cells([config], table)[0]] == direct_rows(config, dets)
        assert direct_rows(config, dets) == direct_rows(config, dets, every_frame=True)

    @settings(max_examples=200)
    @given(CONFIGS, collapsing_sequences())
    def test_direct_steps_equal_track_cells(self, config, dets):
        # and both equal stepping each empty frame of every gap
        table = DetectionTable.from_detections(dets)
        direct = direct_rows(config, dets)
        assert [a.tolist() for a in track_cells([config], table)[0]] == direct
        assert direct == direct_rows(config, dets, every_frame=True)

    @settings(max_examples=100)
    @given(CELLS, collapsing_sequences())
    def test_direct_steps_equal_each_lockstep_cell(self, cells, dets):
        # mixed kinds, motion and max_age, tracked together over the table
        table = DetectionTable.from_detections(dets)
        for config, rows in zip(cells, track_cells(cells, table), strict=True):
            direct = direct_rows(config, dets)
            assert [a.tolist() for a in rows] == direct
            assert direct == direct_rows(config, dets, every_frame=True)


class TestInterpolation:
    def test_reference_loop(self):
        # the per-record loop the array form replaced
        _, dets = generate(
            ScenarioSpec(
                num_objects=6,
                num_frames=40,
                arena=(300.0, 300.0),
                speed_range=(2.0, 9.0),
                turn_prob=0.1,
                size_range=(10.0, 25.0),
                occlusion=OcclusionSpec(0.1, (2, 5)),
                seed=8,
            )
        )
        plain = run_sequence(TrackerConfig(), dets)
        filled = fill_gaps(plain)
        assert filled != plain
        table = DetectionTable.from_detections(dets)
        assert result_row_records(TrackerConfig(), table, True) == frame_records(filled)

    def test_collapsed_box_raises_the_box_error(self):
        # x0 and x1 are odd multiples of the float64 spacing 32 near 2**57, so
        # x + 16 rounds up; their midpoint is even, and x + 16 rounds back to x
        x0, x1 = 2.0**57 + 32, 2.0**57 + 96
        assert x0 + 16 > x0 and x1 + 16 > x1
        dets = {1: [det(x0, w=16, h=1)], 3: [det(x1, w=16, h=1)]}
        config = TrackerConfig(b1=10, b2=20, motion_enabled=False)
        assert [len(out.records) for out in run_sequence(config, dets)] == [1, 1]
        with pytest.raises(ValueError) as expected:
            BoundingBox((x0 + x1) / 2, 0.0, 16.0, 1.0)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            result_rows(config, DetectionTable.from_detections(dets), interpolate_gaps=True)

