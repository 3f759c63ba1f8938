import numpy as np
import pytest

from cbiou import assignment, geometry, motion
from cbiou import tracker as tracker_module
from cbiou.geometry import BoundingBox
from cbiou.metrics import SequenceAnnotations, evaluate
from cbiou.synth import ScenarioSpec, generate
from cbiou.tracker import (
    CBiouTracker,
    Detection,
    FrameOutput,
    TrackerConfig,
    cascade_match,
    run_sequence,
)


def det(frame, x, y=0.0, w=10.0, h=10.0, conf=1.0) -> Detection:
    return Detection(frame=frame, box=BoundingBox(x, y, w, h), confidence=conf)


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


class TestStep:
    def test_first_frame_initializes_all_detections(self):
        tracker = CBiouTracker()
        out = tracker.step(1, [det(1, 0), det(1, 100), det(1, 200)])
        assert [rec[0] for rec in out.records] == [1, 2, 3]
        assert [rec[1].x for rec in out.records] == [0, 100, 200]

    def test_nonoverlapping_jump_keeps_id(self):
        # plain IoU would be 0 here; the buffered overlap at b1=0.3 is 1/7
        outputs = run_sequence(TrackerConfig(), {1: [det(1, 0)], 2: [det(2, 12)]})
        assert [rec[0] for out in outputs for rec in out.records] == [1, 1]

    def test_termination_and_fresh_id(self):
        cfg = TrackerConfig(max_age=2)
        tracker = CBiouTracker(cfg)
        tracker.step(1, [det(1, 0)])
        for f in range(2, 5):
            tracker.step(f, [])
        assert tracker.tracks == ()
        out = tracker.step(5, [det(5, 0)])
        assert out.records[0][0] == 2

    def test_age_bound_while_alive(self):
        cfg = TrackerConfig(max_age=3, motion_enabled=False)
        tracker = CBiouTracker(cfg)
        tracker.step(1, [det(1, 0)])
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

    def test_detection_frame_must_match(self):
        tracker = CBiouTracker()
        with pytest.raises(ValueError):
            tracker.step(1, [det(2, 0)])

    def test_low_confidence_detections_dropped(self):
        cfg = TrackerConfig(det_conf_min=0.5)
        tracker = CBiouTracker(cfg)
        out = tracker.step(1, [det(1, 0, conf=0.4), det(1, 100, conf=0.6)])
        assert len(out.records) == 1
        assert out.records[0][1].x == 100

    def test_ids_strictly_increase(self):
        tracker = CBiouTracker()
        tracker.step(1, [det(1, 0), det(1, 500)])
        out = tracker.step(2, [det(2, 0), det(2, 500), det(2, 1000)])
        assert [rec[0] for rec in out.records] == [1, 2, 3]

    def test_coasting_uses_frozen_velocity(self):
        cfg = TrackerConfig(max_age=10)
        tracker = CBiouTracker(cfg)
        tracker.step(1, [det(1, 0)])
        tracker.step(2, [det(2, 5)])  # velocity 5 px/frame
        for missing in range(1, 4):
            tracker.step(2 + missing, [])
            _tid, state, age = tracker.tracks[0]
            assert state[0] == pytest.approx(5 + 5 * missing)
            assert age == missing

    def test_matched_state_is_detection_box(self):
        tracker = CBiouTracker()
        tracker.step(1, [det(1, 0)])
        tracker.step(2, [det(2, 7, y=1, w=12, h=9)])
        _tid, (x1, y1, x2, y2), _age = tracker.tracks[0]
        assert (x1, y1) == (7, 1)
        assert (x2 - x1, y2 - y1) == (12, 9)

    def test_gap_ages_by_elapsed_frames(self):
        tracker = CBiouTracker(TrackerConfig(max_age=2))
        tracker.step(1, [det(1, 0)])
        out = tracker.step(500, [det(500, 0)])
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
        tracker.step(1, [det(1, 0)])
        tracker.step(2, [det(2, 5)])
        tracker.step(6, [det(6, 25)])
        out = tracker.step(10**9, [det(10**9, 0)])
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
            every_frame = [out for out in run_sequence(cfg, present) if out.frame in present]
            assert direct == every_frame

    def test_failed_step_leaves_tracker_unchanged(self, monkeypatch):
        # Boxes within MAX_ABS_COORDINATE cannot make a prediction or a
        # similarity overflow, so the failure is injected at each of the two
        # calls that raise on one; the step to frame 4 also crosses a gap.
        cfg = TrackerConfig(similarity_kind="iou", cascade_enabled=False)
        tracker = CBiouTracker(cfg)
        tracker.step(1, [det(1, 0)])
        tracker.step(2, [det(2, 5)])
        before = tracker.tracks
        assert [tid for tid, _state, _age in before] == [1]

        def fail(*_args):
            raise ValueError("non-finite values")

        for owner, name in ((motion, "predict"), (tracker_module, "cascade_match")):
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, fail)
                with pytest.raises(ValueError, match="finite"):
                    tracker.step(4, [det(4, 15)])
            assert tracker.tracks == before
        with pytest.raises(ValueError, match="must increase"):
            tracker.step(2, [])


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
        assert geometry.biou_matrix(tracks, dets, cfg.b1)[0, 0] == 0.0
        assert geometry.biou_matrix(tracks, dets, cfg.b2)[0, 0] > 0.0
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
        outputs = run_sequence(
            TrackerConfig(max_age=5), {1: [det(1, 0)], 4: [det(4, 3)]}
        )
        assert [out.frame for out in outputs] == [1, 2, 3, 4]
        assert [len(out.records) for out in outputs] == [1, 0, 0, 1]

    def test_single_linear_object_is_one_perfect_track(self):
        frames = 200
        dets = {
            f: [det(f, 2.0 * f, y=1.5 * f)]
            for f in range(1, frames + 1)
        }
        outputs = run_sequence(TrackerConfig(), dets)
        ids = {rec[0] for out in outputs for rec in out.records}
        assert ids == {1}
        gt = SequenceAnnotations(
            {f: [(1, dets[f][0].box)] for f in dets}
        )
        report = evaluate(gt, SequenceAnnotations.from_frame_outputs(outputs))
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
                dets[f] = [det(f, xa, y=0, w=8, h=8), det(f, xb, y=40, w=8, h=8)]
            else:
                dets[f] = []
        outputs = run_sequence(TrackerConfig(max_age=5), dets)
        report = evaluate(
            SequenceAnnotations(gt_frames), SequenceAnnotations.from_frame_outputs(outputs)
        )
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
            1: [det(1, 0)],
            2: [det(2, 10)],
            5: [det(5, 40)],
        }
        outputs = run_sequence(TrackerConfig(), dets, interpolate_gaps=True)
        by_frame = {out.frame: out.records for out in outputs}
        assert by_frame[3][0][1].x == pytest.approx(20)
        assert by_frame[4][0][1].x == pytest.approx(30)
        plain = run_sequence(TrackerConfig(), dets)
        assert {out.frame: out.records for out in plain}[3] == ()


class TestFrameOutput:
    def test_one_record_per_id(self):
        outputs = run_sequence(
            TrackerConfig(), {1: [det(1, 0), det(1, 100), det(1, 200)]}
        )
        ids = [rec[0] for rec in outputs[0].records]
        assert len(ids) == len(set(ids))

    def test_records_sorted_by_id(self):
        outputs = run_sequence(
            TrackerConfig(), {1: [det(1, 300), det(1, 0), det(1, 150)]}
        )
        ids = [rec[0] for rec in outputs[0].records]
        assert ids == sorted(ids)
