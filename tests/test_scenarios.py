import math

import pytest

from cbiou import experiments, scenarios, synth
from cbiou.geometry import iou, similarity_matrix, to_xyxy
from cbiou.tracker import TrackerConfig


def consecutive_steps(gt):
    """(earlier box, later box) for every id in every pair of frames in
    which it appears one after the other."""
    tracks: dict[int, list] = {}
    for frame, rows in sorted(gt.frames.items()):
        for identity, box in rows:
            tracks.setdefault(identity, []).append((frame, box))
    return [(a, b) for seq in tracks.values() for (_, a), (_, b) in zip(seq, seq[1:])]


def test_non_overlap_scenario_overlaps_only_across_a_wall_reflection():
    spec = scenarios.non_overlap_scenario()
    side = spec.size_range[0]
    assert spec.size_range == (side, side)
    assert spec.speed_range[0] >= math.sqrt(2) * side
    assert spec.speed_range[1] < 1.6 * side
    arena_w, arena_h = spec.arena
    gt, _dets = synth.generate(spec)
    tracks: dict[int, list] = {}
    for frame, rows in sorted(gt.frames.items()):
        for identity, box in rows:
            tracks.setdefault(identity, []).append((frame, box))
    overlaps = []
    for identity, seq in tracks.items():
        for (f0, a), (f1, b) in zip(seq, seq[1:]):
            if iou(a, b) > 0:
                overlaps.append((identity, f0, f1, round(iou(a, b), 3)))
                # the earlier box is within one step of a wall
                gap = min(a.x, a.y, arena_w - a.x - a.w, arena_h - a.y - a.h)
                assert gap < spec.speed_range[1]
    assert overlaps == [(2, 55, 56, 0.347)]


def test_non_overlap_scenario_steps_stay_inside_the_round_one_buffered_reach():
    b1 = TrackerConfig().b1
    assert math.isclose(1 + 2 * b1, 1.6)
    gt, _dets = synth.generate(scenarios.non_overlap_scenario())
    tracks: dict[int, list] = {}
    for frame, rows in sorted(gt.frames.items()):
        for identity, box in rows:
            tracks.setdefault(identity, []).append((frame, box))
    starts = [(identity, f0) for identity, seq in tracks.items() for f0, _box in seq[:-1]]
    earlier = to_xyxy(box for seq in tracks.values() for _frame, box in seq[:-1])
    later = to_xyxy(box for seq in tracks.values() for _frame, box in seq[1:])

    def reached(buffer_scale):
        """(id, frame) of each step whose two boxes score BIoU > 0."""
        return [
            start
            for start, a, b in zip(starts, earlier, later)
            if similarity_matrix("biou", a[None], b[None], buffer_scale)[0, 0] > 0
        ]

    assert len(starts) == 5980
    assert reached(b1) == starts
    assert reached(0.0) == [(2, 55)]


@pytest.mark.parametrize("spec", scenarios.irregular_scenarios(), ids=lambda spec: f"seed{spec.seed}")
def test_irregular_displacements_routinely_exceed_the_box_side(spec):
    gt, _dets = synth.generate(spec)
    steps = consecutive_steps(gt)
    longer = sum(
        math.hypot(b.x + b.w / 2 - a.x - a.w / 2, b.y + b.h / 2 - a.y - a.h / 2)
        > max(a.w, a.h, b.w, b.h)
        for a, b in steps
    )
    # 67.4% to 76.3% of steps at seeds 0-2
    assert longer >= 0.6 * len(steps)


@pytest.mark.parametrize("seed", range(4))
def test_noise_study_iou_mostly_works_and_buffering_helps(seed):
    gt, dets = synth.generate(scenarios.noise_study_scenario(seed))
    # slow enough: consecutive boxes of an id always overlap
    assert all(iou(a, b) > 0 for a, b in consecutive_steps(gt))
    configs = experiments.variant_configs(TrackerConfig())
    plain = experiments.track_and_evaluate(configs["IoU"], [dets], [gt])
    buffered = experiments.track_and_evaluate(configs["BIoU"], [dets], [gt])
    # measured at seeds 0-3: IoU MOTA 0.927-0.933, BIoU HOTA ahead by 0.049-0.130
    assert plain.mota >= 0.9
    assert buffered.hota > plain.hota
