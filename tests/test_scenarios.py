import math

from cbiou import scenarios, synth
from cbiou.geometry import iou


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
