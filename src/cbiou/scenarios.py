"""Canned synthetic scenarios used by the experiment drivers and checks.

The seeds are pinned: each scenario is deterministic, and the properties the
experiments rely on (for example adjacent-frame non-overlap) are asserted by
the tests that consume them.
"""

from __future__ import annotations

from .synth import OcclusionSpec, ScenarioSpec


def non_overlap_scenario(seed: int = 5) -> ScenarioSpec:
    """Fast linear motion: every object moves farther than its own box width
    per frame, so consecutive ground-truth boxes do not overlap, except across
    a wall reflection.

    Speeds are chosen so the displacement always exceeds the box diagonal
    reach (s >= sqrt(2) * side forces zero IoU for any heading) while staying
    inside the round-1 buffered reach of 1.6 * side. The arena is huge, so
    few objects reach a wall, but one that starts near a wall does; the step
    that reflects it is shorter, and its boxes may overlap. At the default
    seed 5, object 2 reflects off y = 1e6 at frame 56, and its frame-55 and
    frame-56 boxes overlap at IoU 0.347.
    """
    return ScenarioSpec(
        num_objects=20,
        num_frames=300,
        arena=(1_000_000.0, 1_000_000.0),
        speed_range=(14.5, 15.5),
        turn_prob=0.0,
        size_range=(10.0, 10.0),
        occlusion=None,
        seed=seed,
    )


def irregular_scenarios(base_seed: int = 0) -> list[ScenarioSpec]:
    """A small suite with turns and occlusion bursts: displacements routinely
    exceed the box side, headings change at random, and detections drop out
    for a few frames at a time."""
    return [
        ScenarioSpec(
            num_objects=12,
            num_frames=250,
            arena=(1200.0, 1200.0),
            speed_range=(18.0, 30.0),
            turn_prob=0.06,
            size_range=(16.0, 24.0),
            occlusion=OcclusionSpec(probability=0.02, duration=(2, 4)),
            seed=base_seed + offset,
        )
        for offset in range(3)
    ]


def noise_study_scenario(seed: int) -> ScenarioSpec:
    """Moderate motion used for the detection-noise study: slow enough that a
    plain IoU tracker mostly works, fast enough that buffering helps across
    short occlusions."""
    return ScenarioSpec(
        num_objects=10,
        num_frames=150,
        arena=(900.0, 900.0),
        speed_range=(8.0, 14.0),
        turn_prob=0.05,
        size_range=(18.0, 26.0),
        occlusion=OcclusionSpec(probability=0.02, duration=(2, 3)),
        seed=seed,
    )


def bench_scenario(num_objects: int, num_frames: int, seed: int = 0) -> ScenarioSpec:
    """In-memory workload for throughput measurement."""
    return ScenarioSpec(
        num_objects=num_objects,
        num_frames=num_frames,
        arena=(1920.0, 1080.0),
        speed_range=(4.0, 12.0),
        turn_prob=0.05,
        size_range=(40.0, 60.0),
        occlusion=None,
        seed=seed,
    )
