import numpy as np
import pytest

from cbiou.geometry import iou
from cbiou.synth import (
    FP_GT_IOU_MAX,
    FP_MAX_ATTEMPTS,
    GenerationError,
    NoiseSpec,
    OcclusionSpec,
    ScenarioSpec,
    generate,
    oracle_detections,
    perturb,
)


def basic_spec(**overrides) -> ScenarioSpec:
    params = dict(
        num_objects=5,
        num_frames=40,
        arena=(400.0, 300.0),
        speed_range=(3.0, 12.0),
        turn_prob=0.1,
        size_range=(10.0, 20.0),
        occlusion=None,
        seed=42,
    )
    params.update(overrides)
    return ScenarioSpec(**params)


class TestSpecs:
    def test_rejects_oversized_objects(self):
        with pytest.raises(ValueError):
            basic_spec(size_range=(10.0, 500.0))

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            basic_spec(turn_prob=1.5)
        with pytest.raises(ValueError):
            OcclusionSpec(probability=-0.1, duration=(1, 2))
        with pytest.raises(ValueError):
            OcclusionSpec(probability=0.5, duration=(3, 2))

    def test_noise_ratio_strictly_below_one(self):
        with pytest.raises(ValueError):
            NoiseSpec(ratio=1.0)
        NoiseSpec(ratio=0.0)
        NoiseSpec(ratio=0.999)


class TestGenerate:
    def test_empty_scenario(self):
        gt, dets = generate(basic_spec(num_objects=0))
        assert gt.box_count() == 0
        assert all(len(v) == 0 for v in dets.values())

    def test_linear_when_turns_disabled(self):
        gt, _ = generate(basic_spec(num_objects=3, turn_prob=0.0, arena=(5000.0, 5000.0), seed=1))
        for obj in (1, 2, 3):
            centers = []
            for f in sorted(gt.frames):
                for identity, b in gt.frames[f]:
                    if identity == obj:
                        centers.append((b.x + b.w / 2.0, b.y + b.h / 2.0))
            xs = np.array([c[0] for c in centers])
            ys = np.array([c[1] for c in centers])
            # second differences vanish on a straight path (no wall hits in a
            # big arena at these speeds)
            assert np.max(np.abs(np.diff(xs, 2))) < 1e-9
            assert np.max(np.abs(np.diff(ys, 2))) < 1e-9

    def test_determinism(self):
        spec = basic_spec()
        a_gt, a_dets = generate(spec)
        b_gt, b_dets = generate(spec)
        assert a_gt == b_gt
        assert a_dets == b_dets

    def test_boxes_stay_inside_arena(self):
        spec = basic_spec(num_objects=8, num_frames=300, speed_range=(20.0, 60.0), seed=9)
        gt, _ = generate(spec)
        w, h = spec.arena
        for rows in gt.frames.values():
            for _, b in rows:
                assert b.x >= -1e-9 and b.y >= -1e-9
                assert b.x + b.w <= w + 1e-9
                assert b.y + b.h <= h + 1e-9

    def test_identity_unique_per_frame(self):
        gt, _ = generate(basic_spec())
        for rows in gt.frames.values():
            ids = [identity for identity, _ in rows]
            assert len(ids) == len(set(ids))

    def test_occlusion_suppresses_detections_not_gt(self):
        spec = basic_spec(occlusion=OcclusionSpec(probability=0.1, duration=(2, 4)), seed=5)
        gt, dets = generate(spec)
        total_gt = gt.box_count()
        total_dets = sum(len(v) for v in dets.values())
        assert total_dets < total_gt
        assert all(d.confidence == 1.0 for v in dets.values() for d in v)

    def test_oracle_detections_mirror_gt(self):
        gt, _ = generate(basic_spec())
        dets = oracle_detections(gt)
        assert sum(len(v) for v in dets.values()) == gt.box_count()
        for f, rows in gt.frames.items():
            assert [d.box for d in dets[f]] == [b for _, b in rows]


class TestPerturb:
    def test_zero_ratio_is_identity(self):
        gt, dets = generate(basic_spec())
        assert perturb(dets, NoiseSpec(ratio=0.0, seed=1), gt) == dets

    @pytest.mark.parametrize("ratio", [0.2, 0.4])
    def test_count_symmetry(self, ratio):
        gt, dets = generate(basic_spec(num_objects=5, num_frames=20))
        total = sum(len(v) for v in dets.values())
        noisy = perturb(dets, NoiseSpec(ratio=ratio, seed=3), gt)
        assert sum(len(v) for v in noisy.values()) == total
        originals = {id(d) for v in dets.values() for d in v}
        kept = sum(1 for v in noisy.values() for d in v if id(d) in originals)
        assert kept == total - int(round(ratio * total))

    def test_fp_separation_from_gt(self):
        gt, dets = generate(basic_spec(num_objects=4, num_frames=30))
        noisy = perturb(dets, NoiseSpec(ratio=0.3, seed=7), gt)
        originals = {id(d) for v in dets.values() for d in v}
        for f, v in noisy.items():
            for d in v:
                if id(d) not in originals:
                    for _, gbox in gt.frames.get(f, ()):
                        assert iou(d.box, gbox) < FP_GT_IOU_MAX

    def test_determinism_and_seed_sensitivity(self):
        gt, dets = generate(basic_spec())
        a = perturb(dets, NoiseSpec(ratio=0.25, seed=11), gt)
        b = perturb(dets, NoiseSpec(ratio=0.25, seed=11), gt)
        c = perturb(dets, NoiseSpec(ratio=0.25, seed=12), gt)
        assert a == b
        assert a != c

    def test_stratified_draws_per_frame(self):
        gt, dets = generate(basic_spec(num_objects=10, num_frames=10, occlusion=None))
        noisy = perturb(dets, NoiseSpec(ratio=0.2, seed=1), gt, stratified=True)
        originals = {id(d) for v in dets.values() for d in v}
        for f in dets:
            kept = sum(1 for d in noisy[f] if id(d) in originals)
            assert kept == len(dets[f]) - int(round(0.2 * len(dets[f])))

    def test_crowded_frame_raises_generation_error(self):
        # Every ground-truth box is the whole envelope, so the only size drawn
        # is the envelope's and the only position is its corner: each
        # candidate coincides with a ground-truth box, at IoU 1 >= FP_GT_IOU_MAX.
        # Four detections at ratio 0.5 remove two, so placement is attempted.
        from cbiou.geometry import BoundingBox
        from cbiou.metrics import SequenceAnnotations
        from cbiou.tracker import Detection

        envelope = BoundingBox(0.0, 0.0, 40.0, 40.0)
        rows = [(identity, envelope) for identity in range(1, 5)]
        gt = SequenceAnnotations({1: rows})
        dets = {1: [Detection(1, b, 1.0) for _, b in rows]}
        for seed in (0, 1, 2, 3, 12345):
            with pytest.raises(GenerationError) as err:
                perturb(dets, NoiseSpec(ratio=0.5, seed=seed), gt)
            assert err.value.frame == 1
            assert "frame 1" in str(err.value)
            assert f"after {FP_MAX_ATTEMPTS} attempts" in str(err.value)
