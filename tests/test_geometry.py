import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbiou import geometry
from cbiou.geometry import BoundingBox, biou, buffer, diou, giou, iou


def pixel_areas(a: BoundingBox, b: BoundingBox, grid: int = 64):
    """Brute-force oracle: rasterize integer boxes and count pixels."""
    mask_a = np.zeros((grid, grid), dtype=bool)
    mask_b = np.zeros((grid, grid), dtype=bool)
    mask_a[int(a.y) : int(a.y + a.h), int(a.x) : int(a.x + a.w)] = True
    mask_b[int(b.y) : int(b.y + b.h), int(b.x) : int(b.x + b.w)] = True
    return float((mask_a & mask_b).sum()), float((mask_a | mask_b).sum())


def random_box(rng, lo=-100.0, hi=100.0, max_side=50.0) -> BoundingBox:
    x = rng.uniform(lo, hi)
    y = rng.uniform(lo, hi)
    w = rng.uniform(0.1, max_side)
    h = rng.uniform(0.1, max_side)
    return BoundingBox(x, y, w, h)


coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
sides = st.floats(min_value=0.01, max_value=500, allow_nan=False)
boxes = st.builds(BoundingBox, coords, coords, sides, sides)


class TestBoxTypes:
    def test_rejects_nonpositive_extents(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 10, -1)
        # positive, but lost when the corner x + w is rounded
        with pytest.raises(ValueError):
            BoundingBox(1e17, 0, 1, 10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BoundingBox(float("nan"), 0, 1, 1)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, float("inf"), 1)

    def test_rejects_corners_beyond_the_limit(self):
        limit = geometry.MAX_ABS_COORDINATE
        BoundingBox(-limit, -limit, 2 * limit, 2 * limit)
        # at w = h = 1e154 the union overflows and self-IoU read 0
        for args in ((0, 0, 1e154, 1e154), (-2 * limit, 0, limit, 1), (0, limit, 1, limit)):
            with pytest.raises(ValueError, match="within"):
                BoundingBox(*args)

    @given(
        st.floats(min_value=-1e18, max_value=1e18),
        st.floats(min_value=-1e18, max_value=1e18),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_corner_invariant(self, x, y, w, h):
        # every box that constructs keeps positive extents in corner form
        try:
            box = BoundingBox(x, y, w, h)
        except ValueError:
            return
        x1, y1, x2, y2 = geometry.to_xyxy([box])[0]
        assert x2 > x1 and y2 > y1

    @given(boxes)
    def test_tlwh_to_corners_is_the_exact_formula(self, box):
        row = tuple(geometry.to_xyxy([box])[0])
        assert row == (box.x, box.y, box.x + box.w, box.y + box.h)


class TestBuffer:
    def test_zero_buffer_is_identity(self):
        box = BoundingBox(0, 0, 10, 10)
        assert buffer(box, 0) == box

    def test_hand_evaluated_expansions(self):
        assert buffer(BoundingBox(0, 0, 10, 10), 0.3) == BoundingBox(-3, -3, 16, 16)
        assert buffer(BoundingBox(2, 4, 6, 8), 0.5) == BoundingBox(-1, 0, 12, 16)

    def test_rejects_negative_or_nonfinite_scale(self):
        box = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValueError):
            buffer(box, -0.1)
        with pytest.raises(ValueError):
            buffer(box, float("nan"))

    @given(boxes, st.floats(min_value=0, max_value=3))
    def test_center_and_aspect_preserved(self, box, b):
        out = buffer(box, b)
        cx, cy = box.center
        ox, oy = out.center
        scale = max(1.0, abs(cx), abs(cy))
        assert abs(ox - cx) <= 1e-9 * scale
        assert abs(oy - cy) <= 1e-9 * scale
        assert out.w / out.h == pytest.approx(box.w / box.h, rel=1e-12)

    @given(
        st.builds(
            BoundingBox,
            st.integers(-10_000, 10_000),
            st.integers(-10_000, 10_000),
            st.integers(1, 5_000),
            st.integers(1, 5_000),
        ),
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
    )
    def test_center_exact_for_exact_arithmetic(self, box, b):
        # integer boxes with dyadic scales keep every operation exact
        out = buffer(box, b)
        assert out.center == box.center

    @given(boxes, st.floats(min_value=0, max_value=3))
    def test_area_scales_quadratically(self, box, b):
        out = buffer(box, b)
        assert out.area == pytest.approx(box.area * (1 + 2 * b) ** 2, rel=1e-9)


class TestSimilarityFixtures:
    def test_iou(self):
        a = BoundingBox(0, 0, 10, 10)
        assert iou(a, a) == 1.0
        assert iou(a, BoundingBox(20, 20, 5, 5)) == 0.0
        assert iou(a, BoundingBox(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)

    def test_biou(self):
        a = BoundingBox(0, 0, 10, 10)
        assert biou(a, a, 0.7) == 1.0
        b = BoundingBox(3, 4, 2, 9)
        assert biou(a, b, 0.0) == iou(a, b)
        assert biou(a, BoundingBox(12, 0, 10, 10), 0.3) == pytest.approx(1 / 7, abs=1e-12)

    def test_giou(self):
        a = BoundingBox(0, 0, 10, 10)
        assert giou(a, a) == 1.0
        assert giou(a, BoundingBox(20, 0, 10, 10)) == pytest.approx(-1 / 3, abs=1e-12)
        # hull equals union, so GIoU collapses to IoU
        assert giou(a, BoundingBox(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)

    def test_diou(self):
        a = BoundingBox(0, 0, 10, 10)
        assert diou(a, a) == 1.0
        assert diou(a, BoundingBox(10, 0, 10, 10)) == pytest.approx(-0.2, abs=1e-12)
        assert diou(BoundingBox(0, 0, 20, 20), BoundingBox(5, 5, 10, 10)) == pytest.approx(
            0.25, abs=1e-12
        )


class TestProperties:
    def test_symmetry_and_identity_random_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(10_000):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == iou(b, a)
            assert giou(a, b) == giou(b, a)
            assert diou(a, b) == diou(b, a)
            assert biou(a, b, 0.4) == biou(b, a, 0.4)
        a = random_box(rng)
        for f in (iou, giou, diou):
            assert f(a, a) == 1.0
        assert biou(a, a, 1.3) == 1.0

    def test_zero_buffer_matches_iou_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            a, b = random_box(rng), random_box(rng)
            assert abs(biou(a, b, 0.0) - iou(a, b)) <= 1e-12

    @given(boxes, boxes, st.floats(min_value=-500, max_value=500), st.floats(min_value=-500, max_value=500))
    def test_translation_invariance(self, a, b, dx, dy):
        a2 = BoundingBox(a.x + dx, a.y + dy, a.w, a.h)
        b2 = BoundingBox(b.x + dx, b.y + dy, b.w, b.h)
        assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-9)
        assert giou(a2, b2) == pytest.approx(giou(a, b), abs=1e-9)
        assert diou(a2, b2) == pytest.approx(diou(a, b), abs=1e-9)
        assert biou(a2, b2, 0.3) == pytest.approx(biou(a, b, 0.3), abs=1e-9)

    @given(boxes, boxes, st.floats(min_value=0.01, max_value=100))
    def test_biou_scale_invariance(self, a, b, s):
        a2 = BoundingBox(a.x * s, a.y * s, a.w * s, a.h * s)
        b2 = BoundingBox(b.x * s, b.y * s, b.w * s, b.h * s)
        assert biou(a2, b2, 0.35) == pytest.approx(biou(a, b, 0.35), abs=1e-9)

    @given(boxes, boxes)
    def test_ranges_and_giou_bound(self, a, b):
        v_iou = iou(a, b)
        v_biou = biou(a, b, 0.5)
        v_giou = giou(a, b)
        v_diou = diou(a, b)
        assert 0.0 <= v_iou <= 1.0
        assert 0.0 <= v_biou <= 1.0
        assert -1.0 < v_giou <= 1.0
        assert -1.0 < v_diou <= 1.0
        assert v_giou <= v_iou + 1e-15

    def test_pixel_counting_oracle_exact(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            ax, ay = rng.integers(0, 50, size=2)
            aw, ah = rng.integers(1, 64 - max(ax, ay), size=2)
            bx, by = rng.integers(0, 50, size=2)
            bw, bh = rng.integers(1, 64 - max(bx, by), size=2)
            a = BoundingBox(float(ax), float(ay), float(aw), float(ah))
            b = BoundingBox(float(bx), float(by), float(bw), float(bh))
            inter, union = geometry._inter_union(a, b)
            oracle_inter, oracle_union = pixel_areas(a, b)
            assert inter == oracle_inter
            assert union == oracle_union


class TestMatrixForms:
    def test_agrees_with_scalar(self):
        rng = np.random.default_rng(11)
        a_boxes = [random_box(rng) for _ in range(17)]
        b_boxes = [random_box(rng) for _ in range(13)]
        a = geometry.to_xyxy(a_boxes)
        b = geometry.to_xyxy(b_boxes)
        for name, matrix, scalar in [
            ("iou", geometry.iou_matrix(a, b), iou),
            ("giou", geometry.giou_matrix(a, b), giou),
            ("diou", geometry.diou_matrix(a, b), diou),
        ]:
            for i, box_a in enumerate(a_boxes):
                for j, box_b in enumerate(b_boxes):
                    assert matrix[i, j] == pytest.approx(scalar(box_a, box_b), abs=1e-12), name
        bm = geometry.biou_matrix(a, b, 0.3)
        for i, box_a in enumerate(a_boxes):
            for j, box_b in enumerate(b_boxes):
                assert bm[i, j] == pytest.approx(biou(box_a, box_b, 0.3), abs=1e-12)

    def test_empty_inputs(self):
        empty = geometry.to_xyxy([])
        some = geometry.to_xyxy([BoundingBox(0, 0, 1, 1)])
        assert geometry.iou_matrix(empty, some).shape == (0, 1)
        assert geometry.biou_matrix(some, empty, 0.3).shape == (1, 0)

    @pytest.mark.parametrize("buffer_scale", [0.0, 0.3, 0.4, 1000.0])
    @pytest.mark.parametrize("kind", geometry.SIMILARITY_KINDS)
    def test_every_kind_is_finite_at_the_coordinate_limit(self, kind, buffer_scale):
        limit = geometry.MAX_ABS_COORDINATE
        boxes = geometry.to_xyxy(
            [
                BoundingBox(-limit, -limit, 2 * limit, 2 * limit),
                BoundingBox(limit / 2, limit / 2, limit / 2, limit / 2),
                BoundingBox(-limit, limit / 2, limit / 4, limit / 2),
                BoundingBox(0, 0, 1, 1),
            ]
        )
        with np.errstate(all="raise"):
            sim = geometry.similarity_matrix(kind, boxes, boxes, buffer_scale)
        assert np.isfinite(sim).all()
        assert (np.diag(sim) == 1.0).all()

    def test_similarity_matrix_dispatch(self):
        a = geometry.to_xyxy([BoundingBox(0, 0, 10, 10)])
        b = geometry.to_xyxy([BoundingBox(12, 0, 10, 10)])
        assert geometry.similarity_matrix("iou", a, b)[0, 0] == 0.0
        assert geometry.similarity_matrix("biou", a, b, 0.3)[0, 0] == pytest.approx(1 / 7)
        with pytest.raises(ValueError):
            geometry.similarity_matrix("ciou", a, b)
