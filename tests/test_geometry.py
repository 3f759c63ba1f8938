from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbiou import geometry
from cbiou.geometry import BoundingBox, buffer_xyxy, iou


def corners(*boxes: BoundingBox) -> np.ndarray:
    return geometry.to_xyxy(boxes)


def pair(kind: str, a: BoundingBox, b: BoundingBox, scale: float = 0.0) -> float:
    """One similarity value, from the matrix form of ``kind``."""
    return float(geometry.similarity_matrix(kind, corners(a), corners(b), scale)[0, 0])


def raster(rows, offset: int, size: int) -> np.ndarray:
    """Boolean mask of the union of integer corner-form boxes."""
    mask = np.zeros((size, size), dtype=bool)
    for x1, y1, x2, y2 in rows:
        assert 0 <= min(x1, y1) + offset and max(x2, y2) + offset <= size
        mask[int(y1) + offset : int(y2) + offset, int(x1) + offset : int(x2) + offset] = True
    return mask


def pixel_counts(a, b, offset: int = 0, size: int = 64):
    """Brute-force oracle for two integer corner-form boxes: pixel counts of
    their intersection, union and enclosing rectangle, and the rectangle's
    width and height in pixels."""
    mask_a = raster([a], offset, size)
    mask_b = raster([b], offset, size)
    hull = (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))
    mask_hull = raster([hull], offset, size)
    return (
        int((mask_a & mask_b).sum()),
        int((mask_a | mask_b).sum()),
        int(mask_hull.sum()),
        int(mask_hull.any(axis=0).sum()),
        int(mask_hull.any(axis=1).sum()),
    )


def integer_pairs():
    """500 pairs of integer boxes inside a 64-pixel grid."""
    rng = np.random.default_rng(99)
    for _ in range(500):
        ax, ay = rng.integers(0, 50, size=2)
        aw, ah = rng.integers(1, 64 - max(ax, ay), size=2)
        bx, by = rng.integers(0, 50, size=2)
        bw, bh = rng.integers(1, 64 - max(bx, by), size=2)
        a = BoundingBox(float(ax), float(ay), float(aw), float(ah))
        b = BoundingBox(float(bx), float(by), float(bw), float(bh))
        yield a, b


def random_box(rng, lo=-100.0, hi=100.0, max_side=50.0) -> BoundingBox:
    x = rng.uniform(lo, hi)
    y = rng.uniform(lo, hi)
    w = rng.uniform(0.1, max_side)
    h = rng.uniform(0.1, max_side)
    return BoundingBox(x, y, w, h)


def random_pairs(seed: int, count: int = 10_000) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random pairs as two corner-form arrays of matching rows."""
    rng = np.random.default_rng(seed)
    pairs = [(random_box(rng), random_box(rng)) for _ in range(count)]
    return geometry.to_xyxy(a for a, _ in pairs), geometry.to_xyxy(b for _, b in pairs)


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
        box = corners(BoundingBox(0, 0, 10, 10), BoundingBox(-3.5, 2.25, 0.1, 7))
        assert np.array_equal(buffer_xyxy(box, 0), box)

    def test_hand_evaluated_expansions(self):
        out = buffer_xyxy(corners(BoundingBox(0, 0, 10, 10)), 0.3)
        assert out.tolist() == [[-3, -3, 13, 13]]
        out = buffer_xyxy(corners(BoundingBox(2, 4, 6, 8)), 0.5)
        assert out.tolist() == [[-1, 0, 11, 16]]

    def test_rejects_negative_or_nonfinite_scale(self):
        box = corners(BoundingBox(0, 0, 10, 10))
        with pytest.raises(ValueError):
            buffer_xyxy(box, -0.1)
        with pytest.raises(ValueError):
            buffer_xyxy(box, float("nan"))

    @given(boxes, st.floats(min_value=0, max_value=3))
    def test_center_and_aspect_preserved(self, box, b):
        (x1, y1, x2, y2), = corners(box)
        (o1, p1, o2, p2), = buffer_xyxy(corners(box), b)
        scale = max(1.0, abs(x1), abs(y1), abs(x2), abs(y2)) * (1 + 2 * b)
        assert abs((o1 + o2) / 2 - (x1 + x2) / 2) <= 1e-9 * scale
        assert abs((p1 + p2) / 2 - (y1 + y2) / 2) <= 1e-9 * scale
        # both extents grow by the same factor, so the aspect ratio is kept
        assert o2 - o1 == pytest.approx((1 + 2 * b) * (x2 - x1), rel=1e-12, abs=1e-12 * scale)
        assert p2 - p1 == pytest.approx((1 + 2 * b) * (y2 - y1), rel=1e-12, abs=1e-12 * scale)

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
        (x1, y1, x2, y2), = corners(box)
        (o1, p1, o2, p2), = buffer_xyxy(corners(box), b)
        assert (o1 + o2) / 2 == (x1 + x2) / 2
        assert (p1 + p2) / 2 == (y1 + y2) / 2

    @given(boxes, st.floats(min_value=0, max_value=3))
    def test_area_scales_quadratically(self, box, b):
        (x1, y1, x2, y2), = corners(box)
        (o1, p1, o2, p2), = buffer_xyxy(corners(box), b)
        area = (x2 - x1) * (y2 - y1)
        assert (o2 - o1) * (p2 - p1) == pytest.approx(area * (1 + 2 * b) ** 2, rel=1e-9)


class TestSimilarityFixtures:
    def test_iou(self):
        a = BoundingBox(0, 0, 10, 10)
        assert iou(a, a) == 1.0
        assert iou(a, BoundingBox(20, 20, 5, 5)) == 0.0
        assert iou(a, BoundingBox(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)
        assert pair("iou", a, a) == 1.0
        assert pair("iou", a, BoundingBox(20, 20, 5, 5)) == 0.0
        assert pair("iou", a, BoundingBox(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)

    def test_biou(self):
        a = BoundingBox(0, 0, 10, 10)
        assert pair("biou", a, a, 0.7) == 1.0
        b = BoundingBox(3, 4, 2, 9)
        assert pair("biou", a, b, 0.0) == iou(a, b)
        assert pair("biou", a, BoundingBox(12, 0, 10, 10), 0.3) == pytest.approx(1 / 7, abs=1e-12)

    def test_giou(self):
        a = BoundingBox(0, 0, 10, 10)
        assert pair("giou", a, a) == 1.0
        assert pair("giou", a, BoundingBox(20, 0, 10, 10)) == pytest.approx(-1 / 3, abs=1e-12)
        # hull equals union, so GIoU collapses to IoU
        assert pair("giou", a, BoundingBox(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)

    def test_diou(self):
        a = BoundingBox(0, 0, 10, 10)
        assert pair("diou", a, a) == 1.0
        assert pair("diou", a, BoundingBox(10, 0, 10, 10)) == pytest.approx(-0.2, abs=1e-12)
        assert pair("diou", BoundingBox(0, 0, 20, 20), BoundingBox(5, 5, 10, 10)) == pytest.approx(
            0.25, abs=1e-12
        )


class TestProperties:
    def test_symmetry_and_identity_random_pairs(self):
        a, b = random_pairs(123)
        # 100-row blocks: every pair is on a block's diagonal, and the rest of
        # the block adds cross pairs
        for start in range(0, len(a), 100):
            block_a, block_b = a[start : start + 100], b[start : start + 100]
            for kind in geometry.SIMILARITY_KINDS:
                forward = geometry.similarity_matrix(kind, block_a, block_b, 0.4)
                backward = geometry.similarity_matrix(kind, block_b, block_a, 0.4)
                assert np.array_equal(forward, backward.T), kind
                for block in (block_a, block_b):
                    self_sim = geometry.similarity_matrix(kind, block, block, 1.3)
                    assert (np.diag(self_sim) == 1.0).all(), kind

    def test_zero_buffer_matches_iou_random_pairs(self):
        a, b = random_pairs(7)
        for start in range(0, len(a), 100):
            block_a, block_b = a[start : start + 100], b[start : start + 100]
            diff = geometry.biou_matrix(block_a, block_b, 0.0) - geometry.iou_matrix(block_a, block_b)
            assert np.abs(diff).max() <= 1e-12

    @given(boxes, boxes, st.floats(min_value=-500, max_value=500), st.floats(min_value=-500, max_value=500))
    def test_translation_invariance(self, a, b, dx, dy):
        a2 = BoundingBox(a.x + dx, a.y + dy, a.w, a.h)
        b2 = BoundingBox(b.x + dx, b.y + dy, b.w, b.h)
        for kind in geometry.SIMILARITY_KINDS:
            assert pair(kind, a2, b2, 0.3) == pytest.approx(pair(kind, a, b, 0.3), abs=1e-9), kind

    @given(boxes, boxes, st.floats(min_value=0.01, max_value=100))
    def test_biou_scale_invariance(self, a, b, s):
        a2 = BoundingBox(a.x * s, a.y * s, a.w * s, a.h * s)
        b2 = BoundingBox(b.x * s, b.y * s, b.w * s, b.h * s)
        assert pair("biou", a2, b2, 0.35) == pytest.approx(pair("biou", a, b, 0.35), abs=1e-9)

    @given(boxes, boxes)
    def test_ranges_and_giou_bound(self, a, b):
        v_iou = pair("iou", a, b)
        v_biou = pair("biou", a, b, 0.5)
        v_giou = pair("giou", a, b)
        v_diou = pair("diou", a, b)
        assert 0.0 <= v_iou <= 1.0
        assert 0.0 <= v_biou <= 1.0
        assert -1.0 < v_giou <= 1.0
        assert -1.0 < v_diou <= 1.0
        assert v_giou <= v_iou + 1e-15

    def test_pixel_counting_oracle_exact(self):
        for a, b in integer_pairs():
            inter, union = geometry._inter_union(a, b)
            oracle_inter, oracle_union, *_ = pixel_counts(corners(a)[0], corners(b)[0])
            assert inter == oracle_inter
            assert union == oracle_union


class TestMatrixForms:
    def test_agrees_with_scalar(self):
        rng = np.random.default_rng(11)
        a_boxes = [random_box(rng) for _ in range(17)]
        b_boxes = [random_box(rng) for _ in range(13)]
        matrix = geometry.iou_matrix(geometry.to_xyxy(a_boxes), geometry.to_xyxy(b_boxes))
        for i, box_a in enumerate(a_boxes):
            for j, box_b in enumerate(b_boxes):
                assert matrix[i, j] == pytest.approx(iou(box_a, box_b), abs=1e-12)

        # The other kinds against pixel counts. Sides are doubled to be even,
        # so the boxes buffered at scale 0.5 and every centre stay integer.
        pairs = [
            (BoundingBox(2 * a.x, 2 * a.y, 2 * a.w, 2 * a.h), BoundingBox(2 * b.x, 2 * b.y, 2 * b.w, 2 * b.h))
            for a, b in integer_pairs()
        ]
        a = geometry.to_xyxy(box for box, _ in pairs)
        b = geometry.to_xyxy(box for _, box in pairs)
        got = {
            kind: np.diag(geometry.similarity_matrix(kind, a, b, 0.5))
            for kind in geometry.SIMILARITY_KINDS
        }
        buffered_a, buffered_b = buffer_xyxy(a, 0.5), buffer_xyxy(b, 0.5)
        assert (buffered_a == np.round(buffered_a)).all() and (buffered_b == np.round(buffered_b)).all()
        for k, (row_a, row_b) in enumerate(zip(a.astype(int).tolist(), b.astype(int).tolist())):
            inter, union, hull, hull_w, hull_h = pixel_counts(row_a, row_b, size=128)
            expected_iou = Fraction(inter, union)
            # twice each centre is an exact integer
            dcx2 = (row_a[0] + row_a[2]) - (row_b[0] + row_b[2])
            dcy2 = (row_a[1] + row_a[3]) - (row_b[1] + row_b[3])
            expected = {
                "iou": expected_iou,
                "giou": expected_iou - Fraction(hull - union, hull),
                "diou": expected_iou - Fraction(dcx2**2 + dcy2**2, 4 * (hull_w**2 + hull_h**2)),
            }
            # a buffered corner lies up to half a 128-pixel side outside the grid
            inter, union, *_ = pixel_counts(
                buffered_a[k].astype(int).tolist(), buffered_b[k].astype(int).tolist(), offset=64, size=256
            )
            expected["biou"] = Fraction(inter, union)
            for kind, value in expected.items():
                assert got[kind][k] == pytest.approx(float(value), abs=1e-12), (kind, k)

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
