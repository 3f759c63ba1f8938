import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cbiou import geometry, metrics
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


# Box fields at and around the edges of BoundingBox's check.
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [
            0.0,
            1.0,
            16.0,
            2.0**57 + 32,
            geometry.MAX_ABS_COORDINATE,
            -geometry.MAX_ABS_COORDINATE,
            geometry.MAX_ABS_COORDINATE / 2,
            2 * geometry.MAX_ABS_COORDINATE,
            float("nan"),
            float("inf"),
        ]
    ),
)


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

    def test_stores_python_floats_and_names_the_first_nonfinite_field(self):
        box = BoundingBox(np.float64(1.5), 2, np.int64(3), 4.0)
        assert [type(v) for v in (box.x, box.y, box.w, box.h)] == [float] * 4
        assert (box.x, box.y, box.w, box.h) == (1.5, 2.0, 3.0, 4.0)
        # all-float boxes skip the per-field conversion; their errors read the same
        with pytest.raises(ValueError, match="^w must be finite, got inf$"):
            BoundingBox(0.0, 0.0, float("inf"), 1.0)
        with pytest.raises(ValueError, match="^x must be finite, got nan$"):
            BoundingBox(float("nan"), 0.0, float("inf"), 1.0)

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

    @given(st.lists(st.tuples(*[EDGE_FLOATS] * 4), min_size=1, max_size=8))
    @example([(0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0, -1.0), (2.0**57, 0.0, 16.0, 1.0), (2.0**57 + 32, 0.0, 16.0, 1.0)])
    @example([(-1e100, 1e100 - 1.0, 2e100, 1.0), (1e100 - 1.0, 0.0, 2.0, 1.0), (-2e100, 0.0, 1e100, 1.0)])
    def test_valid_tlwh_is_the_box_check(self, rows):
        expected = []
        for row in rows:
            try:
                BoundingBox(*row)
            except ValueError:
                expected.append(False)
            else:
                expected.append(True)
        assert geometry.valid_tlwh(np.array(rows)).tolist() == expected

    @pytest.mark.parametrize("shape", [(3, 8), (4,), (2, 4, 1)])
    def test_valid_tlwh_rejects_other_shapes(self, shape):
        # reshape(-1, 4) read a (3, 8) array as 6 rows and gave 6 results
        with pytest.raises(ValueError, match=re.escape(f"(N, 4) array, got shape {shape}")):
            geometry.valid_tlwh(np.ones(shape))

    def test_grouped_rows_give_the_corners_of_to_xyxy(self):
        boxes = [BoundingBox(0.1, 0.2, 0.3, 0.7), BoundingBox(2.0**57 + 32, -5.5, 16.0, 1e-3)]
        _keys, _frames, tlwh, xyxy = geometry.grouped_rows([1], [1, 1], [[b.x, b.y, b.w, b.h] for b in boxes])
        assert xyxy.tobytes() == geometry.to_xyxy(boxes).tobytes()
        assert tlwh.tolist() == [[b.x, b.y, b.w, b.h] for b in boxes]
        for values in (tlwh, xyxy):
            with pytest.raises(ValueError):
                values[0, 0] = 1.0


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
            diff = geometry.similarity_matrix("biou", block_a, block_b, 0.0) - geometry.iou_matrix(block_a, block_b)
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
            a, b = corners(a)[0].tolist(), corners(b)[0].tolist()
            inter, union = geometry._inter_union(a, b)
            oracle_inter, oracle_union, *_ = pixel_counts(a, b)
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

    def test_paired_iou_has_the_bits_of_the_matrix(self):
        rng = np.random.default_rng(12)
        a = geometry.to_xyxy([random_box(rng) for _ in range(9)] + [BoundingBox(0, 0, 1, 1)] * 2)
        b = geometry.to_xyxy([random_box(rng) for _ in range(7)] + [BoundingBox(0, 0, 1, 1)])
        a[0, 2] = np.nan  # a non-finite cell stays non-finite
        rows, cols = (grid.ravel() for grid in np.indices((len(a), len(b))))
        paired = geometry.paired_iou(a[rows], b[cols])
        assert paired.tobytes() == geometry.iou_matrix(a, b).ravel().tobytes()
        assert np.isnan(paired[: len(b)]).all() and paired[-1] == 1.0

    def test_empty_inputs(self):
        empty = geometry.to_xyxy([])
        some = geometry.to_xyxy([BoundingBox(0, 0, 1, 1)])
        assert geometry.iou_matrix(empty, some).shape == (0, 1)
        assert geometry.similarity_matrix("biou", some, empty, 0.3).shape == (1, 0)
        assert geometry.paired_iou(empty, empty).shape == (0,)

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((3, 8), (2, 4)), ((2, 2), (2, 4)), ((4,), (1, 4)), ((1, 4), (0,)), ((2, 1, 4), (2, 4)), ((2, 4), (2, 5))],
    )
    def test_matrix_forms_reject_other_shapes(self, shape_a, shape_b):
        a, b = np.ones(shape_a), np.ones(shape_b)
        for x, y in ((a, b), (b, a)):
            message = re.escape(f"(N, 4) and (M, 4) arrays, got shapes {x.shape} and {y.shape}")
            with pytest.raises(ValueError, match=message):
                geometry.iou_matrix(x, y)
            for kind in geometry.SIMILARITY_KINDS:
                with pytest.raises(ValueError, match=message):
                    geometry.similarity_matrix(kind, x, y, 0.3)

    @pytest.mark.parametrize(
        "shape_a, shape_b", [((3, 4), (2, 4)), ((0, 4), (1, 4)), ((2, 4), (2, 5)), ((4,), (4,)), ((2, 2), (2, 2))]
    )
    def test_paired_iou_rejects_other_shapes(self, shape_a, shape_b):
        message = re.escape(f"two (C, 4) arrays of equal length, got shapes {shape_a} and {shape_b}")
        with pytest.raises(ValueError, match=message):
            geometry.paired_iou(np.ones(shape_a), np.ones(shape_b))

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


# The formulas the fused overlap routine replaced, one numpy operation per
# coordinate, kept as the reference its bits are checked against.
def reference_buffer(boxes, scale):
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    return np.stack((boxes[:, 0] - scale * w, boxes[:, 1] - scale * h, boxes[:, 2] + scale * w, boxes[:, 3] + scale * h), axis=1)


def reference_parts(a, b):
    iw = np.maximum(np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]), 0.0)
    ih = np.maximum(np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]), 0.0)
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter, area_a + area_b - inter


def reference_matrix(kind, a, b, scale):
    if kind == "biou":
        a, b = reference_buffer(a, scale), reference_buffer(b, scale)
    inter, union = reference_parts(a[:, None], b[None, :])
    iou_values = inter / union
    if kind in ("iou", "biou"):
        return iou_values
    hull_w = np.maximum(a[:, None, 2], b[None, :, 2]) - np.minimum(a[:, None, 0], b[None, :, 0])
    hull_h = np.maximum(a[:, None, 3], b[None, :, 3]) - np.minimum(a[:, None, 1], b[None, :, 1])
    if kind == "giou":
        hull = hull_w * hull_h
        return iou_values - (hull - union) / hull
    dcx = ((a[:, 0] + a[:, 2]) / 2.0)[:, None] - ((b[:, 0] + b[:, 2]) / 2.0)[None, :]
    dcy = ((a[:, 1] + a[:, 3]) / 2.0)[:, None] - ((b[:, 1] + b[:, 3]) / 2.0)[None, :]
    return iou_values - (dcx * dcx + dcy * dcy) / (hull_w * hull_w + hull_h * hull_h)


def random_corners(rng, count: int, magnitude: float) -> np.ndarray:
    """Valid corner-form boxes with corners up to ``magnitude``; some repeat
    a box of the same set, so identical pairs occur."""
    low = (rng.random((count, 2)) - 0.5) * magnitude
    side = rng.random((count, 2)) * magnitude * rng.choice([1e-3, 0.1, 0.5]) + magnitude * 1e-6
    boxes = np.concatenate((low, np.minimum(low + side, magnitude / 2)), axis=1)
    boxes = boxes[(boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])]
    if len(boxes) > 1:
        boxes[-1] = boxes[0]
    return boxes


def layouts(boxes: np.ndarray, rng) -> list[np.ndarray]:
    """(N, 4) arrays in C order, then in layouts that are not: Fortran order,
    a ``take`` of shuffled rows, columns 2:6 of an (N, 8) array and the rows
    reversed."""
    wide = np.zeros((len(boxes), 8))
    wide[:, 2:6] = boxes
    return [boxes, np.asfortranarray(boxes), boxes.take(rng.permutation(len(boxes)), 0), wide[:, 2:6], boxes[::-1]]


class TestFusedOverlap:
    """The coordinate-major kernels and the one-addition buffer keep the bits
    of the per-coordinate formulas on (N, 4) inputs of any size and memory
    layout; pytest's warnings-as-errors stays on, so an overflow or invalid
    value at the limits fails the test."""

    SCALES = [0.0, 1e-3, 0.3, 0.4, 1.7, 1e3, 1e20, geometry.MAX_BUFFER_SCALE]
    MAGNITUDES = [1.0, 100.0, 1e4, 1e90, 2 * geometry.MAX_ABS_COORDINATE]

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_matrices_have_the_reference_bits(self, magnitude):
        rng = np.random.default_rng(int(np.log10(magnitude)) + 17)
        for _ in range(60):
            a = random_corners(rng, int(rng.integers(1, 14)), magnitude)
            b = random_corners(rng, int(rng.integers(1, 9)), magnitude)
            b[: min(2, len(a), len(b))] = a[: min(2, len(a), len(b))]
            for scale in self.SCALES:
                assert buffer_xyxy(a, scale).tobytes() == reference_buffer(a, scale).tobytes()
                for kind in geometry.SIMILARITY_KINDS:
                    got = geometry.similarity_matrix(kind, a, b, scale)
                    assert got.tobytes() == reference_matrix(kind, a, b, scale).tobytes(), (kind, scale)
            rows, cols = (grid.ravel() for grid in np.indices((len(a), len(b))))
            inter, union = reference_parts(a[rows], b[cols])
            assert geometry.paired_iou(a[rows], b[cols]).tobytes() == (inter / union).tobytes()

    def test_limit_boxes(self):
        limit = geometry.MAX_ABS_COORDINATE
        boxes = np.array([[-limit, -limit, limit, limit], [limit / 2, -limit, limit, -limit / 2], [0.0, 0.0, 1.0, 1.0]])
        for scale in self.SCALES:
            for kind in geometry.SIMILARITY_KINDS:
                got = geometry.similarity_matrix(kind, boxes, boxes[::-1], scale)
                assert got.tobytes() == reference_matrix(kind, boxes, boxes[::-1], scale).tobytes()
                assert np.isfinite(got).all()

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_large_and_strided_inputs_have_the_reference_bits(self, magnitude):
        rng = np.random.default_rng(int(np.log10(magnitude)) + 41)
        a, b = random_corners(rng, 40, magnitude), random_corners(rng, 33, magnitude)
        b[:3] = a[:3]
        assert (len(a), len(b)) == (40, 33)
        for view_a, view_b in zip(layouts(a, rng), layouts(b, rng)):
            same_a, same_b = np.array(view_a), np.array(view_b)  # C-order copies
            inter, union = reference_parts(same_a[:, None], same_b[None, :])
            assert geometry.iou_matrix(view_a, view_b).tobytes() == (inter / union).tobytes()
            for scale in self.SCALES:
                assert buffer_xyxy(view_a, scale).tobytes() == reference_buffer(same_a, scale).tobytes()
                for kind in geometry.SIMILARITY_KINDS:
                    got = geometry.similarity_matrix(kind, view_a, view_b, scale)
                    assert got.tobytes() == reference_matrix(kind, same_a, same_b, scale).tobytes(), (kind, scale)

    def test_paired_iou_over_more_than_a_chunk(self):
        rng = np.random.default_rng(43)
        a, b = random_corners(rng, 80, 100.0), random_corners(rng, 60, 100.0)
        rows, cols = (grid.ravel() for grid in np.indices((len(a), len(b))))
        assert len(rows) > metrics._CHUNK_CELLS
        for view_a, view_b in zip(layouts(a[rows], rng), layouts(b[cols], rng)):
            inter, union = reference_parts(np.array(view_a), np.array(view_b))
            assert geometry.paired_iou(view_a, view_b).tobytes() == (inter / union).tobytes()
