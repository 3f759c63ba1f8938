import copy
import itertools
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbiou import assignment, geometry, metrics
from cbiou.geometry import BoundingBox, BoxTable, iou
from cbiou.metrics import (
    ALPHAS,
    MetricsReport,
    clear_mota,
    evaluate,
    evaluate_many,
    hota,
    idf1,
    pool_sequences,
)
from labels import labels


def box(x, y=0.0, w=10.0, h=10.0):
    return BoundingBox(x, y, w, h)


ROW = [0.0, 0.0, 10.0, 10.0]  # one box as a tlwh row


def single_track_gt(frames=4):
    return labels({f: [(1, box(0))] for f in range(1, frames + 1)})


def id_switch_pred():
    """Boxes exactly match GT; predicted identity flips at frame 3."""
    return labels(
        {
            1: [(10, box(0))],
            2: [(10, box(0))],
            3: [(20, box(0))],
            4: [(20, box(0))],
        }
    )


def brute_force_idf1(gt, pred, threshold=0.5):
    """Exhaustive search over all injective identity mappings."""
    gt_ids = sorted(set(gt.ids.tolist()))
    pred_ids = sorted(set(pred.ids.tolist()))
    if not gt_ids and not pred_ids:
        return 1.0
    if not gt_ids or not pred_ids:
        return 0.0
    overlap = {}
    for frame in set(gt.frames) | set(pred.frames):
        for gid, gbox in gt.frames.get(frame, ()):
            for pid, pbox in pred.frames.get(frame, ()):
                if iou(gbox, pbox) >= threshold:
                    overlap[(gid, pid)] = overlap.get((gid, pid), 0) + 1
    k = min(len(gt_ids), len(pred_ids))
    best = 0
    for chosen_gt in itertools.permutations(gt_ids, k):
        for chosen_pred in itertools.permutations(pred_ids, k):
            total = sum(overlap.get((g, p), 0) for g, p in zip(chosen_gt, chosen_pred))
            best = max(best, total)
    idtp = best
    idfn = gt.box_count() - idtp
    idfp = pred.box_count() - idtp
    denom = 2 * idtp + idfp + idfn
    return 2 * idtp / denom if denom else 1.0


def random_scene(rng, max_ids=3, max_frames=5):
    n_ids = int(rng.integers(1, max_ids + 1))
    n_frames = int(rng.integers(1, max_frames + 1))
    frames = {}
    for f in range(1, n_frames + 1):
        rows = []
        for identity in range(1, n_ids + 1):
            if rng.random() < 0.8:
                rows.append((identity, box(float(rng.integers(0, 5)) * 12.0, float(rng.integers(0, 3)) * 12.0)))
        frames[f] = rows
    return labels(frames)


class TestSequenceAnnotations:
    """A sequence's labels: a ``BoxTable`` of (identity, box) rows."""

    def test_counts_and_identities(self):
        ann = labels({1: [(1, box(0)), (2, box(30))], 2: [(1, box(5))]})
        assert ann.box_count() == 3
        assert set(ann.ids.tolist()) == {1, 2}

    def test_arrays_are_stored_and_frames_is_a_read_only_view(self):
        ann = labels({2: [(4, box(30)), (3, box(0))], 1: []})
        assert ann.frame_keys.tolist() == [1, 2]
        assert ann.row_frames.tolist() == [2, 2]
        assert ann.ids.tolist() == [4, 3]
        assert ann.xyxy.tolist() == [[30, 0, 40, 10], [0, 0, 10, 10]]
        with pytest.raises(ValueError):
            ann.ids[0] = 5
        assert dict(ann.frames) == {1: (), 2: ((4, box(30)), (3, box(0)))}
        assert ann.frames is ann.frames
        with pytest.raises(TypeError):
            ann.frames[3] = ()

    def test_pickles_and_copies_after_frames_is_read(self):
        # A process pool pickles the labels; the cached view, a mappingproxy,
        # must stay behind, and the rebuilt arrays stay read-only.
        ann = labels({2: [(4, box(30)), (3, box(0))], 1: []})
        view = dict(ann.frames)
        for copied in (pickle.loads(pickle.dumps(ann)), copy.deepcopy(ann)):
            assert copied == ann
            assert dict(copied.frames) == view
            assert copied.xyxy.tolist() == ann.xyxy.tolist()
            with pytest.raises(ValueError):
                copied.ids[0] = 5

    def test_equal_tables_agree_on_every_row_column(self):
        ann = labels({1: [(1, box(0))]})
        assert ann == BoxTable([1], [1], [1], [ROW], [1.0])
        assert ann != BoxTable([1], [1], [1], [ROW], [0.5])
        assert ann != BoxTable([1], [1], [2], [ROW], [1.0])
        assert ann != BoxTable([1, 2], [1], [1], [ROW], [1.0])

    @pytest.mark.parametrize("key", [1.5, math.nan, math.inf])
    def test_non_integral_frame_rejected(self, key):
        # an int64 cast made 1.5 and 1.7 both frame 1
        with pytest.raises(ValueError, match=f"frame {key!r} is not an integer"):
            BoxTable([key, 1.7], [key, 1.7], [1, 2], [ROW, ROW], [1.0, 1.0])

    @pytest.mark.parametrize("identity", [1.5, math.nan, math.inf])
    def test_non_integral_identity_rejected(self, identity):
        # an int64 cast stored 1.5 as id 1
        with pytest.raises(ValueError, match=f"identity {identity!r} is not an integer"):
            BoxTable([1], [1, 1], [identity, 1.7], [ROW, ROW], [1.0, 1.0])

    def test_integral_float_identity_is_its_integer(self):
        assert BoxTable([1], [1], [2.0], [ROW], [1.0]).ids.tolist() == [2]

    def test_integral_float_frame_is_its_integer(self):
        assert BoxTable([2.0], [2.0], [1], [ROW], [1.0]).frame_keys.tolist() == [2]


def label_table(frame_keys, row_frames, tlwh):
    """Labels fill the confidence column."""
    return BoxTable(frame_keys, row_frames, list(range(len(row_frames))), tlwh, [1.0] * len(row_frames))


def detection_table(frame_keys, row_frames, tlwh):
    """Raw detections fill the id column."""
    return BoxTable(frame_keys, row_frames, [-1] * len(row_frames), tlwh, [0.5] * len(row_frames))


@pytest.mark.parametrize("table", [label_table, detection_table])
class TestGroupedRows:
    """Every ``BoxTable`` takes the same grouped-rows layout, checked by its
    constructor, whichever column the caller fills."""

    def test_rows_out_of_frame_order_rejected(self, table):
        # taken as they were, the frame-2 row was read as frame 1's
        with pytest.raises(ValueError, match="rows must be grouped by ascending frame"):
            table([1, 2], [2, 1], [ROW, ROW])

    @pytest.mark.parametrize("keys", [[2, 1], [1, 1, 2]], ids=["descending", "repeated"])
    def test_frame_keys_must_ascend_strictly(self, table, keys):
        with pytest.raises(ValueError, match="frame_keys must be strictly ascending"):
            table(keys, [1, 2], [ROW, ROW])

    @pytest.mark.parametrize(
        "row_frames, tlwh",
        [([1, 2], [ROW]), ([1], [ROW, ROW]), ([1, 2], [0.0] * 8), ([[1, 2]], [ROW, ROW])],
        ids=["fewer_boxes", "more_boxes", "flat_boxes", "two_dimensional_frames"],
    )
    def test_unequal_lengths_rejected(self, table, row_frames, tlwh):
        with pytest.raises(ValueError, match="rows need one-dimensional frame_keys"):
            table([1, 2], row_frames, tlwh)

    @pytest.mark.parametrize(
        "keys, row_frames",
        [([1, 3], [1, 2]), ([1, 2], [2, 3]), ([2], [1, 2]), ([], [1])],
        ids=["inside", "past_last", "before_first", "no_keys"],
    )
    def test_row_frame_missing_from_frame_keys_rejected(self, table, keys, row_frames):
        missing = sorted(set(row_frames) - set(keys))[0]
        with pytest.raises(ValueError, match=f"row frame {missing} is not one of frame_keys"):
            table(keys, row_frames, [ROW] * len(row_frames))

    @pytest.mark.parametrize(
        "frame", [2**63, -(2**63) - 1, 2.0**63, np.uint64(2**63)], ids=["above", "below", "float", "uint64"]
    )
    def test_frames_past_int64_rejected(self, table, frame):
        with pytest.raises(metrics.LabelOverflowError, match="every frame must fit in 64 bits"):
            table([frame], [frame], [ROW])

    @pytest.mark.parametrize(
        "tlwh, problem",
        [
            ([0, 0, -5, 10], "box extents must be positive"),
            ([0, 0, 0, 10], "box extents must be positive"),
            ([0, 0, 10, math.inf], "h must be finite"),
            ([0, 0, 2e100, 10], "box corners must lie within"),
            ([0, 0, 1e-200, 1e-200], "box area must be positive in corner form"),
        ],
        ids=["negative_width", "zero_width", "infinite_height", "past_limit", "zero_area"],
    )
    def test_first_bad_box_rejected_by_its_row(self, table, tlwh, problem):
        # labels took any box: a negative width was scored (HOTA 0 against a
        # valid box), and a zero width on both sides failed inside evaluate
        with pytest.raises(ValueError, match=f"^row 1: {problem}"):
            table([1], [1, 1, 1], [ROW, tlwh, [0, 0, -1, -1]])

    def test_empty_table_and_frames_without_rows(self, table):
        rows = table([], [], np.zeros((0, 4)))
        assert rows.row_frames.shape == (0,) and rows.xyxy.shape == (0, 4)
        rows = table([1, 4, 9], [4, 4], [ROW, ROW])
        assert rows.frame_keys.tolist() == [1, 4, 9]
        for values in (rows.frame_keys, rows.row_frames, rows.ids, rows.tlwh, rows.confidence, rows.xyxy):
            assert not values.flags.writeable

    def test_frames_below_one_rejected(self, table):
        # labels took frame 0, which no annotation file may hold
        with pytest.raises(ValueError, match="frame 0 is below 1"):
            table([0, 1], [0, 1], [ROW, ROW])


@pytest.mark.parametrize(
    "build",
    [
        lambda: BoxTable([1], [1, 1], [1], [ROW, ROW], [1.0, 1.0]),
        lambda: BoxTable([1], [1, 1], [1, 2], [ROW, ROW], [1.0]),
    ],
    ids=["ids", "confidence"],
)
def test_column_of_another_length_rejected(build):
    with pytest.raises(ValueError, match=r"\(N,\) row_frames, ids and confidence"):
        build()


@pytest.mark.parametrize(
    "build, column, name",
    [
        (lambda keys, frames, ids, tlwh: BoxTable(keys, frames, ids, tlwh, [1.0]), [5], "ids"),
        (lambda keys, frames, conf, tlwh: BoxTable(keys, frames, [-1], tlwh, conf), [0.5], "confidence"),
    ],
    ids=["labels", "detections"],
)
def test_tables_keep_copies_of_their_rows(build, column, name):
    # Arrays of the right dtype were aliased and made read-only: a write
    # through another view of tlwh moved tlwh to [100, 2, 3, 4] and left xyxy.
    keys, frames, column = np.array([1]), np.array([1]), np.array(column)
    tlwh = np.array([[1.0, 2.0, 3.0, 4.0]])
    table = build(keys, frames, column, tlwh)
    for values in (keys, frames, column, tlwh):
        assert values.flags.writeable
    tlwh.reshape(-1)[0] = 100.0
    keys[0] = frames[0] = column[0] = 7
    assert table.tlwh.tolist() == [[1.0, 2.0, 3.0, 4.0]]
    assert table.xyxy.tolist() == [[1.0, 2.0, 4.0, 6.0]]
    assert table.frame_keys.tolist() == table.row_frames.tolist() == [1]
    assert getattr(table, name).tolist() != [7]


@pytest.mark.parametrize("identity", [2**63, -(2**63) - 1, np.uint64(2**63)], ids=["above", "below", "uint64"])
def test_identities_past_int64_rejected(identity):
    with pytest.raises(metrics.LabelOverflowError, match="every identity must fit in 64 bits"):
        BoxTable([1], [1, 1], [1, identity], [ROW, ROW], [1.0, 1.0])


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(8)
    for size in (0, 1, 2, 50):
        values = rng.integers(-5, 5, size)
        assert geometry.sorted_unique(values).tolist() == np.unique(values).tolist()


class TestClearMota:
    def test_perfect(self):
        gt = single_track_gt()
        mota, tp, fn, fp, idsw = clear_mota(metrics._align(gt, gt))
        assert (mota, tp, fn, fp, idsw) == (1.0, 4, 0, 0, 0)

    def test_empty_prediction(self):
        gt = single_track_gt()
        mota, tp, fn, fp, idsw = clear_mota(metrics._align(gt, labels({})))
        assert (mota, tp, fn, fp, idsw) == (0.0, 0, 4, 0, 0)

    def test_spurious_box_per_frame(self):
        gt = labels({f: [(1, box(0))] for f in range(1, 11)})
        pred = labels({f: [(1, box(0)), (99, box(500))] for f in range(1, 11)})
        mota, tp, fn, fp, idsw = clear_mota(metrics._align(gt, pred))
        assert (mota, fp) == (0.0, 10)

    def test_id_switch_fixture(self):
        mota, tp, fn, fp, idsw = clear_mota(metrics._align(single_track_gt(), id_switch_pred()))
        assert mota == 0.75
        assert idsw == 1

    def test_switch_counted_against_last_known_match(self):
        # pred id changes while the gt is missing from view: still one switch
        gt = labels({1: [(1, box(0))], 3: [(1, box(0))]})
        pred = labels({1: [(5, box(0))], 3: [(6, box(0))]})
        *_, idsw = clear_mota(metrics._align(gt, pred))
        assert idsw == 1


class TestIdf1:
    def test_perfect(self):
        gt = single_track_gt()
        assert idf1(metrics._align(gt, gt)) == 1.0

    def test_empty_prediction(self):
        assert idf1(metrics._align(single_track_gt(), labels({}))) == 0.0

    def test_id_switch_fixture(self):
        assert idf1(metrics._align(single_track_gt(), id_switch_pred())) == 0.5

    def test_matches_brute_force_on_small_scenes(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            gt = random_scene(rng)
            pred = random_scene(rng)
            assert idf1(metrics._align(gt, pred)) == pytest.approx(brute_force_idf1(gt, pred), abs=1e-12)


class TestHota:
    def test_alpha_grid(self):
        assert len(ALPHAS) == 19
        assert ALPHAS[0] == 0.05
        assert ALPHAS[-1] == 0.95
        assert ALPHAS[7] == 0.4

    def test_perfect(self):
        gt = single_track_gt()
        score, deta, assa, per_alpha = hota(metrics._align(gt, gt))
        assert (score, deta, assa) == (1.0, 1.0, 1.0)
        assert all(row[1:] == (1.0, 1.0, 1.0) for row in per_alpha)

    def test_id_switch_fixture(self):
        score, deta, assa, per_alpha = hota(metrics._align(single_track_gt(), id_switch_pred()))
        assert deta == 1.0
        for _alpha, hota_a, deta_a, assa_a in per_alpha:
            assert deta_a == 1.0
            assert assa_a == pytest.approx(0.5, abs=1e-12)
            assert hota_a == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_uniform_partial_overlap_gates_by_alpha(self):
        # (0,0,7,1) vs (3,0,7,1): intersection 4, union 10, IoU exactly 0.4
        gt = labels({f: [(1, BoundingBox(0, 0, 7, 1))] for f in range(1, 6)})
        pred = labels({f: [(1, BoundingBox(3, 0, 7, 1))] for f in range(1, 6)})
        assert iou(BoundingBox(0, 0, 7, 1), BoundingBox(3, 0, 7, 1)) == 0.4
        score, _deta, _assa, per_alpha = hota(metrics._align(gt, pred))
        for alpha, hota_a, deta_a, _assa_a in per_alpha:
            if alpha <= 0.4:
                assert deta_a == 1.0 and hota_a == 1.0
            else:
                assert deta_a == 0.0 and hota_a == 0.0
        low = [row[1] for row in per_alpha if row[0] <= 0.4]
        assert min(low) > score > 0.0

    def test_identity_sqrt_relation(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            gt = random_scene(rng)
            pred = random_scene(rng)
            _, _, _, per_alpha = hota(metrics._align(gt, pred))
            for _alpha, hota_a, deta_a, assa_a in per_alpha:
                assert abs(hota_a - math.sqrt(deta_a * assa_a)) <= 1e-12


class TestEvaluate:
    def test_perfect(self):
        gt = single_track_gt()
        report = evaluate(gt, gt)
        assert (report.hota, report.deta, report.assa) == (1.0, 1.0, 1.0)
        assert (report.mota, report.idf1) == (1.0, 1.0)
        assert (report.tp, report.fn, report.fp, report.idsw) == (4, 0, 0, 0)

    def test_empty_prediction(self):
        report = evaluate(single_track_gt(), labels({}))
        assert (report.hota, report.mota, report.idf1) == (0.0, 0.0, 0.0)
        assert report.fn == report.gt_total == 4

    def test_identity_labels_do_not_matter(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            gt = random_scene(rng)
            pred = random_scene(rng)
            relabeled = labels(
                {
                    f: [(pid + 1000, b) for pid, b in rows]
                    for f, rows in pred.frames.items()
                }
            )
            a = evaluate(gt, pred)
            b = evaluate(gt, relabeled)
            assert (a.hota, a.deta, a.assa, a.mota, a.idf1) == (
                b.hota,
                b.deta,
                b.assa,
                b.mota,
                b.idf1,
            )

    def test_adding_pure_false_positive_never_helps(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            gt = random_scene(rng)
            pred = random_scene(rng)
            frame = int(rng.integers(1, 4))
            rows = list(pred.frames.get(frame, ()))
            rows.append((777, box(10_000.0, 10_000.0)))
            worse_frames = dict(pred.frames)
            worse_frames[frame] = rows
            worse = labels(worse_frames)
            before = evaluate(gt, pred)
            after = evaluate(gt, worse)
            assert after.mota <= before.mota
            assert after.idf1 <= before.idf1 + 1e-12
            assert after.hota <= before.hota + 1e-12

    def test_deleting_a_predicted_box_never_raises_fp(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            gt = random_scene(rng)
            pred = random_scene(rng)
            frames_with_rows = [f for f, rows in pred.frames.items() if rows]
            if not frames_with_rows:
                continue
            f = frames_with_rows[0]
            reduced = dict(pred.frames)
            reduced[f] = list(pred.frames[f])[1:]
            before = evaluate(gt, pred)
            after = evaluate(gt, labels(reduced))
            assert after.fp <= before.fp


class TestPooling:
    def test_pooled_counts_add(self):
        gt = single_track_gt()
        pred = id_switch_pred()
        pooled = evaluate_many([(gt, pred), (gt, pred)])
        single = evaluate(gt, pred)
        assert pooled.gt_total == 2 * single.gt_total
        assert pooled.idsw == 2 * single.idsw
        assert pooled.mota == pytest.approx(single.mota)
        assert pooled.idf1 == pytest.approx(single.idf1)
        assert pooled.hota == pytest.approx(single.hota)

    def test_pooling_keeps_sequences_disjoint(self):
        gt_a = single_track_gt()
        pred_a = id_switch_pred()
        gt_b = labels({f: [(1, box(50))] for f in range(1, 3)})
        pred_b = labels({f: [(10, box(50))] for f in range(1, 3)})
        merged_gt, merged_pred = pool_sequences([(gt_a, pred_a), (gt_b, pred_b)])
        assert merged_gt.box_count() == gt_a.box_count() + gt_b.box_count()
        assert len(set(merged_gt.ids.tolist())) == 2
        assert len(set(merged_pred.ids.tolist())) == 3
        assert not (set(merged_gt.frames) - set(range(1, 7)))

    def test_report_is_complete(self):
        report = evaluate(single_track_gt(), id_switch_pred())
        assert isinstance(report, MetricsReport)
        assert len(report.per_alpha) == 19


def reference_tables(gt, pred):
    """Per frame with boxes on both sides: gt ids, pred ids and one IoU
    matrix, in frame order; and each side's rows per id."""
    per_frame = []
    for frame in sorted(set(gt.frames) | set(pred.frames)):
        g_rows = gt.frames.get(frame, ())
        p_rows = pred.frames.get(frame, ())
        if g_rows and p_rows:
            sim = geometry.iou_matrix(
                geometry.to_xyxy([b for _, b in g_rows]), geometry.to_xyxy([b for _, b in p_rows])
            )
            per_frame.append((tuple(g for g, _ in g_rows), tuple(p for p, _ in p_rows), sim))
    return per_frame, Counter(gt.ids.tolist()), Counter(pred.ids.tolist())


def per_alpha_solve_hota(gt, pred):
    """Reference HOTA: one assignment per frame and alpha, on the score
    1 + IoU for pairs passing alpha and 0 otherwise, keeping passing pairs."""
    per_frame, gt_presence, pred_presence = reference_tables(gt, pred)
    gt_total = gt.box_count()
    pred_total = pred.box_count()
    per_alpha = []
    for alpha in ALPHAS:
        pair_counts = Counter()
        for gids, pids, sim in per_frame:
            passing = sim >= alpha
            if not passing.any():
                continue
            score = np.where(passing, 1.0 + sim, 0.0)
            for i, j in assignment.solve(score):
                if passing[i, j]:
                    pair_counts[(gids[i], pids[j])] += 1
        tp = sum(pair_counts.values())
        fn = gt_total - tp
        fp = pred_total - tp
        denom = tp + fn + fp
        if denom == 0:
            deta_a = assa_a = 1.0
        else:
            deta_a = tp / denom
            if tp == 0:
                assa_a = 0.0
            else:
                weighted = 0.0
                for (gid, pid), count in pair_counts.items():
                    weighted += count * (count / (gt_presence[gid] + pred_presence[pid] - count))
                assa_a = weighted / tp
        per_alpha.append((alpha, math.sqrt(deta_a * assa_a), deta_a, assa_a))
    n = len(per_alpha)
    return (
        sum(row[1] for row in per_alpha) / n,
        sum(row[2] for row in per_alpha) / n,
        sum(row[3] for row in per_alpha) / n,
        tuple(per_alpha),
    )


def reference_evaluate(gt, pred):
    """The per-frame evaluation: one IoU matrix per frame with boxes on both
    sides, CLEAR matches from ``gated_match`` at 0.5 with an identity switch
    wherever a gt id's match differs from its last one, IDF1 from every cell
    at 0.5 or more, and HOTA from one ``solve`` per frame and alpha."""
    per_frame, gt_presence, pred_presence = reference_tables(gt, pred)
    gt_total = gt.box_count()
    pred_total = pred.box_count()
    tp = idsw = 0
    last_match = {}
    for gids, pids, sim in per_frame:
        for i, j in assignment.gated_match(sim, 0.5).pairs:
            tp += 1
            if gids[i] in last_match and last_match[gids[i]] != pids[j]:
                idsw += 1
            last_match[gids[i]] = pids[j]
    fn = gt_total - tp
    fp = pred_total - tp
    if gt_total:
        mota = 1.0 - (fn + fp + idsw) / gt_total
    else:
        mota = 1.0 if (fp + idsw) == 0 else float("-inf")

    gt_ids = sorted(gt_presence)
    pred_ids = sorted(pred_presence)
    if not gt_ids and not pred_ids:
        idf1_score = 1.0
    elif not gt_ids or not pred_ids:
        idf1_score = 0.0
    else:
        overlap = np.zeros((len(gt_ids), len(pred_ids)))
        for gids, pids, sim in per_frame:
            for i, j in zip(*np.nonzero(sim >= 0.5)):
                overlap[gt_ids.index(gids[i]), pred_ids.index(pids[j])] += 1.0
        idtp = int(sum(overlap[i, j] for i, j in assignment.solve(overlap)))
        denom = 2 * idtp + (pred_total - idtp) + (gt_total - idtp)
        idf1_score = 2 * idtp / denom if denom else 1.0

    hota_score, deta, assa, per_alpha = per_alpha_solve_hota(gt, pred)
    return MetricsReport(
        hota=hota_score,
        deta=deta,
        assa=assa,
        mota=mota,
        idf1=idf1_score,
        tp=tp,
        fn=fn,
        fp=fp,
        idsw=idsw,
        gt_total=gt_total,
        per_alpha=per_alpha,
    )


def strip(x, w):
    return BoundingBox(x, 0, w, 1)


# Unit-height strips: IoU is interval overlap over interval union, so pairs hit
# alphas exactly (strip(0, 7) vs strip(3, 7) is 0.4, strip(0, 7) vs
# strip(0, 10) is 0.7), equal boxes tie, and several boxes crowd one frame.
STRIPS = [strip(x, w) for x in (0, 2, 3, 5) for w in (5, 7, 10)] + [strip(100, 5)]


def labelings(max_ids, min_id=1, max_rows=4, max_frames=4):
    rows = st.lists(
        st.tuples(st.integers(min_id, max_ids), st.sampled_from(STRIPS)),
        max_size=max_rows,
        unique_by=lambda row: row[0],
    )
    return st.dictionaries(st.integers(1, max_frames), rows, max_size=max_frames).map(labels)


# Crowded frames of up to six boxes, ids down to -2, frames without rows and
# frames with rows on one side only.
CROWDED = labelings(5, min_id=-2, max_rows=6, max_frames=5)


class TestHotaShortcut:
    @settings(max_examples=300)
    @given(labelings(4), labelings(5))
    # duplicated boxes on both sides: exact ties at every alpha
    @example(
        labels({1: [(1, strip(0, 7)), (2, strip(0, 7))]}),
        labels({1: [(1, strip(0, 7)), (2, strip(0, 7))]}),
    )
    # 1x2 and 2x1 frames whose row or column passes 0.4 twice; IoU 0.4 and 0.7
    # equal an alpha exactly
    @example(
        labels({1: [(1, strip(0, 7))], 2: [(1, strip(0, 10)), (2, strip(3, 7))]}),
        labels({1: [(1, strip(0, 10)), (2, strip(3, 7))], 2: [(1, strip(0, 7))]}),
    )
    # matched pairs cross (row 0 with column 1 and row 1 with column 0), and
    # the order in which they reach the pair counts decides how the AssA sum
    # rounds
    @example(
        labels({1: [(1, strip(3, 5)), (2, strip(0, 7))], 2: [(2, strip(5, 10)), (3, strip(0, 7))]}),
        labels({1: [(2, strip(5, 5)), (3, strip(3, 7))], 2: [(1, strip(0, 10)), (2, strip(3, 10))]}),
    )
    def test_equals_per_alpha_solve(self, gt, pred):
        assert hota(metrics._align(gt, pred)) == per_alpha_solve_hota(gt, pred)

    def test_evaluate_builds_one_iou_matrix_per_conflict_frame(self, monkeypatch):
        gt = labels(
            {
                1: [(1, box(0)), (2, box(30))],
                2: [(1, box(2))],
                3: [(1, box(4)), (2, box(8))],
                5: [],
                6: [(1, box(0))],
            }
        )
        pred = labels(
            {1: [(7, box(1))], 3: [(7, box(5)), (8, box(60))], 4: [(7, box(6))], 6: [(7, box(1)), (8, box(2))]}
        )
        calls = Counter()
        for module, name in (
            (geometry, "iou_matrix"),
            (metrics, "clear_mota"),
            (metrics, "idf1"),
            (metrics, "hota"),
        ):
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        evaluate(gt, pred)
        # Frames 1, 3 and 6 have boxes on both sides. In frame 1 each row and
        # column has at most one positive IoU; frame 3's box 5 overlaps gt
        # boxes 4 and 8, and frame 6's gt box 0 overlaps both predictions, so
        # only those two need a matrix. Each metric is called through the
        # module, where a tracer can wrap it.
        assert calls == {"iou_matrix": 2, "clear_mota": 1, "idf1": 1, "hota": 1}

    @pytest.mark.parametrize("shift", [0.0, 1.0, 500.0], ids=["equal", "one_to_one", "disjoint"])
    def test_no_solve_where_passing_pairs_are_one_to_one(self, monkeypatch, shift):
        gt = labels({f: [(1, box(0)), (2, box(100)), (3, box(200))] for f in range(1, 6)})
        pred = labels(
            {f: [(9, box(shift)), (8, box(100 + shift)), (7, box(200 + shift))] for f in range(1, 6)}
        )
        solves = []
        real = assignment.solve
        monkeypatch.setattr(assignment, "solve", lambda m: solves.append(m) or real(m))
        hota(metrics._align(gt, pred))
        assert solves == []

    def test_solves_only_at_alphas_up_to_the_conflict_level(self, monkeypatch):
        # Frame 1: gt [0, 10] overlaps predictions [0, 10] at IoU 1 and
        # [7, 17] at 3/17, so its level lies strictly between alphas 0.15 and
        # 0.2, and the IoU-1 pair reaches above it. Frame 2 has no conflict.
        gt = labels({1: [(1, strip(0, 10))], 2: [(1, strip(0, 10))]})
        pred = labels({1: [(5, strip(0, 10)), (6, strip(7, 10))], 2: [(5, strip(1, 10))]})
        table = metrics._align(gt, pred)
        (conflict,) = table.conflicts
        assert ALPHAS[2] < conflict.level == 3 / 17 < ALPHAS[3]
        solves = []
        real = assignment.solve
        monkeypatch.setattr(assignment, "solve", lambda m: solves.append(m) or real(m))
        result = hota(table)
        # one solve each at alphas 0.05, 0.1 and 0.15, and none above
        assert len(solves) == 3
        assert [(m > 0).sum() for m in solves] == [2, 2, 2]
        assert result == per_alpha_solve_hota(gt, pred)


class TestArrayTable:
    @settings(max_examples=400)
    @given(CROWDED, CROWDED)
    # two equal boxes on each side: exact ties in a conflict frame
    @example(
        labels({1: [(1, strip(0, 7)), (2, strip(0, 7))]}),
        labels({1: [(-1, strip(0, 7)), (2, strip(0, 7))]}),
    )
    # a conflict frame between free ones, and frames on one side only
    @example(
        labels({1: [(1, strip(0, 10))], 2: [(1, strip(0, 7)), (2, strip(3, 7))], 3: [], 4: [(2, strip(5, 5))]}),
        labels({1: [(4, strip(0, 7))], 2: [(4, strip(2, 7))], 3: [(4, strip(0, 5))], 5: [(5, strip(0, 5))]}),
    )
    @example(labels({}), labels({}))
    def test_equals_per_frame_reference(self, gt, pred):
        assert repr(evaluate(gt, pred)) == repr(reference_evaluate(gt, pred))

    @settings(max_examples=100)
    @given(CROWDED, CROWDED, st.sampled_from([1, 7]))
    def test_chunk_boundaries_do_not_matter(self, gt, pred, chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_CHUNK_CELLS", chunk)
            assert repr(evaluate(gt, pred)) == repr(reference_evaluate(gt, pred))

    @pytest.mark.parametrize("rows", [[0, 1], [0, 1, 1], [0, 0, 2], [0, 1, 2, 3], [0, 1, -1], [0, 1, 5]])
    def test_a_cell_takes_every_table_row_once(self, rows):
        # -1 was taken as the last row, 5 raised IndexError
        # a frame's level is the table's only when the cell holds all its rows
        gt = labels({1: [(1, strip(0, 10))]})
        table = labels({1: [(5, strip(0, 10)), (6, strip(7, 10)), (7, strip(3, 10))]})
        sequence = metrics.align_sequence(gt, table.row_frames, table.xyxy)
        with pytest.raises(ValueError, match="must be each of the table's 3 rows once"):
            metrics.align_cell(sequence, np.arange(len(rows)), np.array(rows))

    def test_pooled_irregular_scene_equals_reference(self):
        gt = random_scene(np.random.default_rng(3), max_ids=12, max_frames=30)
        pred = random_scene(np.random.default_rng(4), max_ids=12, max_frames=30)
        assert metrics._align(gt, pred).conflicts
        assert repr(evaluate(gt, pred)) == repr(reference_evaluate(gt, pred))

    @pytest.mark.parametrize("nan_side", ["gt", "pred"])
    @pytest.mark.parametrize("others", [1, 3], ids=["one_by_one", "one_by_three"])
    def test_non_finite_box_still_raises(self, nan_side, others):
        # a NaN box must not be dropped as a cell without overlap: the labels
        # reject it, named by its row, before either side is evaluated
        good = labels({f: [(k, box(40.0 * k)) for k in range(others)] for f in (1, 2)})
        tlwh = [[40.0 * k, 0, 10, 10] for k in range(others)] + [[math.nan, 0, 10, 10]]
        with pytest.raises(ValueError, match=f"^row {others}: x must be finite, got nan"):
            bad = BoxTable([1, 2], [1] * others + [2], list(range(others + 1)), tlwh, [1.0] * (others + 1))
            evaluate(*((bad, good) if nan_side == "gt" else (good, bad)))

    def test_non_finite_iou_still_raises(self):
        # a box whose area underflows to 0 would have an IoU of 0 / 0: the
        # labels reject it, named by its row, before either side is evaluated
        with pytest.raises(ValueError, match="^row 0: box area must be positive in corner form"):
            BoxTable([1], [1, 1], [1, 2], [[0, 0, 1e-200, 1e-200], [0, 0, 10, 10]], [1.0, 1.0])

    def test_hota_need_not_match_every_passing_pair(self):
        # gt x in [0, 10], [9, 19], [-9, 1] against pred [0, 10], [9, 19],
        # [18, 28]: the three pairs at IoU 1/19 all pass 0.05 together, but
        # the two pairs at IoU 1 score more (4 > 3 + 3/19).
        gt = labels({1: [(1, box(0)), (2, box(9)), (3, box(-9))]})
        pred = labels({1: [(1, box(0)), (2, box(9)), (3, box(18))]})
        assert all(iou(box(g), box(p)) == 1 / 19 for g, p in ((-9, 0), (0, 9), (9, 18)))
        _score, _deta, _assa, per_alpha = hota(metrics._align(gt, pred))
        assert per_alpha[0][0] == 0.05
        assert per_alpha[0][2] == 0.5


@settings(max_examples=200)
@given(CROWDED, CROWDED)
@example(labels({}), labels({}))
# frames far from 1 and negative ids, which pooling moves
@example(
    labels({7: [(-2, strip(0, 7)), (3, strip(3, 7))], 9: [(-2, strip(0, 10))]}),
    labels({8: [(5, strip(0, 7))], 9: [(-1, strip(2, 10)), (4, strip(0, 5))]}),
)
def test_single_pair_report_is_the_pooled_report(gt, pred):
    # evaluate_many takes one pair as it is; pooling only moves frames and ids
    assert repr(evaluate_many([(gt, pred)])) == repr(evaluate(*pool_sequences([(gt, pred)])))


def test_single_pair_is_not_pooled(monkeypatch):
    def fail(_pairs):
        raise AssertionError("pooled a single pair")

    monkeypatch.setattr(metrics, "pool_sequences", fail)
    gt, pred = single_track_gt(), id_switch_pred()
    assert evaluate_many([(gt, pred)]) == evaluate(gt, pred)


def test_pooling_keeps_negative_gt_ids_apart():
    # Offsetting by max(id) + 1 alone mapped the second sequence's -1 onto the
    # first's 1: two perfect sequences pooled to IDF1 0.667.
    gt_a = labels({1: [(0, box(0)), (1, box(50))]})
    pred_a = labels({1: [(5, box(0)), (6, box(50))]})
    gt_b = labels({1: [(-1, box(0))]})
    pred_b = labels({1: [(5, box(0))]})
    merged_gt, merged_pred = pool_sequences([(gt_a, pred_a), (gt_b, pred_b)])
    # non-negative ids move by the running base, as they always have
    assert merged_gt.ids.tolist() == [0, 1, 2]
    assert merged_pred.ids.tolist() == [5, 6, 12]
    assert evaluate_many([(gt_a, pred_a), (gt_b, pred_b)]).idf1 == 1.0


def test_pooling_rejects_ids_past_int64():
    # Each sequence alone fits; pooled, the second's ids would pass 2**63 - 1.
    gt = labels({1: [(2**62, box(0))]})
    with pytest.raises(ValueError, match="do not fit in 64 bits"):
        pool_sequences([(gt, gt), (gt, gt)])


def test_labels_past_int64_are_a_value_error():
    with pytest.raises(ValueError, match="must fit in 64 bits"):
        labels({1: [(2**63, box(0))]})
