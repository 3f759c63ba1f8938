"""MOT file readers: the message, ``file:line`` and exit code of every row
check, through ``cbiou track`` (detections) and ``cbiou eval`` (ground truth
and results)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbiou import cli, mot_io
from cbiou.geometry import BoundingBox
from labels import labels

GOOD_GT = b"1,1,0,0,10,10,1,1,1.0\n"
GOOD_RES = b"1,1,0,0,10,10,1,-1,-1,-1\n"
ROW = "1,1,0,0,10,10,1,1,1.0"
COLUMNS = ("frame", "id", "x", "y", "w", "h", "col7", "col8", "col9")
# What each reader calls columns 7 to 9; None where it ignores the column.
# The results reader ignores everything after h, and no reader reads column 8.
EXTRA_NAMES = {
    "dets": {6: "conf", 7: None, 8: None},
    "gt": {6: "active", 7: None, 8: "visibility"},
    "res": {6: None, 7: None, 8: None},
}
TARGETS = ("dets", "gt", "res")
ACCEPTED = dict.fromkeys(TARGETS)


def with_field(column: int, value: str, row: str = ROW) -> bytes:
    fields = row.split(",")
    fields[column] = value
    return (",".join(fields) + "\n").encode()


def every(line, message):
    """The same outcome on all three readers."""
    return {target: (line, message) for target in TARGETS}


# (case, rows, outcome per reader). An outcome is the failing line and its
# message, or None where the reader accepts the rows.
CASES = [
    ("5_fields", b"1,1,0,0,10\n", every(1, "expected 6 to 10 comma-separated fields, got 5")),
    ("11_fields", b"1,1,0,0,10,10,1,1,1,1,1\n", every(1, "expected 6 to 10 comma-separated fields, got 11")),
    ("not_a_number", with_field(3, "zz"), every(1, "y is not a number: 'zz'")),
    ("frame_1.5", with_field(0, "1.5"), every(1, "frame is not an integer: '1.5'")),
    ("frame_2.0", with_field(0, "2.0"), ACCEPTED),
    ("frame_0", with_field(0, "0"), every(1, "frame must be >= 1, got 0")),
    ("w_0", with_field(4, "0"), every(1, "box extents must be positive, got w=0.0, h=10.0")),
    ("h_negative", with_field(5, "-1"), every(1, "box extents must be positive, got w=10.0, h=-1.0")),
    (
        "corner_collapse",
        with_field(2, "1e17", "1,1,0,0,1,10,1,1,1.0"),
        every(1, "box extents must be positive in corner form, got x=1e+17, y=0.0, w=1.0, h=10.0"),
    ),
    (
        "beyond_max_abs_coordinate",
        with_field(4, "2e100"),
        every(1, "box corners must lie within +-1e+100, got x=0.0, y=0.0, w=2e+100, h=10.0"),
    ),
    (
        # the area underflows to 0, and every IoU with the box was 0 / 0
        "zero_area",
        b"1,1,0,0,1e-200,1e-200,1,1,1.0\n",
        every(1, "box area must be positive in corner form, got x=0.0, y=0.0, w=1e-200, h=1e-200"),
    ),
    (
        "id_-1",
        with_field(1, "-1"),
        {"dets": None, "gt": None, "res": (1, "result rows need a real track id, got -1")},
    ),
    (
        "duplicate",
        GOOD_GT + b"\n" + with_field(2, "5"),
        {
            "dets": None,
            "gt": (3, "duplicate (frame=1, id=1) also present at line 1"),
            "res": (3, "duplicate (frame=1, id=1) also present at line 1"),
        },
    ),
    (
        # the results reader ignores the active column
        "duplicate_of_inactive_gt_row",
        with_field(6, "0") + with_field(2, "5"),
        {"dets": None, "gt": None, "res": (2, "duplicate (frame=1, id=1) also present at line 1")},
    ),
    (
        "crlf_and_blank_lines",
        GOOD_GT.replace(b"\n", b"\r\n") + b"\r\n" + with_field(5, "x", "2,1,0,0,10,10,1,1,1.0").replace(b"\n", b"\r\n"),
        every(3, "h is not a number: 'x'"),
    ),
    (
        "duplicate_before_bad_number",
        GOOD_GT + GOOD_GT + with_field(4, "q", "2,1,0,0,10,10,1,1,1.0"),
        {
            "dets": (3, "w is not a number: 'q'"),
            "gt": (2, "duplicate (frame=1, id=1) also present at line 1"),
            "res": (2, "duplicate (frame=1, id=1) also present at line 1"),
        },
    ),
    (
        "bad_number_before_duplicate",
        GOOD_GT + with_field(4, "q", "2,1,0,0,10,10,1,1,1.0") + GOOD_GT,
        every(2, "w is not a number: 'q'"),
    ),
    ("active_1.5", with_field(6, "1.5"), {"dets": None, "gt": (1, "active is not an integer: '1.5'"), "res": None}),
    ("column_8_ignored", with_field(7, "x"), ACCEPTED),
    # "#" starts no comment
    ("hash_suffix", with_field(5, "10#x"), every(1, "h is not a number: '10#x'")),
    ("blank_file", b"\n \n\r\n", ACCEPTED),
    ("empty_file", b"", ACCEPTED),
]
for _column, _name in enumerate(COLUMNS):
    for _value in ("nan", "inf", "-inf"):
        _outcome = {}
        for _target in TARGETS:
            _reader_name = EXTRA_NAMES[_target].get(_column, _name)
            _outcome[_target] = _reader_name and (1, f"{_reader_name} must be finite, got '{_value}'")
        CASES.append((f"{_name}_{_value}", with_field(_column, _value), _outcome))


def run_reader(tmp_path, target: str, rows: bytes):
    """Run the command that reads ``rows`` as a ``target`` file; good rows
    fill the other input. Returns the path written, the exit code and what
    the command wrote."""
    paths = {name: tmp_path / f"{name}.txt" for name in ("dets", "gt", "res", "out")}
    if target == "dets":
        paths["dets"].write_bytes(rows)
        argv = ["track", "--dets", str(paths["dets"]), "--out", str(paths["out"])]
    else:
        paths["gt"].write_bytes(rows if target == "gt" else GOOD_GT)
        paths["res"].write_bytes(rows if target == "res" else GOOD_RES)
        argv = ["eval", "--gt", str(paths["gt"]), "--res", str(paths["res"]), "--report", str(paths["out"])]
    return paths[target], cli.main(argv), paths["out"]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("rows, outcome", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_reader_outcome(tmp_path, capsys, rows, outcome, target):
    path, code, out = run_reader(tmp_path, target, rows)
    expected = outcome[target]
    if expected is None:
        assert (code, capsys.readouterr().err) == (cli.EXIT_OK, "")
        assert out.is_file()
    else:
        line, message = expected
        assert (code, capsys.readouterr().err) == (cli.EXIT_DATA, f"error: {path}:{line}: {message}\n")
        assert not out.exists()


def test_integral_float_frame_reads_as_its_integer(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_bytes(with_field(0, "2.0"))
    assert list(mot_io.read_detections(path)) == [2]
    assert list(mot_io.read_ground_truth(path).frames) == [2]
    assert list(mot_io.read_results(path).frames) == [2]


def test_frames_and_ids_stay_exact_past_float_precision(tmp_path):
    # float64 would round 2**53 + 1 to 2**53
    big = 2**53 + 1
    path = tmp_path / "res.txt"
    path.write_text(f"{big},{big},0,0,10,10,1,-1,-1,-1\n", encoding="utf-8")
    results = mot_io.read_results(path)
    assert list(results.frames) == [big]
    assert [identity for identity, _box in results.frames[big]] == [big]
    assert results.ids.tolist() == [big]


@pytest.mark.parametrize(
    "field, value",
    [("frame", 2**63), ("frame", 10**30), ("id", -(2**63) - 1)],
    ids=["frame_2**63", "frame_1e30", "id_below_int64"],
)
def test_frames_and_ids_beyond_int64_are_data_errors(tmp_path, capsys, field, value):
    row = with_field(COLUMNS.index(field), str(value), "1,1,0,0,10,10,1,-1,-1,-1")
    path, code, out = run_reader(tmp_path, "res", GOOD_RES + row)
    assert (code, capsys.readouterr().err) == (
        cli.EXIT_DATA,
        f"error: {path}:2: {field} must fit in 64 bits, got {value}\n",
    )


LAYOUTS = {"dets": mot_io._DETECTIONS, "gt": mot_io._GROUND_TRUTH, "res": mot_io._RESULTS}
# Field values that hit every row check: non-finite, non-integer, zero and
# negative extents, collapsed and out-of-range corners, frames and ids past
# float64's exact integers and past int64.
SPECIAL_FIELDS = (
    "nan", "inf", "-inf", "0", "-0.0", "-1", "1.5", "2.0", "1e17", "-2e100", "2e100",
    "1e308", "5e-324", str(2**53 + 1), str(-(2**63)), str(2**63),
)
valid_rows = st.tuples(
    st.integers(1, 50),
    st.integers(-3, 50),
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(0.5, 1e3),
    st.floats(0.5, 1e3),
    st.sampled_from(["0", "1", "0.5"]),
    st.just("1"),
    st.floats(0, 1),
    st.just("-1"),
).map(lambda row: [str(field) for field in row])
corruptions = st.tuples(
    st.integers(0, 9),
    st.one_of(
        st.sampled_from(SPECIAL_FIELDS),
        st.floats().map(repr),
        st.integers(-(2**70), 2**70).map(str),
    ),
)


@settings(max_examples=300)
@given(st.lists(st.tuples(valid_rows, st.none() | corruptions), min_size=1, max_size=12))
def test_array_checks_flag_exactly_the_rows_the_row_check_rejects(rows):
    lines = []
    for fields, corruption in rows:
        if corruption is not None:
            column, value = corruption
            fields[column] = value
        lines.append(",".join(fields))
    for layout in LAYOUTS.values():
        values, linenos, fault = mot_io._convert("f.txt", lines, layout)
        assert fault is None
        rejected = set()
        for lineno, line in enumerate(lines, start=1):
            try:
                mot_io._check_row("f.txt", lineno, line, layout)
            except mot_io.MotFileError:
                rejected.add(lineno)
        # Rows whose frame or id float64 may round are flagged to be re-read.
        inexact = {n for n, (f, i) in zip(linenos, values[:, :2].tolist()) if max(abs(f), abs(i)) >= 2**53}
        flagged = {n for n, bad in zip(linenos, mot_io._faults(values, layout)) if bad}
        assert flagged == rejected | inexact


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)), max_size=12))
def test_first_duplicate_is_the_first_repeated_pair_in_row_order(pairs):
    first_row = {}
    expected = None
    for row, pair in enumerate(pairs):
        if pair in first_row:
            expected = (row, first_row[pair])
            break
        first_row[pair] = row
    frames = np.array([f for f, _ in pairs], dtype=np.int64)
    ids = np.array([i for _, i in pairs], dtype=np.int64)
    assert mot_io._first_duplicate(frames, ids) == expected


number_texts = st.sampled_from([repr, "{:.2f}".format, "{:e}".format, " {} ".format])
path_rows = st.integers(6, 10).flatmap(
    lambda width: st.lists(
        st.tuples(
            st.integers(1, 50).map(str),
            st.integers(-3, 50).map(str),
            *(st.builds(lambda text, value: text(value), number_texts, st.floats(-1e3, 1e3)) for _ in "xy"),
            *(st.builds(lambda text, value: text(value), number_texts, st.floats(0.5, 1e3)) for _ in "wh"),
            st.sampled_from(["0", "1", "1.0"]),
            st.sampled_from(["1", "-1"]),
            st.builds(lambda text, value: text(value), number_texts, st.floats(0, 1)),
            st.just("-1"),
        ).map(lambda fields: ",".join(fields[:width])),
        min_size=1,
        max_size=12,
    )
)


@settings(max_examples=200)
@given(path_rows, st.lists(st.integers(0, 12), max_size=3), st.sampled_from(["\n", "\r\n"]))
def test_both_conversions_read_valid_rows_to_the_same_bits(rows, blanks, newline):
    lines = list(rows)
    for at in blanks:
        lines.insert(min(at, len(lines)), "")
    lines = newline.join(lines).splitlines()
    for layout in LAYOUTS.values():
        values, linenos, fault = mot_io._convert_by_line("f.txt", lines, layout)
        assert fault is None
        at_once = mot_io._convert_at_once(lines, layout, len(linenos))
        assert at_once is not None
        assert (at_once.shape, at_once.tobytes()) == (values.shape, values.tobytes())
        assert mot_io._convert("f.txt", lines, layout)[1] == linenos


def test_rows_of_one_width_convert_in_one_call(monkeypatch):
    monkeypatch.setattr(mot_io, "_convert_by_line", None)
    lines = ["1,1,0,0,10,10,1,-1,-1,-1", "", "2,1,0,0,10,10,1,-1,-1,-1"]
    values, linenos, fault = mot_io._convert("f.txt", lines, mot_io._RESULTS)
    assert (values.tolist(), linenos, fault) == ([[1, 1, 0, 0, 10, 10], [2, 1, 0, 0, 10, 10]], [1, 3], None)


@pytest.mark.parametrize("chunk", [1, 6, 7, 8192])
def test_reads_do_not_depend_on_the_conversion_chunk(tmp_path, monkeypatch, chunk):
    # six values per results row: chunks end inside, on and past row ends
    monkeypatch.setattr(mot_io, "_CHUNK_FLOATS", chunk)
    # Rows of 10 and 6 fields: uneven rows are converted a line at a time.
    tail = {3: ",1,-1,-1,-1", 1: ""}
    rows = [f"{frame},{tid},{10 * tid},0,10,10{tail[tid]}\n" for frame in (2, 1, 3) for tid in (3, 1)]
    path = tmp_path / "res.txt"
    path.write_text("".join(rows), encoding="utf-8")
    expected = {
        frame: [(tid, BoundingBox(10 * tid, 0, 10, 10)) for tid in (3, 1)] for frame in (1, 2, 3)
    }
    assert mot_io.read_results(path) == labels(expected)
    path.write_text("".join(rows) + "4,1,0,zz,10,10\n", encoding="utf-8")
    with pytest.raises(mot_io.MotParseError, match=r"res\.txt:7: y is not a number: 'zz'"):
        mot_io.read_results(path)


def test_ground_truth_rewrites_from_arrays(tmp_path, count_boxes):
    gt = labels(
        {
            2: [(5, BoundingBox(1, 2, 3, 4)), (3, BoundingBox(0, 0, 10, 10))],
            1: [(7, BoundingBox(0.5, 0, 1, 1))],
        }
    )
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    mot_io.write_ground_truth(first, gt)
    assert first.read_text(encoding="utf-8") == (
        "1,7,0.50,0.00,1.00,1.00,1,1,1.0\n"
        "2,3,0.00,0.00,10.00,10.00,1,1,1.0\n"
        "2,5,1.00,2.00,3.00,4.00,1,1,1.0\n"
    )
    read = mot_io.read_ground_truth(first)
    built = count_boxes()
    mot_io.write_ground_truth(second, read)
    assert built == []
    assert second.read_bytes() == first.read_bytes()
