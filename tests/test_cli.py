import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import cbiou
from cbiou import cli, metrics, mot_io, scenarios, synth, tracker
from cbiou.geometry import BoundingBox
from cbiou.tracker import TrackerConfig


class TestLoadConfigFile:
    def test_one_field_of_each_type(self, tmp_path):
        path = tmp_path / "tracker.cfg"
        path.write_text(
            "# comment\n"
            "b1 = 0.25\n"
            "max_age = 12\n"
            "similarity_kind = iou\n"
            "cascade_enabled = no\n",
            encoding="utf-8",
        )
        values = cli.load_config_file(path)
        assert values == {
            "b1": 0.25,
            "max_age": 12,
            "similarity_kind": "iou",
            "cascade_enabled": False,
        }
        # equality alone would let 12.0 pass for 12 and 0 for False
        assert {key: type(value) for key, value in values.items()} == {
            "b1": float,
            "max_age": int,
            "similarity_kind": str,
            "cascade_enabled": bool,
        }

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "tracker.cfg"
        path.write_text("b1 = 0.2\nbuffer = 0.3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"tracker\.cfg:2: unknown config key 'buffer'"):
            cli.load_config_file(path)


class TestNonFiniteMotFields:
    @pytest.mark.parametrize(
        "row",
        [
            "inf,-1,0,0,10,10,1,-1,-1,-1",
            "nan,-1,0,0,10,10,1,-1,-1,-1",
            "1,-1,0,0,10,10,nan,-1,-1,-1",
        ],
        ids=["inf_frame", "nan_frame", "nan_confidence"],
    )
    def test_track_exits_with_data_error_and_location(self, tmp_path, capsys, row):
        dets = tmp_path / "dets.txt"
        dets.write_text(f"1,-1,0,0,10,10,1,-1,-1,-1\n{row}\n", encoding="utf-8")
        code = cli.main(["track", "--dets", str(dets), "--out", str(tmp_path / "res.txt")])
        assert code == cli.EXIT_DATA
        assert f"{dets}:2: " in capsys.readouterr().err
        assert not (tmp_path / "res.txt").exists()


def test_collapsed_box_exits_with_data_error_and_location(tmp_path, capsys):
    # w = 1 is positive, but 1e17 + 1 rounds back to 1e17 in corner form
    dets = tmp_path / "dets.txt"
    dets.write_text("1,-1,1e17,0,1,10,1\n", encoding="utf-8")
    code = cli.main(["track", "--dets", str(dets), "--out", str(tmp_path / "res.txt")])
    assert code == cli.EXIT_DATA
    assert f"{dets}:1: " in capsys.readouterr().err


def test_track_manifest_reproduces_the_run(tmp_path):
    _gt, detections = synth.generate(scenarios.noise_study_scenario(1))
    dets = tmp_path / "dets.txt"
    mot_io.write_detections(dets, detections)
    first = tmp_path / "first.txt"
    argv = ["track", "--dets", str(dets), "--out", str(first), "--b1", "0.25", "--max-age", "12"]
    assert cli.main([*argv, "--no-motion"]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "first.txt.manifest.json").read_text(encoding="utf-8"))
    config = TrackerConfig(**manifest["config"])
    assert config == replace(TrackerConfig(), b1=0.25, max_age=12, motion_enabled=False)

    # rerun from the manifest's config alone, through a config file
    config_file = tmp_path / "from_manifest.cfg"
    config_file.write_text(
        "".join(f"{key} = {value}\n" for key, value in manifest["config"].items()), encoding="utf-8"
    )
    second = tmp_path / "second.txt"
    rerun = ["track", "--dets", str(dets), "--out", str(second), "--config", str(config_file)]
    assert cli.main(rerun) == cli.EXIT_OK
    assert second.read_bytes() == first.read_bytes()


def _write_eval_inputs(tmp_path, gt_text, res_text):
    gt, res = tmp_path / "gt.txt", tmp_path / "res.txt"
    gt.write_bytes(gt_text)
    res.write_bytes(res_text)
    return gt, res, ["eval", "--gt", str(gt), "--res", str(res), "--report", str(tmp_path / "report.txt")]


GOOD_ROW = b"1,1,0,0,10,10,1,1,1.0\n"


class TestInputErrors:
    # w = h = 1e200 overflowed every similarity (was exit 2, no location)
    HUGE_ROW = b"2,1,0,0,1e200,1e200,1,1,1.0\n"
    # 0xff never occurs in UTF-8 (was exit 2 with only the codec message)
    NOT_UTF8_ROW = b"2,1,0,\xff0,10,10,1,1,1.0\n"

    @pytest.mark.parametrize("row", [HUGE_ROW, NOT_UTF8_ROW], ids=["huge_box", "not_utf8"])
    def test_track_exits_with_data_error_and_location(self, tmp_path, capsys, row):
        dets = tmp_path / "dets.txt"
        dets.write_bytes(GOOD_ROW + row)
        code = cli.main(["track", "--dets", str(dets), "--out", str(tmp_path / "out.txt")])
        assert code == cli.EXIT_DATA
        assert f"{dets}:2: " in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("row", [HUGE_ROW, NOT_UTF8_ROW], ids=["huge_box", "not_utf8"])
    @pytest.mark.parametrize("bad", ["gt", "res"])
    def test_eval_exits_with_data_error_and_location(self, tmp_path, capsys, row, bad):
        gt_text = GOOD_ROW + (row if bad == "gt" else b"")
        res_text = GOOD_ROW + (row if bad == "res" else b"")
        gt, res, argv = _write_eval_inputs(tmp_path, gt_text, res_text)
        assert cli.main(argv) == cli.EXIT_DATA
        assert f"{gt if bad == 'gt' else res}:2: " in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()


def test_eval_report_appends_one_line_per_alpha(tmp_path, capsys):
    # (0,0,7,1) vs (3,0,7,1) has IoU 0.4: detected up to alpha 0.4, missed above
    gt, res, argv = _write_eval_inputs(
        tmp_path,
        b"".join(b"%d,1,0,0,7,1,1,1,1.0\n" % f for f in range(1, 5)),
        b"".join(b"%d,5,3,0,7,1,1,-1,-1,-1\n" % f for f in range(1, 5)),
    )
    assert cli.main([*argv, "--pretty"]) == cli.EXIT_OK
    lines = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()
    report = metrics.evaluate(mot_io.read_ground_truth(gt), mot_io.read_results(res))
    assert lines[:10] == cli.format_metrics_lines(report)
    keys = [line.split(" = ")[0] for line in lines]
    assert len(set(keys)) == len(keys) == 10 + len(metrics.ALPHAS)
    assert lines[10] == "alpha_0.05 = hota 100.0 deta 100.0 assa 100.0"
    assert lines[17] == "alpha_0.40 = hota 100.0 deta 100.0 assa 100.0"
    assert lines[18] == "alpha_0.45 = hota 0.0 deta 0.0 assa 0.0"
    assert lines[-1] == "alpha_0.95 = hota 0.0 deta 0.0 assa 0.0"
    # the printed table keeps its five headline rows
    assert capsys.readouterr().out.splitlines() == [
        "metric   value",
        *(f"{key:8s} {value}" for key, _, value in (line.partition(" = ") for line in lines[:5])),
    ]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--b1", "1e300", "--b2", "2e300"], "b1"),
        (["--b2", "2e300"], "b2"),
        (["--no-cascade", "--b2", "nan"], "b2"),
    ],
    ids=["b1", "b2", "unused_b2"],
)
def test_buffer_scale_out_of_range_is_a_config_error(tmp_path, capsys, argv, name):
    # Huge scales overflowed every similarity (numpy warnings, then exit 2
    # naming no option); an unused NaN b2 reached the manifest as bare NaN.
    dets = tmp_path / "dets.txt"
    dets.write_text("1,-1,0,0,10,10,1\n1,-1,20,0,10,10,1\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["track", "--dets", str(dets), "--out", str(tmp_path / "res.txt"), *argv])
    assert code == cli.EXIT_USAGE
    assert f"error: {name} must be finite and in [0, 1e+50]" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("text", ["0:inf:0.1", "0:1:nan", "nan:1:0.1"])
def test_nonfinite_grid_range_is_a_usage_error(tmp_path, capsys, text):
    # inf escaped as an OverflowError traceback; NaN exited 2 with a message
    # about float conversion that named no range
    dets, gt = tmp_path / "dets.txt", tmp_path / "gt.txt"
    dets.write_text("1,-1,0,0,10,10,1\n", encoding="utf-8")
    gt.write_text("1,1,0,0,10,10,1,1,1.0\n", encoding="utf-8")
    argv = ["grid", "--dets", str(dets), "--gt", str(gt), "--report", str(tmp_path / "r.txt")]
    assert cli.main([*argv, "--range", text]) == cli.EXIT_USAGE
    assert "error: invalid grid range" in capsys.readouterr().err


# Runs in a fresh interpreter: records whether scipy.optimize is loaded after
# a bare ``import cbiou``, after ``import cbiou.cli`` and after each command.
SCIPY_PROBE = """
import json, sys
import cbiou
loaded = {"import cbiou": "scipy.optimize" in sys.modules}
from cbiou import cli
loaded["import cbiou.cli"] = "scipy.optimize" in sys.modules
codes = {}
for argv in json.loads(sys.argv[1]):
    codes[argv[0]] = cli.main(argv)
    loaded[argv[0]] = "scipy.optimize" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_track_and_eval_on_oracle_files_leave_scipy_unloaded(tmp_path):
    # Sparse oracle scenes, as in the benchmark's cli_oracle workload: every
    # matching reduces to forced pairs and tiny cores.
    spec = scenarios.bench_scenario(10, 200, 3)
    width, height = spec.arena
    gt, dets = synth.generate(replace(spec, arena=(4 * width, 4 * height)))
    paths = {name: tmp_path / f"{name}.txt" for name in ("dets", "gt", "res", "report")}
    mot_io.write_detections(paths["dets"], dets)
    mot_io.write_ground_truth(paths["gt"], gt)
    commands = [
        ["track", "--dets", str(paths["dets"]), "--out", str(paths["res"])],
        ["eval", "--gt", str(paths["gt"]), "--res", str(paths["res"]), "--report", str(paths["report"])],
    ]
    src = str(Path(cbiou.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {"track": cli.EXIT_OK, "eval": cli.EXIT_OK}
    assert result["loaded"] == {"import cbiou": False, "import cbiou.cli": False, "track": False, "eval": False}
    assert paths["report"].read_text(encoding="utf-8").startswith("hota = 100.0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eval_rejects_non_finite_min_visibility(tmp_path, capsys, value):
    # NaN compared false with every visibility, so it silently kept every row
    _gt, _res, argv = _write_eval_inputs(tmp_path, GOOD_ROW, GOOD_ROW)
    assert cli.main([*argv, f"--min-visibility={value}"]) == cli.EXIT_USAGE
    assert f"error: min_visibility must be finite, got {float(value)!r}" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_eval_builds_no_bounding_box(tmp_path, monkeypatch):
    gt, dets = synth.generate(scenarios.bench_scenario(5, 30, 3))
    paths = {name: tmp_path / f"{name}.txt" for name in ("gt", "res", "report")}
    mot_io.write_ground_truth(paths["gt"], gt)
    mot_io.write_results(paths["res"], tracker.run_sequence(TrackerConfig(), dets))
    built = []
    validate = BoundingBox.__post_init__
    monkeypatch.setattr(BoundingBox, "__post_init__", lambda box: built.append(box) or validate(box))
    argv = ["eval", "--gt", str(paths["gt"]), "--res", str(paths["res"]), "--report", str(paths["report"])]
    assert cli.main(argv) == cli.EXIT_OK
    assert built == []
    # the counter sees boxes built after it is installed
    BoundingBox(0, 0, 1, 1)
    assert len(built) == 1
