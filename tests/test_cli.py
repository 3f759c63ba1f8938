import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import cbiou
from cbiou import cli, experiments, metrics, mot_io, scenarios, synth, tracker
from cbiou.geometry import BoundingBox
from cbiou.synth import NoiseSpec
from cbiou.tracker import TrackerConfig
from gap_filling import fill_gaps


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


# Runs in a fresh interpreter: records whether the module named by its first
# argument is loaded after a bare ``import cbiou``, after ``import cbiou.cli``
# and after each command.
MODULE_PROBE = """
import json, sys
module = sys.argv[1]
import cbiou
loaded = {"import cbiou": module in sys.modules}
from cbiou import cli
loaded["import cbiou.cli"] = module in sys.modules
codes = {}
for argv in json.loads(sys.argv[2]):
    codes[argv[0]] = cli.main(argv)
    loaded[argv[0]] = module in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _probe_oracle_commands(tmp_path, module: str, names: tuple[str, ...]) -> dict:
    """Run ``names`` of ``cbiou track``/``cbiou eval`` in a fresh interpreter
    on sparse oracle files, as in the benchmark's cli_oracle workload, and
    return the probe's record of ``module``."""
    spec = scenarios.bench_scenario(10, 200, 3)
    width, height = spec.arena
    gt, dets = synth.generate(replace(spec, arena=(4 * width, 4 * height)))
    paths = {name: tmp_path / f"{name}.txt" for name in ("dets", "gt", "res", "report")}
    mot_io.write_detections(paths["dets"], dets)
    mot_io.write_ground_truth(paths["gt"], gt)
    if "track" not in names:
        mot_io.write_results(paths["res"], tracker.run_sequence(TrackerConfig(), mot_io.read_detections(paths["dets"])))
    commands = {
        "track": ["track", "--dets", str(paths["dets"]), "--out", str(paths["res"])],
        "eval": ["eval", "--gt", str(paths["gt"]), "--res", str(paths["res"]), "--report", str(paths["report"])],
    }
    src = str(Path(cbiou.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, module, json.dumps([commands[name] for name in names])],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert paths["report"].read_text(encoding="utf-8").startswith("hota = 100.0\n")
    return json.loads(proc.stdout.splitlines()[-1])


def test_track_and_eval_on_oracle_files_leave_scipy_unloaded(tmp_path):
    # Every matching reduces to forced pairs and tiny cores.
    result = _probe_oracle_commands(tmp_path, "scipy.optimize", ("track", "eval"))
    assert result["codes"] == {"track": cli.EXIT_OK, "eval": cli.EXIT_OK}
    assert result["loaded"] == {"import cbiou": False, "import cbiou.cli": False, "track": False, "eval": False}


def test_eval_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique, np.union1d and np.intersect1d import numpy.ma on first use:
    # about 13 ms and 1.3 MB for each track or eval process.
    result = _probe_oracle_commands(tmp_path, "numpy.ma", ("track", "eval"))
    assert result["codes"] == {"track": cli.EXIT_OK, "eval": cli.EXIT_OK}
    assert result["loaded"] == {"import cbiou": False, "import cbiou.cli": False, "track": False, "eval": False}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eval_rejects_non_finite_min_visibility(tmp_path, capsys, value):
    # NaN compared false with every visibility, so it silently kept every row
    _gt, _res, argv = _write_eval_inputs(tmp_path, GOOD_ROW, GOOD_ROW)
    assert cli.main([*argv, f"--min-visibility={value}"]) == cli.EXIT_USAGE
    assert f"error: min_visibility must be finite, got {float(value)!r}" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_eval_builds_no_bounding_box(tmp_path, count_boxes):
    gt, dets = synth.generate(scenarios.bench_scenario(5, 30, 3))
    paths = {name: tmp_path / f"{name}.txt" for name in ("gt", "res", "report")}
    mot_io.write_ground_truth(paths["gt"], gt)
    mot_io.write_results(paths["res"], tracker.run_sequence(TrackerConfig(), dets))
    built = count_boxes()
    argv = ["eval", "--gt", str(paths["gt"]), "--res", str(paths["res"]), "--report", str(paths["report"])]
    assert cli.main(argv) == cli.EXIT_OK
    assert built == []
    # the counter sees boxes built after it is installed
    BoundingBox(0, 0, 1, 1)
    assert len(built) == 1


def test_track_builds_no_bounding_box(tmp_path, count_boxes):
    gt, dets = synth.generate(scenarios.bench_scenario(5, 30, 3))
    paths = {name: tmp_path / f"{name}.txt" for name in ("dets", "res")}
    mot_io.write_detections(paths["dets"], synth.perturb(dets, NoiseSpec(0.3, 3), gt))
    built = count_boxes()
    argv = ["track", "--dets", str(paths["dets"]), "--out", str(paths["res"])]
    assert cli.main([*argv, "--interpolate"]) == cli.EXIT_OK
    assert built == []
    assert paths["res"].read_text(encoding="utf-8")
    # the counter sees boxes built after it is installed
    BoundingBox(0, 0, 1, 1)
    assert len(built) == 1


# sha256 of ``cbiou track`` output on the 30%-noise bench scenario, as the
# per-frame FrameOutput path wrote it; gap filling roughly triples the rows.
TRACK_FILE_DIGESTS = {
    (): "7a45a90b40679281a4f5d458ab5cf5f49be1010fae16591c12db54c9957113f0",
    ("--interpolate",): "4255717676806a3f761672382b89971ead7ba8f1db96af978e0d2b26b92a1d8a",
}


@pytest.mark.parametrize("extra", list(TRACK_FILE_DIGESTS))
def test_track_file_bytes(tmp_path, extra):
    gt, dets = synth.generate(scenarios.bench_scenario(30, 100, 7))
    noisy = synth.perturb(dets, NoiseSpec(0.3, 7), gt)
    paths = {name: tmp_path / f"{name}.txt" for name in ("dets", "res")}
    mot_io.write_detections(paths["dets"], noisy)
    assert cli.main(["track", "--dets", str(paths["dets"]), "--out", str(paths["res"]), *extra]) == cli.EXIT_OK
    data = paths["res"].read_bytes()
    assert hashlib.sha256(data).hexdigest() == TRACK_FILE_DIGESTS[extra]
    # the same bytes as the FrameOutput path over the mapping form, its gaps
    # filled by the per-record reference loop
    outputs = tracker.run_sequence(TrackerConfig(), mot_io.read_detections(paths["dets"]))
    if extra:
        outputs = fill_gaps(outputs)
    assert data == "".join(mot_io.result_lines(outputs)).encode("utf-8")


# Caps the child's address space before it imports anything, so a run that
# sizes an array by the frame span fails at once instead of exhausting memory.
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cbiou import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_track_work_follows_rows_not_frame_span(tmp_path):
    # frames 1 and 10**12: stepping every frame between them, or an array of
    # them (8 TB), never finishes
    dets, out = tmp_path / "dets.txt", tmp_path / "res.txt"
    dets.write_text("1,-1,0,0,10,10,1\n1000000000000,-1,0,0,10,10,1\n", encoding="utf-8")
    src = str(Path(cbiou.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "track", "--dets", str(dets), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert out.read_text(encoding="utf-8").splitlines() == [
        "1,1,0.00,0.00,10.00,10.00,1.00,-1,-1,-1",
        "1000000000000,2,0.00,0.00,10.00,10.00,1.00,-1,-1,-1",
    ]


def _track_argv(tmp_path, *extra):
    dets = tmp_path / "dets.txt"
    dets.write_text("1,-1,0,0,10,10,1\n2,-1,2,0,10,10,1\n", encoding="utf-8")
    return ["track", "--dets", str(dets), "--out", str(tmp_path / "res.txt"), *extra]


def _manifest(path) -> dict:
    return json.loads(Path(f"{path}.manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["--max-age", "10001"], "", "max_age must be at most 10000, got 10001"),
        ([], "n_max = 1001\n", "n_max must be at most 1000, got 1001"),
    ],
    ids=["max_age_flag", "n_max_file"],
)
def test_work_sizing_fields_past_their_bound_are_config_errors(tmp_path, monkeypatch, capsys, argv, config, message):
    # max_age bounds the predict loop of a step across a gap, and n_max the
    # history each born track allocates: neither may come unbounded from one value
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    if config:
        (tmp_path / "tracker.cfg").write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(tmp_path / "tracker.cfg")]
    assert cli.main(_track_argv(tmp_path, *argv)) == cli.EXIT_USAGE
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "res.txt").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (b"b1 = 0.2\nmax_age = 1.5\n", "2: expected an integer for max_age, got '1.5'"),
        (b"b1 = abc\n", "1: expected a number for b1, got 'abc'"),
        (b"# cfg\nb1 = 0.2\nmax_age = \xff5\n", "3: not UTF-8 text in the value of max_age at byte 25: invalid start byte"),
    ],
    ids=["int", "float", "not_utf8"],
)
@pytest.mark.parametrize("source", ["flag", "env"])
def test_config_value_error_names_file_line_and_key(tmp_path, monkeypatch, capsys, text, message, source):
    # int() and float() errors, and the codec error, used to name no file, line or key
    path = tmp_path / "tracker.cfg"
    path.write_bytes(text)
    if source == "env":
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(path))
        argv = _track_argv(tmp_path)
    else:
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        argv = _track_argv(tmp_path, "--config", str(path))
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"error: {path}:{message}" in capsys.readouterr().err
    assert not (tmp_path / "res.txt").exists()


def test_config_env_var_then_config_flag_then_tracker_flag(tmp_path, monkeypatch):
    env_file, flag_file = tmp_path / "env.cfg", tmp_path / "flag.cfg"
    env_file.write_text("max_age = 5\nmin_sim = 0.05\n", encoding="utf-8")
    flag_file.write_text("max_age = 9\n", encoding="utf-8")
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(env_file))
    out = tmp_path / "res.txt"

    assert cli.main(_track_argv(tmp_path)) == cli.EXIT_OK
    assert _manifest(out)["config"] == asdict(replace(TrackerConfig(), max_age=5, min_sim=0.05))

    # --config replaces the file the variable names; it does not merge with it
    assert cli.main(_track_argv(tmp_path, "--config", str(flag_file))) == cli.EXIT_OK
    assert _manifest(out)["config"] == asdict(replace(TrackerConfig(), max_age=9))

    assert cli.main(_track_argv(tmp_path, "--config", str(flag_file), "--max-age", "11")) == cli.EXIT_OK
    assert _manifest(out)["config"] == asdict(replace(TrackerConfig(), max_age=11))


@pytest.fixture
def noisy_pair(tmp_path):
    gt, dets = synth.generate(scenarios.noise_study_scenario(1))
    paths = {"dets": tmp_path / "dets.txt", "gt": tmp_path / "gt.txt"}
    mot_io.write_detections(paths["dets"], synth.perturb(dets, synth.NoiseSpec(0.2, 1), gt))
    mot_io.write_ground_truth(paths["gt"], gt)
    return paths


def test_grid_manifest_records_the_best_cell_as_run(tmp_path, monkeypatch, noisy_pair):
    # The manifest recorded the config file's values, although the grid ran
    # cascaded BIoU whatever the file said.
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    config_file = tmp_path / "tracker.cfg"
    config_file.write_text("similarity_kind = iou\ncascade_enabled = no\nmax_age = 12\n", encoding="utf-8")
    report = tmp_path / "grid.txt"
    argv = ["grid", "--dets", str(noisy_pair["dets"]), "--gt", str(noisy_pair["gt"]), "--report", str(report)]
    assert cli.main([*argv, "--range", "0.1:0.4:0.1", "--config", str(config_file)]) == cli.EXIT_OK
    lines = dict(line.split(" = ") for line in report.read_text(encoding="utf-8").splitlines() if " = " in line)
    best = replace(TrackerConfig(), b1=float(lines["best_b1"]), b2=float(lines["best_b2"]), max_age=12)
    manifest = _manifest(report)
    assert manifest["config"] == asdict(best)

    # a track run from the manifest's config scores the best row
    rerun_config = tmp_path / "best.cfg"
    rerun_config.write_text("".join(f"{k} = {v}\n" for k, v in manifest["config"].items()), encoding="utf-8")
    res, scored = tmp_path / "res.txt", tmp_path / "eval.txt"
    track = ["track", "--dets", str(noisy_pair["dets"]), "--out", str(res), "--config", str(rerun_config)]
    assert cli.main(track) == cli.EXIT_OK
    assert cli.main(["eval", "--gt", str(noisy_pair["gt"]), "--res", str(res), "--report", str(scored)]) == cli.EXIT_OK
    assert scored.read_text(encoding="utf-8").splitlines()[0] == f"hota = {lines['best_hota']}"


# Each subcommand's tracker flags, set to non-default values, with the field
# and value each must give every config the subcommand runs.
OFFERED_FLAGS = {
    "grid": {
        "--max-age": ("max_age", 7),
        "--min-sim": ("min_sim", 0.05),
        "--det-conf-min": ("det_conf_min", 0.3),
        "--no-motion": ("motion_enabled", False),
    },
    "compare": {
        "--b1": ("b1", 0.2),
        "--b2": ("b2", 0.5),
        "--max-age": ("max_age", 7),
        "--min-sim": ("min_sim", 0.05),
        "--det-conf-min": ("det_conf_min", 0.3),
    },
}


def _experiment_argv(command, tmp_path):
    gt, dets = synth.generate(scenarios.bench_scenario(3, 12, 3))
    paths = {"dets": tmp_path / "dets.txt", "gt": tmp_path / "gt.txt"}
    mot_io.write_detections(paths["dets"], dets)
    mot_io.write_ground_truth(paths["gt"], gt)
    argv = [command, "--dets", str(paths["dets"]), "--gt", str(paths["gt"]), "--report", str(tmp_path / "r.txt")]
    return argv + (["--range", "0.1:0.3:0.1"] if command == "grid" else [])


@pytest.mark.parametrize("command", sorted(OFFERED_FLAGS))
def test_every_offered_flag_reaches_every_config_run(tmp_path, monkeypatch, command):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    ran = []
    track_cells = tracker.track_cells

    def recording(configs, table):
        # compare and grid track all their configs together, once per sequence
        ran.extend(configs)
        return track_cells(configs, table)

    monkeypatch.setattr(tracker, "track_cells", recording)
    argv = _experiment_argv(command, tmp_path)
    for flag, (_field, value) in OFFERED_FLAGS[command].items():
        argv += [flag] if value is False else [flag, str(value)]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(ran) == (3 if command == "grid" else len(experiments.VARIANT_ORDER))
    for field, value in OFFERED_FLAGS[command].values():
        assert [getattr(config, field) for config in ran] == [value] * len(ran), field


@pytest.mark.parametrize(
    "command, flag",
    [
        ("grid", ["--sim", "iou"]),
        ("grid", ["--no-cascade"]),
        ("grid", ["--b1", "0.2"]),
        ("grid", ["--b2", "0.5"]),
        ("compare", ["--sim", "giou"]),
        ("compare", ["--no-cascade"]),
        ("compare", ["--no-motion"]),
    ],
)
def test_flags_a_subcommand_overrides_are_rejected(tmp_path, capsys, command, flag):
    # grid and compare used to accept these and silently run without them
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--dets", "d.txt", "--gt", "g.txt", "--report", str(tmp_path / "r.txt"), *flag])
    assert exc.value.code == cli.EXIT_USAGE
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["grid", "compare"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, command, jobs):
    # --jobs -3 ran serially and exited 0
    assert cli.main([*_experiment_argv(command, tmp_path), "--jobs", jobs]) == cli.EXIT_USAGE
    assert f"error: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_grid_range_with_too_many_values_is_a_usage_error(tmp_path, capsys):
    # One value over the bound: 0, 1, ..., MAX_GRID_VALUES. The input files do
    # not exist, so without the bound the run fails at once with an I/O error
    # instead of tracking every pair.
    limit = experiments.MAX_GRID_VALUES
    argv = ["grid", "--dets", "missing.txt", "--gt", "missing.txt", "--report", str(tmp_path / "r.txt")]
    assert cli.main([*argv, "--range", f"0:{limit}:1"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: grid range 0.0:{float(limit)}:1.0 has {limit + 1} values, more than {limit}" in err


def test_grid_range_past_float64_is_a_usage_error(tmp_path, capsys):
    # (stop - start) / step overflowed to inf, and round(inf) raised
    # OverflowError: exit 1 with a traceback.
    argv = ["grid", "--dets", "missing.txt", "--gt", "missing.txt", "--report", str(tmp_path / "r.txt")]
    assert cli.main([*argv, "--range", "0:1e300:1e-300"]) == cli.EXIT_USAGE
    assert "error: grid range 0.0:1e+300:1e-300 has inf values, more than" in capsys.readouterr().err


def test_grid_ignores_config_file_buffers(tmp_path, monkeypatch, capsys):
    # b1 = 0.5 with the default b2 = 0.4 stopped the grid, which never runs them
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    config_file = tmp_path / "b.cfg"
    config_file.write_text("b1 = 0.5\n", encoding="utf-8")
    argv = _experiment_argv("grid", tmp_path)
    report = tmp_path / "r.txt"
    assert cli.main(argv) == cli.EXIT_OK
    plain = report.read_bytes()
    report.unlink()
    assert cli.main([*argv, "--config", str(config_file)]) == cli.EXIT_OK
    assert report.read_bytes() == plain
    # compare runs the file's buffers, so it still rejects them
    report.unlink()
    capsys.readouterr()
    assert cli.main([*_experiment_argv("compare", tmp_path), "--config", str(config_file)]) == cli.EXIT_USAGE
    assert "error: cascaded matching requires b1 < b2, got b1=0.5, b2=0.4" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_pooled_ids_past_int64_are_a_data_error(tmp_path, monkeypatch, capsys, jobs):
    # Each sequence's ground truth fits in int64; pooled, the second's ids do
    # not. This exited 2, as a usage error.
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    for side, row in (("dets", "1,-1,0,0,10,10,1\n"), ("gt", f"1,{2**62},0,0,10,10,1,1,1.0\n")):
        (tmp_path / side).mkdir()
        for name in ("a", "b"):
            (tmp_path / side / f"{name}.txt").write_text(row, encoding="utf-8")
    report = tmp_path / "r.txt"
    argv = ["compare", "--dets", str(tmp_path / "dets"), "--gt", str(tmp_path / "gt"), "--report", str(report)]
    assert cli.main([*argv, "--jobs", jobs]) == cli.EXIT_DATA
    assert "error: pooled frames or identities do not fit in 64 bits" in capsys.readouterr().err
    assert not report.exists()
