import pytest

from cbiou import cli


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
