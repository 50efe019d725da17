import json
from fractions import Fraction as F

import pytest

from selfsim.cli import main
from selfsim.ifsfile import parse_ifs, serialize_ifs
from selfsim.similitudes import four_map_example, three_map


@pytest.fixture
def three_spec(tmp_path):
    path = tmp_path / "three.ifs"
    path.write_text(serialize_ifs(three_map(F(1, 5), F(3, 10))), encoding="utf-8")
    return str(path)


@pytest.fixture
def sym_spec(tmp_path):
    path = tmp_path / "sym.ifs"
    path.write_text(serialize_ifs(three_map(F(1, 5), F(2, 5))), encoding="utf-8")
    return str(path)


@pytest.fixture
def touching_spec(tmp_path):
    path = tmp_path / "touch.ifs"
    path.write_text(serialize_ifs(three_map(F(1, 4), F(1, 4))), encoding="utf-8")
    return str(path)


@pytest.fixture
def four_spec(tmp_path):
    path = tmp_path / "four.ifs"
    path.write_text(serialize_ifs(four_map_example()), encoding="utf-8")
    return str(path)


class TestCover:
    def test_text(self, three_spec, capsys):
        assert main(["cover", three_spec, "--depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "depth 1: 3 pieces, largest gap 3/10" in out
        assert "  [0, 1/5]" in out
        assert "  [3/10, 1/2]" in out
        assert "  [4/5, 1]" in out

    def test_record(self, three_spec, capsys):
        assert main(["cover", three_spec, "--depth", "2", "--format", "record"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "cover"
        assert rec["piece_count"] == 9
        assert rec["parts"][0] == ["0", "1/25"]
        assert parse_ifs(rec["system"]) == three_map(F(1, 5), F(3, 10))

    def test_svg_written(self, three_spec, tmp_path, capsys):
        target = tmp_path / "strip.svg"
        assert main(["cover", three_spec, "--depth", "2", "--svg", str(target)]) == 0
        out = capsys.readouterr().out
        assert f"svg written to {target}" in out
        body = target.read_text(encoding="utf-8")
        assert body.startswith("<svg")


class TestCheck:
    def test_word(self, three_spec, capsys):
        assert main(["check", three_spec, "1/25", "23/50"]) == 0
        assert "included: f is the word map [2 3]" in capsys.readouterr().out

    def test_excluded(self, three_spec, capsys):
        assert main(["check", three_spec, "1/5", "3/5"]) == 1
        out = capsys.readouterr().out
        assert (
            "excluded: certified point 0 maps into the gap (1/2, 4/5) at depth 1"
            in out
        )

    def test_negative_ratio_positional(self, sym_spec, capsys):
        # "-1/5" must parse as a value, not an option
        assert main(["check", sym_spec, "-1/5", "1/5"]) == 0
        out = capsys.readouterr().out
        assert "word map [1] composed with the reflection about 1/2" in out

    def test_record(self, three_spec, capsys):
        assert main(["check", three_spec, "1/5", "3/5", "--format", "record"]) == 1
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "check"
        assert rec["verdict"]["kind"] == "excluded-witness"
        assert rec["verdict"]["gap"] == ["1/2", "4/5"]

    def test_unknown_exit(self, touching_spec, capsys):
        code = main(
            [
                "check", touching_spec, "-1/4", "1/2",
                "--point-depth", "1", "--cover-depth", "1", "--branch-depth", "1",
            ]
        )
        assert code == 4
        assert "unknown at branch depth 1" in capsys.readouterr().out


class TestDecompose:
    def test_word(self, three_spec, capsys):
        assert main(["decompose", three_spec, "1/25", "23/50"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "2 3"
        assert lines[1].endswith("word map rebuilds f exactly: True")

    def test_reflected(self, sym_spec, capsys):
        assert main(["decompose", sym_spec, "-1/5", "1/5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1 (reflected, center 1/2)"
        assert lines[1].endswith("composite rebuilds f exactly: True")

    def test_fallback_certificate(self, four_spec, capsys):
        assert main(["decompose", four_spec, "1/10", "1/20"]) == 0
        out = capsys.readouterr().out
        assert "no word decomposition; fallback certificate follows" in out
        assert "included: cylinder-exchange certificate" in out
        assert "f o phi_[1] = phi_[1 3]" in out

    def test_step_budget_exit(self, three_spec, capsys):
        code = main(["decompose", three_spec, "1/25", "23/50", "--max-steps", "1"])
        assert code == 3
        assert "budget exhausted" in capsys.readouterr().err

    def test_record(self, three_spec, capsys):
        assert main(
            ["decompose", three_spec, "1/25", "23/50", "--format", "record"]
        ) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["verdict"] == {"kind": "included-word", "word": [2, 3]}


class TestEnumerate:
    def test_text(self, three_spec, capsys):
        assert main(["enumerate", three_spec, "--ratio", "1/5"]) == 0
        out = capsys.readouterr().out
        assert "ratio 1/5: 3 certified, 0 candidates" in out
        for offset in ("0", "3/10", "4/5"):
            assert f"offset {offset:>10}  included-word" in out

    def test_none_found(self, three_spec, capsys):
        assert main(["enumerate", three_spec, "--ratio", "-1/5"]) == 0
        assert "0 certified, 0 candidates" in capsys.readouterr().out

    def test_record(self, sym_spec, capsys):
        assert main(
            ["enumerate", sym_spec, "--ratio", "-1/5", "--format", "record"]
        ) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "enumerate"
        assert [c["offset"] for c in rec["certified"]] == ["1/5", "3/5", "1"]
        assert all(
            c["verdict"]["kind"] == "included-reflected-word"
            for c in rec["certified"]
        )

    def test_candidates_exit_unknown(self, touching_spec, capsys):
        code = main(
            [
                "enumerate", touching_spec, "--ratio", "-1/4",
                "--point-depth", "1", "--cover-depth", "1", "--branch-depth", "1",
            ]
        )
        assert code == 4
        assert "candidate interval" in capsys.readouterr().out


class TestVerifyPaper:
    def test_only_corollary_text(self, capsys):
        assert main(["verify-paper", "--only", "cor1_3i"]) == 0
        out = capsys.readouterr().out
        assert "[Cor1_3i]" in out
        assert "1/1 reports passed" in out

    def test_only_equal_gap_record(self, capsys):
        assert main(["verify-paper", "--only", "thm1_2", "--format", "record"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert len(lines) == 2
        for ln in lines:
            rec = json.loads(ln)
            assert rec["command"] == "verify-paper"
            assert rec["theorem_id"] == "Thm1_2"
            assert rec["passed"] is True

    def test_injection_fails(self, capsys):
        code = main(
            ["verify-paper", "--only", "thm1_2", "--inject-wrong-expectation"]
        )
        assert code == 1
        assert "1/2 reports passed" in capsys.readouterr().out


class TestErrorsAndBudget:
    def test_missing_file(self, capsys):
        assert main(["check", "/nowhere.ifs", "1/5", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_for_cover(self, tmp_path, capsys):
        missing = tmp_path / "absent.ifs"
        assert main(["cover", str(missing), "--depth", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.ifs" in err

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_svg_path(self, three_spec, tmp_path, capsys, where):
        target = tmp_path / "no" / "x.svg" if where == "missing-dir" else tmp_path
        code = main(
            ["cover", three_spec, "--depth", "1", "--svg", str(target),
             "--format", "record"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_bad_rational_argument(self, three_spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", three_spec, "x/y", "0"])
        assert excinfo.value.code == 2

    def test_budget_flag(self, three_spec, capsys):
        assert main(["cover", three_spec, "--depth", "8", "--budget", "10"]) == 3
        assert "budget exhausted" in capsys.readouterr().err

    def test_budget_env(self, three_spec, capsys, monkeypatch):
        monkeypatch.setenv("SELFSIM_BUDGET", "10")
        assert main(["cover", three_spec, "--depth", "8"]) == 3

    def test_flag_overrides_env(self, three_spec, capsys, monkeypatch):
        monkeypatch.setenv("SELFSIM_BUDGET", "10")
        assert main(["cover", three_spec, "--depth", "8", "--budget", "1000000"]) == 0

    @pytest.mark.parametrize(
        "flag", ["--point-depth", "--cover-depth", "--branch-depth"]
    )
    @pytest.mark.parametrize("command", ["check", "decompose", "enumerate", "paper"])
    def test_zero_depth_is_usage_error(self, three_spec, capsys, command, flag):
        argv = {
            "check": ["check", three_spec, "1/25", "0"],
            "decompose": ["decompose", three_spec, "1/25", "0"],
            "enumerate": ["enumerate", three_spec, "--ratio", "1/5"],
            "paper": ["verify-paper", "--only", "cor1_3i"],
        }[command]
        assert main(argv + [flag, "0"]) == 2
        assert "depths >= 1 violated" in capsys.readouterr().err

    def test_bad_env(self, three_spec, capsys, monkeypatch):
        monkeypatch.setenv("SELFSIM_BUDGET", "lots")
        assert main(["cover", three_spec]) == 2
        assert "SELFSIM_BUDGET" in capsys.readouterr().err
