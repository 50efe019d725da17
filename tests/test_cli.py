import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

    def test_budget_reaches_the_harness_covers(self, capsys):
        # the harness's own depth-4 cover (4**4 cylinders) is refused
        # before the engine's depth-8 cover (4**8) is reached
        assert main(["verify-paper", "--only", "example1_4", "--budget", "100"]) == 3
        assert "cylinder count 256 exceeds budget 100" in capsys.readouterr().err

    def test_record_matches_golden_file(self, capsys):
        # the full suite's records, byte for byte, as committed
        golden = Path(__file__).parent / "data" / "verify_paper.record"
        assert main(["verify-paper", "--format", "record"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()

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
        assert main(["check", three_spec, "x/y", "0"]) == 2
        assert "error: argument ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "SPEC", "1/0", "0"],
        ["check", "SPEC", "1/5", "0", "--point-depth", "x"],
        ["check", "SPEC", "1/5"],
        ["nonesuch"],
        [],
    ])
    def test_usage_errors_return_two(self, three_spec, capsys, argv):
        assert main([three_spec if a == "SPEC" else a for a in argv]) == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_returns_zero(self, capsys, argv):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out

    def test_budget_flag(self, three_spec, capsys):
        assert main(["cover", three_spec, "--depth", "8", "--budget", "10"]) == 3
        assert "budget exhausted" in capsys.readouterr().err

    def test_budget_env(self, three_spec, capsys, monkeypatch):
        monkeypatch.setenv("SELFSIM_BUDGET", "10")
        assert main(["cover", three_spec, "--depth", "8"]) == 3

    def test_negative_budget_flag_is_usage_error(self, three_spec, capsys):
        assert main(["check", three_spec, "1/5", "0", "--budget", "-1"]) == 2
        assert capsys.readouterr().err == "error: --budget must be >= 0, got -1\n"

    def test_negative_budget_env_is_usage_error(self, three_spec, capsys, monkeypatch):
        monkeypatch.setenv("SELFSIM_BUDGET", "-7")
        assert main(["cover", three_spec, "--depth", "0"]) == 2
        assert capsys.readouterr().err == "error: SELFSIM_BUDGET must be >= 0, got -7\n"

    def test_zero_budget_is_exhausted(self, three_spec, capsys):
        assert main(["check", three_spec, "1/5", "0", "--budget", "0"]) == 3
        assert "budget exhausted" in capsys.readouterr().err

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

    def test_binary_spec_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bin.ifs"
        path.write_bytes(b"m=3\n\xff\xfe 1/5 0\n")
        assert main(["check", str(path), "1/5", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err

    def test_huge_point_depth_fails_fast(self, three_spec, capsys):
        start = time.perf_counter()
        code = main(["check", three_spec, "1/5", "0", "--point-depth", "100000000"])
        assert code == 3
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert "cylinder count 3**100000000 exceeds budget 1000000" in err

    def test_huge_cover_depth_fails_fast(self, three_spec, capsys):
        # every cover depth is checked before any is built, and the
        # message names the first depth over the budget
        start = time.perf_counter()
        argv = ["check", three_spec, "1/5", "0", "--cover-depth", "100000000"]
        assert main(argv + ["--budget", "1000"]) == 3
        assert time.perf_counter() - start < 0.5
        assert "cylinder count 2187 exceeds budget 1000" in capsys.readouterr().err

    def test_budget_message_keeps_ordinary_counts(self, three_spec, capsys):
        assert main(["cover", three_spec, "--depth", "30", "--budget", "10"]) == 3
        assert f"cylinder count {3**30} exceeds budget 10" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_nonpositive_max_steps_is_usage_error(self, three_spec, capsys, steps):
        code = main(["decompose", three_spec, "1/25", "23/50", "--max-steps", steps])
        assert code == 2
        assert "max_steps >= 1 violated" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "record"])
    def test_unprintable_rational_is_usage_error(self, tmp_path, capsys, fmt):
        # depth-8 endpoints carry the 700-digit ratio denominator to the
        # 8th power, past the interpreter's int-to-str digit limit
        path = tmp_path / "long.ifs"
        path.write_text(f"m=2\n1/{10**700 + 1} 0\n1/3 2/3\n", encoding="utf-8")
        assert main(["cover", str(path), "--depth", "8", "--format", fmt]) == 2
        assert "too long to print" in capsys.readouterr().err

    def test_bad_env(self, three_spec, capsys, monkeypatch):
        monkeypatch.setenv("SELFSIM_BUDGET", "lots")
        assert main(["cover", three_spec]) == 2
        assert "SELFSIM_BUDGET" in capsys.readouterr().err


# -- exit contract ----------------------------------------------------------


def _fraction_text(p, q):
    return f"{p}/{q}"


SMALL_RATIONALS = st.builds(_fraction_text, st.integers(-3, 12), st.integers(1, 12))
CONTRACTIONS = st.builds(_fraction_text, st.integers(1, 4), st.integers(5, 12))
LARGE_DENOMINATORS = st.builds(
    lambda p, k: f"{p}/{10**k + 1}", st.integers(1, 10**6), st.sampled_from([12, 40, 700])
)
JUNK = st.sampled_from(["", "x", "1/0", "1/2/3", "--", "m=2", "٣/٧"])


@st.composite
def spec_bytes(draw):
    """Spec file contents: raw bytes, malformed map lists, free maps (with
    large denominators), degenerate hulls, overlapping or touching
    equal-ratio maps, and family headers with random parameters."""
    kind = draw(st.sampled_from(
        ["bytes", "malformed", "maps", "maps", "degenerate", "overlap", "overlap",
         "family"]
    ))
    if kind == "bytes":
        return draw(st.binary(max_size=80))
    header = ""
    m = None
    if kind == "malformed":
        text = st.one_of(SMALL_RATIONALS, JUNK)
        maps = draw(st.lists(st.tuples(text, text), min_size=1, max_size=4))
        m = draw(st.sampled_from([len(maps), 0, -1, 7]))
    elif kind == "maps":
        offset = st.one_of(SMALL_RATIONALS, LARGE_DENOMINATORS)
        ratio = st.one_of(CONTRACTIONS, LARGE_DENOMINATORS)
        maps = draw(st.lists(st.tuples(ratio, offset), min_size=2, max_size=4))
    elif kind == "degenerate":
        # every map fixes p, so the hull is the single point p
        p = F(draw(st.integers(-2, 6)), draw(st.integers(1, 6)))
        ratios = draw(st.lists(st.sampled_from([F(1, 2), F(1, 3), F(1, 5)]),
                               min_size=2, max_size=3))
        maps = [(str(r), str(p * (1 - r))) for r in ratios]
    elif kind == "overlap":
        # a step below the ratio overlaps, a step equal to it touches
        r = draw(st.sampled_from([F(1, 2), F(1, 3), F(1, 4)]))
        step = draw(st.sampled_from([F(1, 8), F(1, 6), F(1, 4), F(1, 3)]))
        maps = [(str(r), str(i * step)) for i in range(draw(st.integers(2, 4)))]
    else:
        params = draw(st.lists(SMALL_RATIONALS, min_size=2, max_size=2))
        header = " " + draw(st.sampled_from([
            f"family=three-map rho={params[0]} lambda={params[1]}",
            f"family=equal-gap ratios={params[0]},{params[1]}",
            f"family=two-map alpha={params[0]} beta={params[1]}",
            f"family=grid beta={params[0]}",
            "family=four-map-example",
            "family=nonesuch",
        ]))
        maps = draw(st.lists(st.tuples(SMALL_RATIONALS, SMALL_RATIONALS),
                             min_size=2, max_size=4))
    lines = [f"m={len(maps) if m is None else m}{header}"]
    lines += [f"{r} {t}" for r, t in maps]
    return "\n".join(lines).encode("utf-8")


MAP_RATIOS = st.sampled_from(
    ["1/2", "-1/2", "1/3", "-1/3", "1/4", "1/5", "-1/5", "1/9", "1/25", "2/3",
     "1/10", "-1/100", "0", "1", "-1", "3/2"]
)
DEPTHS = st.sampled_from(["2", "4", "1", "3", "8", "100000000", "0", "-1"])
# the check_embedding branch tree is not yet metered by the budget, so
# branch depths stay at most 3 to keep every case quick
BRANCH_DEPTHS = st.sampled_from(["2", "3", "1", "0"])


@st.composite
def command_args(draw, path):
    command = draw(st.sampled_from(["check", "decompose", "enumerate", "cover"]))
    common = ["--budget", draw(st.sampled_from(["4096", "100", "0", "-1"])),
              "--format", draw(st.sampled_from(["text", "record"]))]
    if command == "cover":
        return ["cover", path, "--depth", draw(DEPTHS)] + common
    engine = ["--point-depth", draw(DEPTHS), "--cover-depth", draw(DEPTHS),
              "--branch-depth", draw(BRANCH_DEPTHS)]
    if command == "enumerate":
        return ["enumerate", path, "--ratio", draw(MAP_RATIOS)] + engine + common
    offset = draw(st.one_of(SMALL_RATIONALS, st.just("-1/5")))
    args = [command, path, draw(MAP_RATIOS), offset] + engine + common
    if command == "decompose":
        args += ["--max-steps", draw(st.sampled_from(["64", "2", "1", "0", "-1"]))]
    return args


@st.composite
def malformed_args(draw, path):
    """Well-formed arguments with one defect: a bad rational or integer
    in place of any argument, an unknown flag or a flag missing its value,
    or a dropped argument."""
    args = draw(command_args(path))
    i = draw(st.integers(0, len(args) - 1))
    defect = draw(st.sampled_from(["value", "flag", "drop"]))
    if defect == "value":
        args[i] = draw(st.sampled_from(["x", "1.5", "1/0", "", "1/2/3", "x/y"]))
    elif defect == "flag":
        flag = st.sampled_from(["--bogus", "-z", "--depth=", "--point-depth"])
        args.insert(i, draw(flag))
    else:
        del args[i]
    return args


class TestExitContract:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(spec=spec_bytes(), data=st.data())
    def test_every_input_gets_a_contract_exit_code(self, tmp_path, spec, data):
        path = tmp_path / "fuzz.ifs"
        path.write_bytes(spec)
        argv = data.draw(command_args(str(path)))
        code = main(argv)
        assert type(code) is int and 0 <= code <= 4

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_malformed_arguments_are_usage_errors(self, three_spec, capsys, data):
        argv = data.draw(malformed_args(three_spec))
        assert main(argv) == 2
        capsys.readouterr()
