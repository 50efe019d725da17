from fractions import Fraction as F

import pytest

from selfsim.errors import ParameterOutOfRange
from selfsim.similitudes import equal_gap, three_map
from selfsim.verify import (
    Depths,
    Grid,
    TwoMap,
    TheoremId,
    perturb_expected,
    report_lines,
    report_record,
    verify_corollary,
    verify_equal_gap,
    verify_example_four_map,
    verify_three_map,
    words_with_ratio_product,
)


class TestWordsWithRatioProduct:
    def test_homogeneous_lengths(self):
        ifs = three_map(F(1, 5), F(3, 10))
        words = words_with_ratio_product(ifs, F(1, 25))
        assert len(words) == 9
        assert all(len(w) == 2 for w in words)

    def test_mixed_lengths(self):
        ifs = equal_gap((F(1, 4), F(1, 16)))
        words = words_with_ratio_product(ifs, F(1, 16))
        assert {w.letters for w in words} == {(1, 1), (2,)}

    def test_no_match(self):
        ifs = equal_gap((F(1, 4), F(1, 3)))
        assert words_with_ratio_product(ifs, F(1, 5)) == []

    def test_target_range_checked(self):
        ifs = three_map(F(1, 5), F(3, 10))
        with pytest.raises(ParameterOutOfRange):
            words_with_ratio_product(ifs, F(1))


class TestThreeMap:
    def test_generic_passes(self):
        report = verify_three_map(F(1, 5), F(3, 10), k_max=2)
        assert report.theorem_id is TheoremId.Thm1_1i
        assert report.passed
        plus = [r for r in report.rows if r.ratio > 0]
        minus = [r for r in report.rows if r.ratio < 0]
        assert [len(r.expected) for r in plus] == [3, 9]
        assert all(r.expected == () for r in minus)

    def test_symmetric_variant(self):
        report = verify_three_map(F(1, 5), F(2, 5), k_max=2)
        assert report.theorem_id is TheoremId.Thm1_1ii
        assert report.passed
        minus = [r for r in report.rows if r.ratio < 0]
        assert [len(r.expected) for r in minus] == [3, 9]

    def test_mirror_variant(self):
        report = verify_three_map(F(1, 5), F(1, 2), k_max=1)
        assert report.passed
        labels = [c.label for c in report.checks]
        assert any("mirror" in lbl for lbl in labels)

    def test_bad_parameters_propagate(self):
        with pytest.raises(ParameterOutOfRange):
            verify_three_map(F(1, 2), F(3, 10))


class TestEqualGap:
    def test_two_ratio_family(self):
        report = verify_equal_gap((F(1, 4), F(1, 3)), k_budget=2)
        assert report.theorem_id is TheoremId.Thm1_2
        assert report.passed
        minus = [r for r in report.rows if r.ratio < 0]
        assert all(r.expected == () for r in minus)

    def test_palindromic_family_gets_reflections(self):
        report = verify_equal_gap((F(1, 4), F(1, 4)), k_budget=2)
        assert report.passed
        minus = [r for r in report.rows if r.ratio < 0]
        assert any(r.expected for r in minus)


class TestCorollary:
    def test_two_map(self):
        report = verify_corollary(TwoMap(F(1, 4), F(1, 3)), k_max=2)
        assert report.theorem_id is TheoremId.Cor1_3i
        assert report.passed

    def test_two_map_equal_ratios_rejected(self):
        with pytest.raises(ParameterOutOfRange, match="alpha != beta violated"):
            verify_corollary(TwoMap(F(1, 3), F(1, 3)), k_max=1)

    def test_grid(self):
        report = verify_corollary(Grid(F(1, 4), 3), k_max=1)
        assert report.theorem_id is TheoremId.Cor1_3ii
        assert report.passed
        plus = next(r for r in report.rows if r.ratio > 0)
        assert tuple(f.offset for f in plus.expected) == (F(0), F(3, 8), F(3, 4))
        minus = next(r for r in report.rows if r.ratio < 0)
        assert tuple(f.offset for f in minus.expected) == (F(1, 4), F(5, 8), F(1))

    def test_unknown_spec_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            verify_corollary(object(), k_max=1)


class TestFourMap:
    def test_full_harness(self):
        report = verify_example_four_map()
        assert report.theorem_id is TheoremId.Example1_4
        assert report.passed
        labels = [c.label for c in report.checks]
        assert sum("scaled union" in lbl for lbl in labels) == 6
        assert any("g1" in lbl for lbl in labels)
        assert any("g2" in lbl for lbl in labels)
        rows = {
            r.label: tuple(f.offset for f in r.expected) for r in report.rows
        }
        assert rows["+1/10"] == (
            F(0), F(1, 20), F(1, 10), F(1, 2), F(11, 20), F(3, 5),
        )
        assert rows["-1/10"] == (
            F(1, 15), F(7, 60), F(1, 6), F(17, 30), F(37, 60), F(2, 3),
        )


class TestReportMachinery:
    def test_perturb_flips_passed(self):
        report = verify_three_map(F(1, 5), F(3, 10), k_max=1)
        assert report.passed
        broken = perturb_expected(report)
        assert not broken.passed
        assert report.passed  # original untouched

    def test_unresolved_maps_fail_the_report(self):
        report = verify_three_map(
            F(1, 5), F(3, 10), k_max=1, depths=Depths(1, 1, 1)
        )
        assert not report.passed
        assert any(
            "resolved" in c.label and not c.ok for c in report.checks
        )

    def test_report_lines_shape(self):
        report = verify_three_map(F(1, 5), F(3, 10), k_max=1)
        lines = report_lines(report)
        assert lines[0].startswith("[Thm1_1i]")
        assert lines[0].endswith("PASS")
        assert any("+1/5" in ln and "expected 3" in ln for ln in lines)

    def test_report_lines_fail_marker(self):
        lines = report_lines(perturb_expected(verify_three_map(F(1, 5), F(3, 10), k_max=1)))
        assert lines[0].endswith("FAIL")

    def test_report_record_round_trip(self):
        import json

        report = verify_corollary(Grid(F(1, 4), 3), k_max=1)
        rec = report_record(report)
        text = json.dumps(rec)
        back = json.loads(text)
        assert back["theorem_id"] == "Cor1_3ii"
        assert back["passed"] is True
        assert back["rows"][0]["expected"] == back["rows"][0]["actual"]

    def test_record_depths_leave_out_the_budget(self):
        report = verify_three_map(
            F(1, 5), F(3, 10), k_max=1, depths=Depths(4, 8, 6, 10**5)
        )
        assert report.passed
        assert report_record(report)["depths"] == {
            "point_depth": 4, "cover_depth": 8, "branch_depth": 6,
        }
