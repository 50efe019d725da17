import dataclasses
import importlib
import itertools
from fractions import Fraction as F

import pytest

from selfsim.cli import main
from selfsim.cover import (
    DEFAULT_BUDGET,
    cover,
    exact_points,
    family_gap,
    lattice_cover,
    stable_gap_check,
)
from selfsim.errors import (
    BudgetExceeded,
    ParameterOutOfRange,
    SelfsimError,
    UntaggedFamily,
)
from selfsim.intervals import Interval, IntervalSet
from selfsim.similitudes import (
    IFS,
    Similitude,
    Word,
    equal_gap,
    four_map_example,
    homogeneous_grid,
    three_map,
    two_map,
    word_map,
)

# the six paper systems and an overlapping ratio-1/2 lattice system
KERNEL_SYSTEMS = {
    "three-map-lam-3-10": three_map(F(1, 5), F(3, 10)),
    "three-map-lam-2-5": three_map(F(1, 5), F(2, 5)),
    "equal-gap": equal_gap((F(1, 4), F(1, 3))),
    "two-map": two_map(F(1, 4), F(1, 3)),
    "grid": homogeneous_grid(F(1, 4), 3),
    "four-map": four_map_example(),
    "lattice-ratio-half": IFS(tuple(Similitude(F(1, 2), F(k, 8)) for k in range(5))),
}


class TestCover:
    def test_depth_zero_is_hull(self):
        ifs = three_map(F(1, 5), F(3, 10))
        report = cover(ifs, 0)
        assert report.parts.parts == (Interval(F(0), F(1)),)
        assert report.piece_count == 1
        assert report.largest_gap == 0

    def test_depth_one_three_map(self):
        report = cover(three_map(F(1, 5), F(3, 10)), 1)
        assert report.parts.parts == (
            Interval(F(0), F(1, 5)),
            Interval(F(3, 10), F(1, 2)),
            Interval(F(4, 5), F(1)),
        )
        assert report.piece_count == 3
        assert report.largest_gap == F(3, 10)

    def test_depth_two_piece_count(self):
        report = cover(three_map(F(1, 5), F(3, 10)), 2)
        assert report.piece_count == 9
        assert report.depth == 2

    def test_touching_pieces_merge(self):
        # lambda = rho: first two cylinders share an endpoint
        report = cover(three_map(F(1, 4), F(1, 4)), 1)
        assert report.parts.parts == (
            Interval(F(0), F(1, 2)),
            Interval(F(3, 4), F(1)),
        )
        assert report.piece_count == 2

    def test_nested_refinement(self):
        ifs = four_map_example()
        outer = cover(ifs, 2).parts
        inner = cover(ifs, 3).parts
        assert outer.includes(inner)

    def test_four_map_depth_one(self):
        report = cover(four_map_example(), 1)
        assert report.piece_count == 4
        assert report.largest_gap == F(1, 3)

    def test_negative_depth_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            cover(three_map(F(1, 5), F(3, 10)), -1)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded) as err:
            cover(four_map_example(), 8, budget=10)
        assert err.value.requested == 4**8
        assert err.value.budget == 10


class TestLatticeKernel:
    @pytest.mark.parametrize("name", KERNEL_SYSTEMS)
    def test_matches_union_of_word_images(self, name):
        ifs = KERNEL_SYSTEMS[name]
        for depth in range(6):
            images = IntervalSet(
                word_map(ifs, Word(ifs.arity, letters)).map_interval(ifs.hull)
                for letters in itertools.product(
                    range(1, ifs.arity + 1), repeat=depth
                )
            )
            report = cover(ifs, depth)
            assert report.parts == images
            assert report.largest_gap == images.largest_gap()
            assert report.piece_count == len(images)
            assert lattice_cover(ifs, depth) is report.parts

    def test_memo_cover_is_immutable(self):
        # cover() hands out the memo's own set, so no caller may change it
        parts = cover(three_map(F(1, 5), F(3, 10)), 2).parts
        for field in ("scale", "los", "his"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(parts, field, getattr(parts, field))

    def test_scale_is_hull_times_denominator_power(self):
        # hull [0, 2/3] gives H = 3; ratios and offsets give D = 10
        ifs = four_map_example()
        assert [lattice_cover(ifs, n).scale for n in range(4)] == [3, 30, 300, 3000]

    def test_budget_checked_before_build(self):
        ifs = three_map(F(1, 7), F(2, 7))
        with pytest.raises(BudgetExceeded):
            lattice_cover(ifs, 9, budget=3**8)
        with pytest.raises(BudgetExceeded):
            exact_points(ifs, 9, budget=3**8)
        assert "covers" not in ifs._memo and "points" not in ifs._memo

    def test_example_builds_each_cover_once(self, capsys, monkeypatch):
        """verify-paper --only example1_4 builds the four-map covers of
        depths 0..8 once each, however often it reads them."""
        # the package attribute selfsim.cover is the function cover, so
        # the modules are fetched by their import path
        cover_module = importlib.import_module("selfsim.cover")
        verify_module = importlib.import_module("selfsim.verify")
        systems, built = [], []
        build = cover_module._next_cover

        def make_system():
            systems.append(four_map_example())
            return systems[-1]

        def counting_build(ifs, prev):
            built.append(ifs)
            return build(ifs, prev)

        monkeypatch.setattr(verify_module, "four_map_example", make_system)
        monkeypatch.setattr(cover_module, "_next_cover", counting_build)
        assert main(["verify-paper", "--only", "example1_4"]) == 0
        assert len(systems) == 1
        assert len(systems[0]._memo["covers"]) == 9
        assert len(built) == 9 and all(ifs is systems[0] for ifs in built)


class TestExactPoints:
    def test_contains_generator_fixed_points(self):
        ifs = three_map(F(1, 5), F(3, 10))
        pts = exact_points(ifs, 0)
        assert F(0) in pts and F(1) in pts
        assert pts == tuple(sorted(pts))

    def test_depth_one_includes_endpoint_images(self):
        ifs = three_map(F(1, 5), F(3, 10))
        pts = exact_points(ifs, 1)
        for f in ifs.maps:
            assert f(F(0)) in pts
            assert f(F(1)) in pts

    def test_points_lie_in_every_cover(self):
        ifs = two_map(F(1, 4), F(1, 3))
        pts = exact_points(ifs, 3)
        for depth in range(6):
            parts = cover(ifs, depth).parts
            assert all(parts.contains_point(p) for p in pts)

    def test_monotone_in_depth(self):
        ifs = four_map_example()
        assert set(exact_points(ifs, 1)) <= set(exact_points(ifs, 2))


class TestFamilyGap:
    def test_three_map_lower_range(self):
        # gaps: lambda - rho = 1/10 and 1 - 2 rho - lambda = 3/10
        assert family_gap(three_map(F(1, 5), F(3, 10))) == F(3, 10)

    def test_three_map_upper_range(self):
        assert family_gap(three_map(F(1, 5), F(3, 5))) == F(2, 5)

    def test_three_map_symmetric(self):
        assert family_gap(three_map(F(1, 5), F(2, 5))) == F(1, 5)

    def test_equal_gap(self):
        assert family_gap(equal_gap((F(1, 4), F(1, 3)))) == F(5, 12)

    def test_two_map(self):
        assert family_gap(two_map(F(1, 4), F(1, 3))) == F(5, 12)

    def test_grid(self):
        assert family_gap(homogeneous_grid(F(1, 4), 3)) == F(1, 8)

    def test_four_map(self):
        assert family_gap(four_map_example()) == F(1, 3)

    def test_untagged_rejected(self):
        ifs = IFS((Similitude(F(1, 3), F(0)), Similitude(F(1, 3), F(2, 3))))
        with pytest.raises(UntaggedFamily):
            family_gap(ifs)

    def test_matches_deep_cover_gap(self):
        for ifs in (
            three_map(F(1, 5), F(3, 10)),
            three_map(F(1, 4), F(1, 4)),
            equal_gap((F(1, 4), F(1, 3))),
            homogeneous_grid(F(1, 4), 3),
            four_map_example(),
        ):
            assert cover(ifs, 5).parts.largest_gap() == family_gap(ifs)


class TestStableGapCheck:
    def test_stable_families(self):
        assert stable_gap_check(three_map(F(1, 5), F(3, 10)), 4)
        assert stable_gap_check(four_map_example(), 3)
        assert stable_gap_check(homogeneous_grid(F(1, 4), 3), 4)

    def test_depth_must_be_positive(self):
        with pytest.raises(ParameterOutOfRange):
            stable_gap_check(four_map_example(), 0)
