from fractions import Fraction as F

import pytest

from selfsim.errors import AlphabetMismatch, ParameterOutOfRange, SelfsimError
from selfsim.intervals import Interval
from selfsim.similitudes import (
    IDENTITY,
    IFS,
    AsymmetricWitness,
    Similitude,
    SymmetricCertified,
    Word,
    certified_reflection,
    equal_gap,
    four_map_example,
    homogeneous_grid,
    is_symmetric,
    mirror,
    mirror_word,
    reflection_about,
    similarity_dimension,
    three_map,
    two_map,
    word_map,
)


class TestSimilitude:
    def test_apply(self):
        f = Similitude(F(1, 5), F(3, 10))
        assert f(F(0)) == F(3, 10)
        assert f(F(1)) == F(1, 2)

    def test_compose_is_left_application(self):
        f = Similitude(F(1, 2), F(1))
        g = Similitude(F(3), F(-1))
        assert f.compose(g)(F(2)) == f(g(F(2)))

    def test_invert(self):
        f = Similitude(F(1, 5), F(3, 10))
        assert f.invert().compose(f) == IDENTITY
        assert f.compose(f.invert()) == IDENTITY

    def test_zero_ratio_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            Similitude(F(0), F(1))

    def test_fixed_point(self):
        f = Similitude(F(1, 5), F(3, 10))
        x = f.fixed_point
        assert f(x) == x == F(3, 8)

    def test_map_interval_handles_negative_ratio(self):
        f = Similitude(F(-1, 2), F(1))
        assert f.map_interval(Interval(F(0), F(1))) == Interval(F(1, 2), F(1))

    def test_is_contraction(self):
        assert Similitude(F(1, 2), F(0)).is_contraction
        assert Similitude(F(-1, 2), F(0)).is_contraction
        assert not Similitude(F(1), F(0)).is_contraction
        assert not Similitude(F(3, 2), F(0)).is_contraction

    def test_reflection_about(self):
        sigma = reflection_about(F(1, 2))
        assert sigma(F(0)) == F(1)
        assert sigma.compose(sigma) == IDENTITY


class TestWord:
    def test_validates_letters(self):
        with pytest.raises(ValueError):
            Word(3, (0,))
        with pytest.raises(ValueError):
            Word(3, (4,))
        with pytest.raises(ParameterOutOfRange):
            Word(1, ())

    def test_str(self):
        assert str(Word(3, (2, 3))) == "2 3"
        assert str(Word(3, ())) == "e"

    def test_mirror_word(self):
        assert mirror_word(Word(3, (1, 3, 2))).letters == (3, 1, 2)
        assert mirror_word(mirror_word(Word(4, (2, 4)))) == Word(4, (2, 4))


class TestIFS:
    def test_hull_from_fixed_points(self):
        assert three_map(F(1, 5), F(3, 10)).hull == Interval(F(0), F(1))
        assert four_map_example().hull == Interval(F(0), F(2, 3))

    def test_rejects_single_map(self):
        with pytest.raises(ParameterOutOfRange):
            IFS((Similitude(F(1, 2), F(0)),))

    def test_rejects_nonpositive_or_expanding_ratio(self):
        for r in (F(-1, 2), F(1), F(2)):
            with pytest.raises(ParameterOutOfRange):
                IFS((Similitude(r, F(0)), Similitude(F(1, 3), F(1, 2))))

    def test_equality_ignores_family_hull_consistency(self):
        a = three_map(F(1, 5), F(3, 10))
        b = IFS(a.maps, family="three-map")
        assert a == b and hash(a) == hash(b)

    def test_word_map(self):
        ifs = three_map(F(1, 5), F(3, 10))
        assert word_map(ifs, ifs.word(2, 3)) == Similitude(F(1, 25), F(23, 50))
        assert word_map(ifs, ifs.empty_word()) == IDENTITY

    def test_word_map_alphabet_mismatch(self):
        ifs = three_map(F(1, 5), F(3, 10))
        with pytest.raises(AlphabetMismatch):
            word_map(ifs, Word(4, (1,)))


class TestFamilies:
    def test_three_map_range_errors_name_the_inequality(self):
        with pytest.raises(ParameterOutOfRange, match="rho < 1/3"):
            three_map(F(1, 3), F(1, 3))
        with pytest.raises(ParameterOutOfRange, match="0 < rho"):
            three_map(F(0), F(1, 4))
        with pytest.raises(ParameterOutOfRange, match="rho <= lambda"):
            three_map(F(1, 5), F(1, 10))
        with pytest.raises(ParameterOutOfRange, match="lambda <= 1 - 2\\*rho"):
            three_map(F(1, 5), F(7, 10))

    def test_three_map_boundaries_allowed(self):
        assert three_map(F(1, 4), F(1, 4)).family == "three-map"
        assert three_map(F(1, 5), F(3, 5)).maps[1].offset == F(3, 5)

    def test_equal_gap_layout(self):
        ifs = equal_gap((F(1, 4), F(1, 3)))
        # gap = (1 - 7/12) / 1 = 5/12
        assert ifs.maps == (
            Similitude(F(1, 4), F(0)),
            Similitude(F(1, 3), F(2, 3)),
        )
        assert ifs.hull == Interval(F(0), F(1))

    def test_equal_gap_three_ratios(self):
        ifs = equal_gap((F(1, 5), F(1, 5), F(1, 5)))
        # gamma = (2/5) / 2 = 1/5
        assert [f.offset for f in ifs.maps] == [F(0), F(2, 5), F(4, 5)]

    def test_equal_gap_rejects_fat_systems(self):
        with pytest.raises(ParameterOutOfRange):
            equal_gap((F(1, 2), F(1, 2)))

    def test_two_map_anchors(self):
        ifs = two_map(F(1, 4), F(1, 3))
        assert ifs.maps == (
            Similitude(F(1, 4), F(0)),
            Similitude(F(1, 3), F(2, 3)),
        )

    def test_two_map_allows_equal_ratios(self):
        assert two_map(F(1, 4), F(1, 4)).family == "two-map"

    def test_grid_layout(self):
        ifs = homogeneous_grid(F(1, 4), 3)
        assert [f.offset for f in ifs.maps] == [F(0), F(3, 8), F(3, 4)]

    def test_grid_rejects_beta_at_mesh(self):
        with pytest.raises(ParameterOutOfRange, match="beta < 1/m"):
            homogeneous_grid(F(1, 3), 3)

    def test_four_map_layout(self):
        ifs = four_map_example()
        assert [f.offset for f in ifs.maps] == [F(0), F(1, 10), F(1, 2), F(3, 5)]
        assert all(f.ratio == F(1, 10) for f in ifs.maps)


class TestMirror:
    def test_three_map_mirror_swaps_lambda(self):
        ifs = three_map(F(1, 5), F(1, 2))
        mirrored, sigma = mirror(ifs)
        assert mirrored == three_map(F(1, 5), F(3, 10))
        assert sigma == reflection_about(F(1, 2))

    def test_mirror_is_involution(self):
        ifs = three_map(F(1, 5), F(2, 5))
        mirrored, _ = mirror(ifs)
        assert mirror(mirrored)[0] == ifs

    def test_mirror_built_once_per_system(self):
        ifs = three_map(F(1, 5), F(1, 2))
        assert mirror(ifs) is mirror(ifs)

    def test_equal_gap_mirror_reverses_ratios(self):
        ifs = equal_gap((F(1, 4), F(1, 3)))
        mirrored, _ = mirror(ifs)
        assert [f.ratio for f in mirrored.maps] == [F(1, 3), F(1, 4)]
        assert mirrored.family == "equal-gap"


class TestSymmetry:
    def test_certified_reflection(self):
        assert certified_reflection(four_map_example()) == reflection_about(F(1, 3))
        assert certified_reflection(three_map(F(1, 5), F(3, 10))) is None

    def test_symmetric_three_map_certified(self):
        verdict = is_symmetric(three_map(F(1, 5), F(2, 5)))
        assert verdict == SymmetricCertified(center=F(1, 2))

    def test_four_map_certified_at_third(self):
        verdict = is_symmetric(four_map_example())
        assert verdict == SymmetricCertified(center=F(1, 3))

    def test_asymmetric_three_map_witnessed(self):
        verdict = is_symmetric(three_map(F(1, 5), F(3, 10)))
        assert isinstance(verdict, AsymmetricWitness)
        assert verdict.depth <= 2
        # the witness reflects to a point strictly inside the named gap
        reflected = F(1) - verdict.point
        assert verdict.gap.lo < reflected < verdict.gap.hi

    def test_touching_three_map_witnessed_at_depth_two(self):
        verdict = is_symmetric(three_map(F(1, 4), F(1, 4)))
        assert isinstance(verdict, AsymmetricWitness)

    def test_two_map_distinct_ratios_witnessed(self):
        verdict = is_symmetric(two_map(F(1, 4), F(1, 3)))
        assert isinstance(verdict, AsymmetricWitness)

    def test_grid_certified(self):
        verdict = is_symmetric(homogeneous_grid(F(1, 4), 3))
        assert verdict == SymmetricCertified(center=F(1, 2))


class TestSimilarityDimension:
    def test_grid_quarter_two_is_exact_half(self):
        enclosure = similarity_dimension(homogeneous_grid(F(1, 4), 2), F(1, 10**12))
        assert enclosure.contains(F(1, 2))
        assert enclosure.length <= F(1, 10**12)

    def test_three_map_dimension_nests_under_tightening(self):
        # s solves 3*(1/5)^s = 1 (about 0.6826); tighter tolerances must
        # refine within the looser enclosure
        ifs = three_map(F(1, 5), F(3, 10))
        enclosure = similarity_dimension(ifs, F(1, 10**6))
        assert enclosure.length <= F(1, 10**6)
        assert F(0) < enclosure.lo <= enclosure.hi < F(1)
        tighter = similarity_dimension(ifs, F(1, 10**8))
        assert enclosure.lo <= tighter.lo and tighter.hi <= enclosure.hi
        assert F(68, 100) < tighter.lo and tighter.hi < F(69, 100)

    def test_two_map_mixed_ratios(self):
        ifs = two_map(F(1, 4), F(1, 3))
        enclosure = similarity_dimension(ifs, F(1, 10**6))
        assert enclosure.length <= F(1, 10**6)
        assert 0 < enclosure.lo <= enclosure.hi < 1

    def test_tol_must_be_positive(self):
        with pytest.raises(ParameterOutOfRange, match="tol > 0"):
            similarity_dimension(four_map_example(), F(0))

    def test_four_map_dimension_below_one(self):
        enclosure = similarity_dimension(four_map_example(), F(1, 10**6))
        # 4*(1/10)^s = 1 at s = log 4 / log 10 = 0.602...
        assert F(6, 10) < enclosure.hi < F(61, 100)
