from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim.errors import EmptySet, NonpositiveDelta
from selfsim.intervals import (
    Interval,
    IntervalSet,
    LatticeSet,
    intersect_shifted,
    lattice_intersect_shifted,
)


def iset(*pairs):
    return IntervalSet(tuple(Interval(F(a), F(b)) for a, b in pairs))


class TestInterval:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))

    def test_point_interval_is_legal(self):
        iv = Interval(F(1, 2), F(1, 2))
        assert iv.length == 0
        assert iv.contains(F(1, 2))

    def test_containment(self):
        iv = Interval(F(0), F(1))
        assert iv.contains(F(0)) and iv.contains(F(1))
        assert not iv.contains(F(2))
        assert iv.contains_interval(Interval(F(1, 4), F(1, 2)))
        assert not iv.contains_interval(Interval(F(1, 2), F(2)))
        assert iv.strictly_contains(F(1, 2))
        assert not iv.strictly_contains(F(0))


class TestCanonicalization:
    def test_sorts_and_merges_overlap(self):
        s = iset((F(1, 2), 1), (0, F(3, 4)))
        assert s.parts == (Interval(F(0), F(1)),)

    def test_touching_closed_intervals_merge(self):
        s = iset((0, F(1, 2)), (F(1, 2), 1))
        assert len(s) == 1

    def test_disjoint_parts_stay_separate(self):
        s = iset((0, F(1, 5)), (F(4, 5), 1))
        assert len(s) == 2

    def test_point_merges_into_adjacent(self):
        s = iset((0, F(1, 2)), (F(1, 2), F(1, 2)))
        assert s.parts == (Interval(F(0), F(1, 2)),)

    def test_empty(self):
        s = IntervalSet(())
        assert s.is_empty and len(s) == 0


class TestMembershipAndAlgebra:
    def test_contains_point(self):
        s = iset((0, F(1, 5)), (F(4, 5), 1))
        assert s.contains_point(F(0))
        assert s.contains_point(F(1, 5))
        assert not s.contains_point(F(1, 2))
        assert s.contains_point(F(9, 10))
        assert not s.contains_point(F(-1))
        assert not s.contains_point(F(2))

    def test_includes(self):
        a = iset((0, 1))
        b = iset((0, F(1, 4)), (F(1, 2), 1))
        assert a.includes(b)
        assert not b.includes(a)
        assert b.includes(iset((F(1, 8), F(1, 8))))

    def test_union(self):
        a = iset((0, F(1, 5)))
        b = iset((F(1, 5), F(2, 5)), (F(4, 5), 1))
        assert (a | b).parts == (
            Interval(F(0), F(2, 5)),
            Interval(F(4, 5), F(1)),
        )

    def test_intersect(self):
        a = iset((0, F(1, 2)), (F(3, 4), 1))
        b = iset((F(1, 4), F(7, 8)))
        assert (a & b).parts == (
            Interval(F(1, 4), F(1, 2)),
            Interval(F(3, 4), F(7, 8)),
        )

    def test_intersect_touching_point(self):
        a = iset((0, F(1, 2)))
        b = iset((F(1, 2), 1))
        assert (a & b).parts == (Interval(F(1, 2), F(1, 2)),)

    def test_hull_and_total_length(self):
        s = iset((0, F(1, 5)), (F(4, 5), 1))
        assert s.hull() == Interval(F(0), F(1))
        assert s.total_length() == F(2, 5)
        with pytest.raises(EmptySet):
            IntervalSet(()).hull()


class TestGaps:
    def test_gaps_of_two_parts(self):
        s = iset((0, F(1, 5)), (F(4, 5), 1))
        assert s.gaps() == (Interval(F(1, 5), F(4, 5)),)
        assert s.largest_gap() == F(3, 5)
        assert s.largest_gap_interval() == Interval(F(1, 5), F(4, 5))

    def test_single_interval_is_gapless(self):
        s = iset((0, 1))
        assert s.gaps() == ()
        assert s.largest_gap() == 0
        assert s.largest_gap_interval() is None

    def test_largest_gap_leftmost_tie(self):
        s = iset((0, F(1, 8)), (F(2, 8), F(3, 8)), (F(4, 8), F(5, 8)))
        assert s.largest_gap() == F(1, 8)
        assert s.largest_gap_interval() == Interval(F(1, 8), F(2, 8))

    def test_gap_containing_is_strict(self):
        s = iset((0, F(1, 5)), (F(4, 5), 1))
        assert s.gap_containing(F(1, 2)) == Interval(F(1, 5), F(4, 5))
        assert s.gap_containing(F(1, 5)) is None
        assert s.gap_containing(F(4, 5)) is None
        assert s.gap_containing(F(1, 10)) is None
        # outside the hull there is no gap
        assert s.gap_containing(F(2)) is None
        assert s.gap_containing(F(-1)) is None

    def test_gap_queries_on_empty_raise(self):
        with pytest.raises(EmptySet):
            IntervalSet(()).gaps()
        with pytest.raises(EmptySet):
            IntervalSet(()).largest_gap()


class TestDist:
    def test_separated(self):
        assert iset((0, F(1, 5))).dist(iset((F(4, 5), 1))) == F(3, 5)

    def test_touching_is_zero(self):
        assert iset((0, F(1, 2))).dist(iset((F(1, 2), 1))) == 0

    def test_overlapping_is_zero(self):
        assert iset((0, F(3, 4))).dist(iset((F(1, 4), 1))) == 0

    def test_multi_part_minimum(self):
        a = iset((0, F(1, 10)), (F(1, 2), F(6, 10)))
        b = iset((F(7, 10), 1))
        assert a.dist(b) == F(1, 10)

    def test_symmetric(self):
        a = iset((0, F(1, 5)))
        b = iset((F(1, 2), F(3, 5)), (F(9, 10), 1))
        assert a.dist(b) == b.dist(a) == F(3, 10)

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            iset((0, 1)).dist(IntervalSet(()))


class TestNeighborhood:
    def test_two_components(self):
        s = iset((0, F(1, 5)), (F(4, 5), 1))
        n = s.neighborhood(F(1, 10))
        assert n.is_open
        assert n.component_count == 2
        assert not n.is_single_interval
        assert n.closure.parts == (
            Interval(F(-1, 10), F(3, 10)),
            Interval(F(7, 10), F(11, 10)),
        )

    def test_merges_into_one(self):
        s = iset((0, F(1, 5)), (F(4, 5), 1))
        n = s.neighborhood(F(2, 5))
        assert n.component_count == 1
        assert n.is_single_interval

    def test_open_touching_does_not_merge(self):
        # radius exactly half the gap: open components touch but stay apart
        s = iset((0, F(1, 5)), (F(4, 5), 1))
        n = s.neighborhood(F(3, 10))
        assert n.component_count == 2

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(NonpositiveDelta):
            iset((0, 1)).neighborhood(F(0))
        with pytest.raises(NonpositiveDelta):
            iset((0, 1)).neighborhood(F(-1))


class TestAffine:
    def test_scale_and_shift(self):
        s = iset((0, F(1, 5)), (F(4, 5), 1))
        t = s.affine(F(1, 2), F(1, 4))
        assert t.parts == (
            Interval(F(1, 4), F(7, 20)),
            Interval(F(13, 20), F(3, 4)),
        )

    def test_negative_ratio_reverses(self):
        s = iset((0, F(1, 5)), (F(4, 5), 1))
        t = s.affine(F(-1), F(1))
        assert t == s  # this set is symmetric about 1/2

    def test_negative_ratio_general(self):
        s = iset((0, F(1, 4)))
        assert s.affine(F(-2), F(0)).parts == (Interval(F(-1, 2), F(0)),)

    def test_translate(self):
        s = iset((0, F(1, 5)))
        assert s.translate(F(1)).parts == (Interval(F(1), F(6, 5)),)


class TestIntersectShifted:
    def test_matches_explicit_translation(self):
        a = iset((0, F(1, 2)), (F(3, 4), 1))
        b = iset((0, F(1, 5)), (F(4, 5), 1))
        shift = F(1, 5)
        assert intersect_shifted(a, b, shift) == a & b.translate(shift)

    def test_keeps_touching_point(self):
        a = iset((F(1, 2), 1))
        b = iset((0, F(1, 4)))
        assert intersect_shifted(a, b, F(1, 4)).parts == (
            Interval(F(1, 2), F(1, 2)),
        )

    def test_empty_result(self):
        a = iset((0, F(1, 10)))
        b = iset((0, F(1, 10)))
        assert intersect_shifted(a, b, F(1, 2)).is_empty


finite_fractions = st.fractions(
    min_value=F(-2), max_value=F(2), max_denominator=16
)


@st.composite
def interval_sets(draw):
    endpoints = draw(
        st.lists(finite_fractions, min_size=0, max_size=8)
    )
    pairs = []
    for i in range(0, len(endpoints) - 1, 2):
        a, b = sorted(endpoints[i : i + 2])
        pairs.append(Interval(a, b))
    return IntervalSet(tuple(pairs))


@given(interval_sets())
@settings(max_examples=150, deadline=None)
def test_canonical_invariant(s):
    parts = s.parts
    for prev, nxt in zip(parts, parts[1:]):
        assert prev.hi < nxt.lo  # sorted, disjoint, non-touching


@given(interval_sets(), interval_sets(), finite_fractions)
@settings(max_examples=150, deadline=None)
def test_union_intersect_membership(a, b, x):
    assert (a | b).contains_point(x) == (a.contains_point(x) or b.contains_point(x))
    assert (a & b).contains_point(x) == (a.contains_point(x) and b.contains_point(x))


@given(interval_sets(), interval_sets(), finite_fractions)
@settings(max_examples=100, deadline=None)
def test_intersect_shifted_agrees(a, b, shift):
    assert intersect_shifted(a, b, shift) == a & b.translate(shift)


def lattice_scale(*sets, extra=()):
    return lcm(
        *(x.denominator for s in sets for p in s for x in (p.lo, p.hi)),
        *(x.denominator for x in extra),
    )


class TestLatticeSet:
    def test_round_trip(self):
        s = iset((0, F(1, 5)), (F(3, 10), F(1, 2)))
        lat = LatticeSet.from_set(s, 20)
        assert (lat.los, lat.his) == ((0, 6), (4, 10))
        assert lat.to_set() == s
        assert lat.largest_gap() == F(1, 10)

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError):
            LatticeSet.from_set(iset((0, F(1, 3))), 10)

    def test_empty_has_no_gap(self):
        with pytest.raises(EmptySet):
            LatticeSet(1, (), ()).largest_gap()

    def test_scale_must_divide(self):
        a = LatticeSet.from_set(iset((0, 1)), 10)
        b = LatticeSet.from_set(iset((0, F(1, 3))), 3)
        with pytest.raises(ValueError):
            lattice_intersect_shifted(a, b, 0)


@given(interval_sets(), st.lists(finite_fractions, max_size=6), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_lattice_location_agrees(s, extra, spread):
    """Every endpoint is queried exactly, as reduced and as unreduced pairs,
    on a lattice finer than needed."""
    lat = LatticeSet.from_set(s, lattice_scale(s) * spread)
    assert lat.to_set() == s
    queries = [x for p in s for x in (p.lo, p.hi)] + extra
    for x in queries:
        for k in (1, spread + 1):
            num, den = x.numerator * k, x.denominator * k
            assert lat.contains(num, den) == s.contains_point(x)
            if s.is_empty:
                assert lat.gap_index(num, den) == 0
                continue
            idx = lat.gap_index(num, den)
            assert (lat.gap(idx) if idx else None) == s.gap_containing(x)
    if s:
        assert lat.largest_gap() == s.largest_gap()


@given(interval_sets(), interval_sets(), finite_fractions, st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_lattice_intersect_coarser_b_agrees(a, b, shift, k):
    """b on a lattice k times coarser than a's, as deep covers are."""
    coarse = lattice_scale(b)
    fine = lcm(coarse * k, lattice_scale(a, extra=(shift,)))
    result = lattice_intersect_shifted(
        LatticeSet.from_set(a, fine),
        LatticeSet.from_set(b, coarse),
        shift.numerator * (fine // shift.denominator),
    )
    assert result.scale == fine
    assert result.to_set() == a & b.translate(shift)
