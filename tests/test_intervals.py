from bisect import bisect_right
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim.errors import EmptySet, NonpositiveDelta
from selfsim.intervals import (
    Interval,
    IntervalSet,
    _intersect_shifted,
    intersect_shifted,
)


# -- reference kernel ---------------------------------------------------------
#
# The interval-union algorithms in Fraction arithmetic, as selfsim ran them
# before IntervalSet moved onto one integer lattice.  The differential tests
# below use them as the oracle for the int kernel.


def _canonical(parts):
    items = sorted(parts)
    out = []
    for part in items:
        if out and part.lo <= out[-1].hi:
            if part.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, part.hi)
        else:
            out.append(part)
    return tuple(out)


class ReferenceIntervalSet:
    """Finite union of closed rational intervals in canonical form."""

    def __init__(self, parts=()):
        self.parts = _canonical(parts)

    @classmethod
    def _from_canonical(cls, parts):
        obj = cls.__new__(cls)
        obj.parts = parts
        return obj

    def contains_point(self, x):
        idx = bisect_right(self.parts, x, key=lambda p: p.lo)
        return idx > 0 and x <= self.parts[idx - 1].hi

    def includes(self, other):
        i = 0
        for part in other.parts:
            while i < len(self.parts) and self.parts[i].hi < part.lo:
                i += 1
            if i == len(self.parts) or not self.parts[i].contains_interval(part):
                return False
        return True

    def union(self, other):
        return ReferenceIntervalSet(self.parts + other.parts)

    def intersect(self, other):
        out = []
        a, b = self.parts, other.parts
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i].lo, b[j].lo)
            hi = min(a[i].hi, b[j].hi)
            if lo <= hi:
                out.append(Interval(lo, hi))
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        return ReferenceIntervalSet._from_canonical(tuple(out))

    def gaps(self):
        if not self.parts:
            raise EmptySet("empty set has no gap structure")
        return tuple(
            Interval(a.hi, b.lo) for a, b in zip(self.parts, self.parts[1:])
        )

    def largest_gap(self):
        if not self.parts:
            raise EmptySet("empty set has no gap structure")
        widths = [b.lo - a.hi for a, b in zip(self.parts, self.parts[1:])]
        return max(widths, default=F(0))

    def largest_gap_interval(self):
        if not self.parts:
            raise EmptySet("empty set has no gap structure")
        best = None
        for gap in self.gaps():
            if best is None or gap.length > best.length:
                best = gap
        return best

    def gap_containing(self, x):
        if not self.parts:
            raise EmptySet("empty set has no gap structure")
        idx = bisect_right(self.parts, x, key=lambda p: p.lo)
        if idx == 0 or idx == len(self.parts):
            return None
        prev = self.parts[idx - 1]
        if x <= prev.hi:
            return None
        return Interval(prev.hi, self.parts[idx].lo)

    def dist(self, other):
        if not self.parts or not other.parts:
            raise EmptySet("distance needs two nonempty sets")
        a, b = self.parts, other.parts
        i = j = 0
        best = None
        while i < len(a) and j < len(b):
            gap = max(a[i].lo - b[j].hi, b[j].lo - a[i].hi, F(0))
            if best is None or gap < best:
                best = gap
            if best == 0:
                return F(0)
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        return best

    def affine(self, ratio, offset):
        if ratio == 0:
            raise ValueError("affine image needs a nonzero ratio")
        if ratio > 0:
            parts = tuple(
                Interval(ratio * p.lo + offset, ratio * p.hi + offset)
                for p in self.parts
            )
        else:
            parts = tuple(
                Interval(ratio * p.hi + offset, ratio * p.lo + offset)
                for p in reversed(self.parts)
            )
        return ReferenceIntervalSet._from_canonical(parts)

    def translate(self, offset):
        return self.affine(F(1), offset)


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

    def test_gaps_inside_one_set_do_not_count(self):
        a = iset((0, F(1, 10)), (F(2, 10), F(3, 10)))
        b = iset((1, 2), (3, 4))
        assert a.dist(b) == b.dist(a) == F(7, 10)

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
nonzero_ratios = finite_fractions.filter(lambda r: r != 0)


@st.composite
def interval_lists(draw):
    endpoints = draw(
        st.lists(finite_fractions, min_size=0, max_size=8)
    )
    pairs = []
    for i in range(0, len(endpoints) - 1, 2):
        a, b = sorted(endpoints[i : i + 2])
        pairs.append(Interval(a, b))
    return tuple(pairs)


def interval_sets():
    return interval_lists().map(IntervalSet)


@st.composite
def set_pairs(draw):
    """The same set in the int kernel, on a lattice up to 4 times finer than
    it needs, and in the reference kernel."""
    parts = draw(interval_lists())
    s = IntervalSet(parts)
    return s.on_lattice(s.scale * draw(st.integers(1, 4))), ReferenceIntervalSet(parts)


def endpoints_and(s, extra):
    """The endpoints and gap midpoints of s, then ``extra``."""
    ends = [x for p in s.parts for x in (p.lo, p.hi)]
    mids = [(a.hi + b.lo) / 2 for a, b in zip(s.parts, s.parts[1:])]
    return ends + mids + list(extra)


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


@given(set_pairs(), set_pairs())
@settings(max_examples=150, deadline=None)
def test_binary_operations_agree(a, b):
    """Union, intersection, inclusion, distance and equality of two sets on
    different lattices, against the reference."""
    (a, ra), (b, rb) = a, b
    assert (a | b).parts == ra.union(rb).parts
    assert (a & b).parts == ra.intersect(rb).parts
    assert (a | b).scale == (a & b).scale == lcm(a.scale, b.scale)
    assert a.includes(b) == ra.includes(rb)
    assert b.includes(a) == rb.includes(ra)
    # inclusions that hold, which random pairs seldom draw
    assert (a | b).includes(b) and ra.union(rb).includes(rb)
    assert a.includes(a & b) and ra.includes(ra.intersect(rb))
    assert (a == b) == (ra.parts == rb.parts)
    assert a != b or hash(a) == hash(b)
    if a.is_empty or b.is_empty:
        with pytest.raises(EmptySet):
            a.dist(b)
    else:
        assert a.dist(b) == ra.dist(rb) == b.dist(a)
        # b moved clear of a, so the nearest parts are not the first pair
        far = b.translate(F(5))
        assert a.dist(far) == ra.dist(rb.translate(F(5))) == far.dist(a)


@given(
    set_pairs(),
    nonzero_ratios,
    finite_fractions,
    st.lists(finite_fractions, max_size=4),
    st.integers(1, 6),
)
@settings(max_examples=150, deadline=None)
def test_unary_operations_agree(pair, ratio, offset, extra, k):
    """Affine images of both signs, translates and the gap queries against
    the reference; equality and hash survive a move to a finer lattice."""
    s, ref = pair
    assert s.affine(ratio, offset).parts == ref.affine(ratio, offset).parts
    assert s.translate(offset).parts == ref.translate(offset).parts
    finer = s.on_lattice(s.scale * k)
    assert finer == s and hash(finer) == hash(s)
    if s.is_empty:
        for query in (s.gaps, s.largest_gap, s.largest_gap_interval):
            with pytest.raises(EmptySet):
                query()
        return
    assert s.gaps() == ref.gaps()
    assert s.largest_gap() == ref.largest_gap()
    assert s.largest_gap_interval() == ref.largest_gap_interval()
    for x in endpoints_and(s, extra):
        assert s.gap_containing(x) == ref.gap_containing(x)


class TestOnLattice:
    def test_round_trip(self):
        s = iset((0, F(1, 5)), (F(3, 10), F(1, 2)))
        lat = s.on_lattice(20)
        assert (lat.scale, lat.los, lat.his) == (20, (0, 6), (4, 10))
        assert lat == s and lat.parts == s.parts
        assert lat.largest_gap() == F(1, 10)

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError):
            iset((0, F(1, 3))).on_lattice(10)

    def test_empty_has_no_gap(self):
        empty = IntervalSet(()).on_lattice(20)
        assert empty.scale == 20 and empty.los == () and empty.his == ()
        with pytest.raises(EmptySet):
            empty.largest_gap()

    def test_coarser_lattice_that_holds_the_endpoints(self):
        s = iset((0, F(1, 2))).on_lattice(10)
        assert s.on_lattice(4).los == (0,) and s.on_lattice(4).his == (2,)

    def test_scale_must_divide(self):
        a = iset((0, 1)).on_lattice(10)
        b = iset((0, F(1, 3)))
        with pytest.raises(ValueError):
            _intersect_shifted(a, b, 0)


@given(set_pairs(), st.lists(finite_fractions, max_size=6), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_lattice_location_agrees(pair, extra, spread):
    """Every endpoint is queried exactly, as reduced and as unreduced pairs,
    on a lattice finer than needed."""
    s, ref = pair
    lat = s.on_lattice(s.scale * spread)
    assert lat.parts == ref.parts
    queries = [x for p in ref.parts for x in (p.lo, p.hi)] + extra
    for x in queries:
        for k in (1, spread + 1):
            num, den = x.numerator * k, x.denominator * k
            assert lat.contains(num, den) == ref.contains_point(x)
            if lat.is_empty:
                assert lat.gap_at(num, den) is None
                continue
            assert lat.gap_at(num, den) == ref.gap_containing(x)
    if lat:
        assert lat.largest_gap() == ref.largest_gap()


@given(set_pairs(), set_pairs(), finite_fractions, st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_lattice_intersect_coarser_b_agrees(a, b, shift, k):
    """b on a lattice k times coarser than a's, as deep covers are."""
    (a, ra), (b, rb) = a, b
    fine = lcm(b.scale * k, a.scale, shift.denominator)
    result = _intersect_shifted(
        a.on_lattice(fine), b, shift.numerator * (fine // shift.denominator)
    )
    assert result.scale == fine
    assert result.parts == ra.intersect(rb.translate(shift)).parts
