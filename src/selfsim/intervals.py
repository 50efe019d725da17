"""Closed rational intervals and finite unions of them.

An :class:`IntervalSet` is kept in canonical form: parts sorted by left
endpoint, pairwise disjoint, and never touching (two closed intervals that
share an endpoint are merged).  Point intervals with lo == hi are legal
parts.  The set stores its endpoints as ``int`` numerators over one
lattice ``Z/scale`` and runs its algebra in integer arithmetic; ``Interval``
and ``Fraction`` objects are built only where a caller reads parts, gaps or
lengths.  No floats appear anywhere.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import sub
from typing import Iterable, Iterator

from .errors import EmptySet, NonpositiveDelta
from .rationals import format_rational


@dataclass(frozen=True, order=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains(self, x: Fraction) -> bool:
        """True when x is in the open interior (lo, hi)."""
        return self.lo < x < self.hi

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def _merge(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical ``(los, his)`` of closed intervals ``(lo, hi)`` given in
    sorted order: overlapping and touching intervals merge."""
    los: list[int] = []
    his: list[int] = []
    for lo, hi in pairs:
        if his and lo <= his[-1]:
            if hi > his[-1]:
                his[-1] = hi
        else:
            los.append(lo)
            his.append(hi)
    return tuple(los), tuple(his)


def _fill(obj: "IntervalSet", scale: int, los: tuple[int, ...], his: tuple[int, ...]):
    object.__setattr__(obj, "scale", scale)
    object.__setattr__(obj, "los", los)
    object.__setattr__(obj, "his", his)
    return obj


def _make(scale: int, los: tuple[int, ...], his: tuple[int, ...]) -> "IntervalSet":
    """Wrap parts already known to be in canonical form."""
    return _fill(object.__new__(IntervalSet), scale, los, his)


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Finite union of closed rational intervals in canonical form.

    Part i is ``[los[i]/scale, his[i]/scale]``.  Equality and hashing are
    set equality, whatever lattice each side is stored on.  Points
    ``num/den`` (den > 0) are located by bisection on the floored key
    ``num*scale // den`` and decided by cross-multiplication, so no
    ``Fraction`` is built.
    """

    scale: int
    los: tuple[int, ...]
    his: tuple[int, ...]

    def __init__(self, parts: Iterable[Interval] = ()):
        parts = tuple(parts)
        scale = lcm(*(x.denominator for p in parts for x in (p.lo, p.hi)))
        pairs = sorted((int(p.lo * scale), int(p.hi * scale)) for p in parts)
        _fill(self, scale, *_merge(pairs))

    @classmethod
    def from_lattice(cls, scale: int, pairs: Iterable[tuple[int, int]]) -> IntervalSet:
        """Union of the closed intervals ``[lo/scale, hi/scale]`` over the
        ``(lo, hi)`` in ``pairs``, in any order, stored on ``Z/scale``."""
        return _make(scale, *_merge(sorted(pairs)))

    def on_lattice(self, scale: int) -> "IntervalSet":
        """The same set stored on ``Z/scale``; raises ValueError when an
        endpoint is not on that lattice."""
        if scale == self.scale:
            return self

        def at(x: int) -> int:
            q, r = divmod(x * scale, self.scale)
            if r:
                raise ValueError(
                    f"{Fraction(x, self.scale)} is not on the lattice Z/{scale}"
                )
            return q

        return _make(scale, tuple(map(at, self.los)), tuple(map(at, self.his)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        a, b = _common(self, other)
        return a.los == b.los and a.his == b.his

    def __hash__(self) -> int:
        # the coarsest lattice that holds the set is unique
        g = gcd(self.scale, *self.los, *self.his)
        return hash((self.scale // g, tuple(x // g for x in self.los + self.his)))

    @property
    def parts(self) -> tuple[Interval, ...]:
        s = self.scale
        return tuple(
            Interval(Fraction(lo, s), Fraction(hi, s))
            for lo, hi in zip(self.los, self.his)
        )

    def __bool__(self) -> bool:
        return bool(self.los)

    def __len__(self) -> int:
        return len(self.los)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __str__(self) -> str:
        if not self.los:
            return "{}"
        return " u ".join(str(p) for p in self.parts)

    @property
    def is_empty(self) -> bool:
        return not self.los

    def hull(self) -> Interval:
        """Convex hull [min, max]; raises EmptySet on the empty set."""
        if not self.los:
            raise EmptySet("empty set has no hull")
        return Interval(
            Fraction(self.los[0], self.scale), Fraction(self.his[-1], self.scale)
        )

    def total_length(self) -> Fraction:
        return Fraction(sum(self.his) - sum(self.los), self.scale)

    # -- membership ---------------------------------------------------------

    def contains(self, num: int, den: int) -> bool:
        """True when ``num/den`` lies in the set."""
        idx = bisect_right(self.los, num * self.scale // den)
        return idx > 0 and num * self.scale <= self.his[idx - 1] * den

    def contains_point(self, x: Fraction) -> bool:
        return self.contains(x.numerator, x.denominator)

    def includes(self, other: "IntervalSet") -> bool:
        """Set containment other subset-of self.

        Canonical parts of self are separated by real gaps, so each part of
        ``other`` must sit inside the first part of self not ending before it.
        """
        a, b = _common(self, other)
        for lo, hi in zip(b.los, b.his):
            i = bisect_left(a.his, lo)
            if i == len(a.his) or a.los[i] > lo or a.his[i] < hi:
                return False
        return True

    # -- boolean algebra ----------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        a, b = _common(self, other)
        return IntervalSet.from_lattice(
            a.scale, chain(zip(a.los, a.his), zip(b.los, b.his))
        )

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return _intersect_shifted(*_common(self, other), 0)

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other)

    # -- gap structure ------------------------------------------------------

    def gap_at(self, num: int, den: int) -> Interval | None:
        """The gap whose open interior holds ``num/den``, if any."""
        idx = bisect_right(self.los, num * self.scale // den)
        if 0 < idx < len(self.los) and num * self.scale > self.his[idx - 1] * den:
            return Interval(
                Fraction(self.his[idx - 1], self.scale),
                Fraction(self.los[idx], self.scale),
            )
        return None

    def gaps(self) -> tuple[Interval, ...]:
        """Bounded components of the complement inside the hull, as open
        intervals recorded by their endpoints.  Raises EmptySet when empty."""
        if not self.los:
            raise EmptySet("empty set has no gap structure")
        s = self.scale
        return tuple(
            Interval(Fraction(hi, s), Fraction(lo, s))
            for hi, lo in zip(self.his, self.los[1:])
        )

    def largest_gap(self) -> Fraction:
        """Length of the longest gap; 0 when the set is a single interval."""
        if not self.los:
            raise EmptySet("empty set has no gap structure")
        return Fraction(max(map(sub, self.los[1:], self.his), default=0), self.scale)

    def largest_gap_interval(self) -> Interval | None:
        """The leftmost gap realizing largest_gap, or None if gapless."""
        return max(self.gaps(), key=lambda gap: gap.length, default=None)

    def gap_containing(self, x: Fraction) -> Interval | None:
        """The gap whose open interior strictly contains x, if any."""
        if not self.los:
            raise EmptySet("empty set has no gap structure")
        return self.gap_at(x.numerator, x.denominator)

    # -- metric structure ---------------------------------------------------

    def dist(self, other: "IntervalSet") -> Fraction:
        """Minimal distance between the two unions (0 on touch/overlap)."""
        if not self.los or not other.los:
            raise EmptySet("distance needs two nonempty sets")
        a, b = _common(self, other)
        if _intersect_shifted(a, b, 0):
            return Fraction(0)
        # the sets are disjoint, so the nearest two parts are neighbours in
        # their sorted union
        tagged = sorted(
            [(lo, hi, 0) for lo, hi in zip(a.los, a.his)]
            + [(lo, hi, 1) for lo, hi in zip(b.los, b.his)]
        )
        gaps = (q[0] - p[1] for p, q in zip(tagged, tagged[1:]) if p[2] != q[2])
        return Fraction(min(gaps), a.scale)

    def neighborhood(self, delta: Fraction) -> "Neighborhood":
        """Open delta-neighborhood.  Components keep open-set semantics:
        two expanded parts merge only when they genuinely overlap, so a
        shared endpoint keeps them distinct."""
        if delta <= 0:
            raise NonpositiveDelta(f"delta must be positive, got {delta}")
        out: list[Interval] = []
        for part in self.parts:
            lo, hi = part.lo - delta, part.hi + delta
            if out and lo < out[-1].hi:
                if hi > out[-1].hi:
                    out[-1] = Interval(out[-1].lo, hi)
            else:
                out.append(Interval(lo, hi))
        return Neighborhood(components=tuple(out))

    # -- affine images ------------------------------------------------------

    def affine(self, ratio: Fraction, offset: Fraction) -> "IntervalSet":
        """Image under x -> ratio*x + offset, ratio != 0, exactly."""
        if ratio == 0:
            raise ValueError("affine image needs a nonzero ratio")
        # x/S -> (p*x)/(q*S) + c/e lands on the lattice Z/lcm(q*S, e)
        p, q = ratio.numerator, ratio.denominator
        c, e = offset.numerator, offset.denominator
        scale = lcm(q * self.scale, e)
        k, t = p * (scale // (q * self.scale)), c * (scale // e)
        los = tuple(k * x + t for x in self.los)
        his = tuple(k * x + t for x in self.his)
        # a nonzero affine map scales gaps by |ratio|, so canonical form
        # survives; a negative ratio reverses the order
        if k < 0:
            los, his = his[::-1], los[::-1]
        return _make(scale, los, his)

    def translate(self, offset: Fraction) -> "IntervalSet":
        return self.affine(Fraction(1), offset)


def _common(a: IntervalSet, b: IntervalSet) -> tuple[IntervalSet, IntervalSet]:
    """Both sets on the lcm of their lattices."""
    scale = lcm(a.scale, b.scale)
    return a.on_lattice(scale), b.on_lattice(scale)


@dataclass(frozen=True)
class Neighborhood:
    """Open neighborhood of an IntervalSet.

    ``components`` are the connected components of the open set, recorded by
    their endpoints (the endpoints themselves are excluded).  ``is_open``
    marks that convention for consumers of the closure.
    """

    components: tuple[Interval, ...]
    is_open: bool = True

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def closure(self) -> IntervalSet:
        return IntervalSet(self.components)

    @property
    def is_single_interval(self) -> bool:
        return len(self.components) == 1


def _intersect_shifted(a: IntervalSet, b: IntervalSet, shift: int) -> IntervalSet:
    """``a & (b + shift/a.scale)`` on a's lattice, whose scale must be a
    multiple of b's.

    Two-pointer scan with bisect fast-forward; the work is proportional to
    the overlapping region, which matters when b is a deep cover.  Parts of
    b are lifted to a's lattice only when the scan reaches them.
    """
    k, rem = divmod(a.scale, b.scale)
    if rem:
        raise ValueError(f"scale {a.scale} is not a multiple of {b.scale}")
    alos, ahis, blos, bhis = a.los, a.his, b.los, b.his
    los: list[int] = []
    his: list[int] = []
    i = j = 0
    while i < len(alos) and j < len(blos):
        blo = blos[j] * k + shift
        bhi = bhis[j] * k + shift
        if bhi < alos[i]:
            # first j with bhis[j]*k + shift >= alos[i], by ceiling division
            j = bisect_left(bhis, -((shift - alos[i]) // k), lo=j)
            continue
        if ahis[i] < blo:
            i = bisect_left(ahis, blo, lo=i)
            continue
        los.append(max(alos[i], blo))
        his.append(min(ahis[i], bhi))
        if ahis[i] < bhi:
            i += 1
        else:
            j += 1
    return _make(a.scale, tuple(los), tuple(his))


def intersect_shifted(a: IntervalSet, b: IntervalSet, shift: Fraction) -> IntervalSet:
    """Compute a & (b + shift) without materializing the translate of b.

    a and the shift go onto a lattice that also holds b, and
    :func:`_intersect_shifted` does the scan.
    """
    scale = lcm(a.scale, b.scale, shift.denominator)
    step = shift.numerator * (scale // shift.denominator)
    return _intersect_shifted(a.on_lattice(scale), b, step)
