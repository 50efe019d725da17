"""Closed rational intervals and finite unions of them.

An :class:`IntervalSet` is kept in canonical form: parts sorted by left
endpoint, pairwise disjoint, and never touching (two closed intervals that
share an endpoint are merged).  Point intervals with lo == hi are legal
parts.  All endpoints are exact rationals; no floats appear anywhere.

A :class:`LatticeSet` is the same canonical union with every endpoint on
one lattice ``Z/scale``, stored as two sorted ``int`` tuples.  The engine's
hot paths (cover building, point location, offset propagation) run on it
in pure integer arithmetic; ``IntervalSet`` is the form callers see.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


def _canonical(parts: Iterable[Interval]) -> tuple[Interval, ...]:
    items = sorted(parts)
    out: list[Interval] = []
    for part in items:
        if out and part.lo <= out[-1].hi:
            if part.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, part.hi)
        else:
            out.append(part)
    return tuple(out)


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of closed rational intervals in canonical form."""

    parts: tuple[Interval, ...]

    def __init__(self, parts: Iterable[Interval] = ()):
        object.__setattr__(self, "parts", _canonical(parts))

    @classmethod
    def _from_canonical(cls, parts: tuple[Interval, ...]) -> "IntervalSet":
        """Wrap parts already known to be in canonical form."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "parts", parts)
        return obj

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return " u ".join(str(p) for p in self.parts)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def hull(self) -> Interval:
        """Convex hull [min, max]; raises EmptySet on the empty set."""
        if not self.parts:
            raise EmptySet("empty set has no hull")
        return Interval(self.parts[0].lo, self.parts[-1].hi)

    def total_length(self) -> Fraction:
        return sum((p.length for p in self.parts), Fraction(0))

    # -- membership ---------------------------------------------------------

    def contains_point(self, x: Fraction) -> bool:
        idx = bisect_right(self.parts, x, key=lambda p: p.lo)
        return idx > 0 and x <= self.parts[idx - 1].hi

    def includes(self, other: "IntervalSet") -> bool:
        """Set containment other subset-of self.

        Canonical parts of self are separated by real gaps, so each part of
        ``other`` must sit inside a single part of self.
        """
        i = 0
        for part in other.parts:
            while i < len(self.parts) and self.parts[i].hi < part.lo:
                i += 1
            if i == len(self.parts) or not self.parts[i].contains_interval(part):
                return False
        return True

    # -- boolean algebra ----------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
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
        return IntervalSet._from_canonical(tuple(out))

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other)

    # -- gap structure ------------------------------------------------------

    def gaps(self) -> tuple[Interval, ...]:
        """Bounded components of the complement inside the hull, as open
        intervals recorded by their endpoints.  Raises EmptySet when empty."""
        if not self.parts:
            raise EmptySet("empty set has no gap structure")
        return tuple(
            Interval(a.hi, b.lo) for a, b in zip(self.parts, self.parts[1:])
        )

    def largest_gap(self) -> Fraction:
        """Length of the longest gap; 0 when the set is a single interval."""
        if not self.parts:
            raise EmptySet("empty set has no gap structure")
        widths = [b.lo - a.hi for a, b in zip(self.parts, self.parts[1:])]
        return max(widths, default=Fraction(0))

    def largest_gap_interval(self) -> Interval | None:
        """The leftmost gap realizing largest_gap, or None if gapless."""
        if not self.parts:
            raise EmptySet("empty set has no gap structure")
        best: Interval | None = None
        for gap in self.gaps():
            if best is None or gap.length > best.length:
                best = gap
        return best

    def gap_containing(self, x: Fraction) -> Interval | None:
        """The gap whose open interior strictly contains x, if any."""
        if not self.parts:
            raise EmptySet("empty set has no gap structure")
        idx = bisect_right(self.parts, x, key=lambda p: p.lo)
        if idx == 0 or idx == len(self.parts):
            return None
        prev = self.parts[idx - 1]
        if x <= prev.hi:
            return None
        return Interval(prev.hi, self.parts[idx].lo)

    # -- metric structure ---------------------------------------------------

    def dist(self, other: "IntervalSet") -> Fraction:
        """Minimal distance between the two unions (0 on touch/overlap)."""
        if not self.parts or not other.parts:
            raise EmptySet("distance needs two nonempty sets")
        a, b = self.parts, other.parts
        i = j = 0
        best: Fraction | None = None
        while i < len(a) and j < len(b):
            gap = max(a[i].lo - b[j].hi, b[j].lo - a[i].hi, Fraction(0))
            if best is None or gap < best:
                best = gap
            if best == 0:
                return Fraction(0)
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        assert best is not None
        return best

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
        # a nonzero affine map scales gaps by |ratio|, so canonical form survives
        return IntervalSet._from_canonical(parts)

    def translate(self, offset: Fraction) -> "IntervalSet":
        return self.affine(Fraction(1), offset)


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


@dataclass(frozen=True)
class LatticeSet:
    """Canonical union of closed intervals on the lattice ``Z/scale``.

    Part i is ``[los[i]/scale, his[i]/scale]``; the parts obey the same
    canonical form as :class:`IntervalSet`.  Points ``num/den`` (den > 0)
    are located by bisection on the floored key ``num*scale // den`` and
    decided by cross-multiplication, so no ``Fraction`` is built.
    """

    scale: int
    los: tuple[int, ...]
    his: tuple[int, ...]

    @classmethod
    def from_set(cls, s: IntervalSet, scale: int) -> "LatticeSet":
        """``s`` on ``Z/scale``; scale must be a multiple of every endpoint
        denominator."""

        def at(x: Fraction) -> int:
            q, r = divmod(x.numerator * scale, x.denominator)
            if r:
                raise ValueError(f"{x} is not on the lattice Z/{scale}")
            return q

        return cls(scale, tuple(at(p.lo) for p in s), tuple(at(p.hi) for p in s))

    def to_set(self) -> IntervalSet:
        s = self.scale
        return IntervalSet._from_canonical(
            tuple(
                Interval(Fraction(lo, s), Fraction(hi, s))
                for lo, hi in zip(self.los, self.his)
            )
        )

    def largest_gap(self) -> Fraction:
        """Length of the longest gap; 0 when the set is a single interval."""
        if not self.los:
            raise EmptySet("empty set has no gap structure")
        return Fraction(max(map(sub, self.los[1:], self.his), default=0), self.scale)

    def contains(self, num: int, den: int) -> bool:
        """True when ``num/den`` lies in the set."""
        idx = bisect_right(self.los, num * self.scale // den)
        return idx > 0 and num * self.scale <= self.his[idx - 1] * den

    def gap_index(self, num: int, den: int) -> int:
        """Index i of the gap ``(his[i-1], los[i])`` whose open interior holds
        ``num/den``; 0 when no gap holds it."""
        idx = bisect_right(self.los, num * self.scale // den)
        if idx == 0 or idx == len(self.los):
            return 0
        return idx if num * self.scale > self.his[idx - 1] * den else 0

    def gap(self, idx: int) -> Interval:
        """The gap ``gap_index`` named, with rational endpoints."""
        return Interval(
            Fraction(self.his[idx - 1], self.scale), Fraction(self.los[idx], self.scale)
        )


def lattice_intersect_shifted(a: LatticeSet, b: LatticeSet, shift: int) -> LatticeSet:
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
    return LatticeSet(a.scale, tuple(los), tuple(his))


def intersect_shifted(a: IntervalSet, b: IntervalSet, shift: Fraction) -> IntervalSet:
    """Compute a & (b + shift) without materializing the translate of b.

    Both sets and the shift go onto one common lattice and
    :func:`lattice_intersect_shifted` does the scan.
    """
    scale = lcm(
        shift.denominator,
        *(x.denominator for p in (*a.parts, *b.parts) for x in (p.lo, p.hi)),
    )
    step = shift.numerator * (scale // shift.denominator)
    result = lattice_intersect_shifted(
        LatticeSet.from_set(a, scale), LatticeSet.from_set(b, scale), step
    )
    return result.to_set()
