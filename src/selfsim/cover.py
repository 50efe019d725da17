"""Finite covers of an attractor, certified points, and stable gaps.

The depth-n cover is the union of all n-fold cylinder images of the hull;
it contains the attractor, shrinks as n grows, and its gaps are certified
attractor-free zones.  Exact points are images of generator fixed points
under bounded words and are certified members of the attractor.

Every depth-n cover endpoint lies on the lattice ``Z/(H*D**n)``, where
``D`` is the lcm of the ratio and offset denominators and ``H`` the lcm of
the two hull endpoint denominators: a map ``x -> (a/D)*x + c/D`` sends
``Z/S`` into ``Z/(D*S)``.  So each (system, depth) cover is built once, in
``int`` arithmetic from the depth n-1 cover, into the system's own memo,
which dies with the system; :func:`cover` and :func:`lattice_cover` hand
out that immutable :class:`IntervalSet` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BudgetExceeded, ParameterOutOfRange, SelfsimError, UntaggedFamily
from .intervals import IntervalSet
from .similitudes import IFS

DEFAULT_BUDGET = 10**6


def _check_depth(m: int, depth: int, budget: int) -> None:
    if depth < 0:
        raise ParameterOutOfRange("depth >= 0 violated")
    if depth > budget.bit_length():
        # m >= 2, so m**depth > budget; a long count is left as a power
        short = depth * m.bit_length() <= 4096
        raise BudgetExceeded(m**depth if short else f"{m}**{depth}", budget)
    count = m**depth
    if count > budget:
        raise BudgetExceeded(count, budget)


@dataclass(frozen=True)
class CoverReport:
    """Depth-n cover with its piece count and largest gap."""

    depth: int
    parts: IntervalSet
    piece_count: int
    largest_gap: Fraction


def _integer_generators(ifs: IFS) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(d, ((a_1, c_1), ...))`` with φ_i(x) = (a_i*x + c_i)/d, where d is
    the lcm of the generator ratio and offset denominators; built once per
    system."""
    if "gens" not in ifs._memo:
        d = lcm(*(x.denominator for f in ifs.maps for x in (f.ratio, f.offset)))
        gens = tuple((int(f.ratio * d), int(f.offset * d)) for f in ifs.maps)
        ifs._memo["gens"] = d, gens
    return ifs._memo["gens"]


def _next_cover(ifs: IFS, prev: IntervalSet | None) -> IntervalSet:
    """The cover one depth below ``prev``; the hull when ``prev`` is None."""
    if prev is None:
        return IntervalSet((ifs.hull,))
    d, gens = _integer_generators(ifs)
    pieces: list[tuple[int, int]] = []
    for a, c in gens:
        t = c * prev.scale
        pieces.extend(zip([a * x + t for x in prev.los], [a * x + t for x in prev.his]))
    # each map's image is a sorted run, which the sort merges cheaply
    return IntervalSet.from_lattice(prev.scale * d, pieces)


def lattice_cover(ifs: IFS, depth: int, budget: int = DEFAULT_BUDGET) -> IntervalSet:
    """The depth-n cover on the lattice ``Z/(H*D**n)``; each depth is built
    once, from the one above, into the system's memo.  Raises
    BudgetExceeded when m**n would exceed ``budget``, before anything is
    built."""
    _check_depth(ifs.arity, depth, budget)
    covers = ifs._memo.setdefault("covers", {})
    for n in range(depth + 1):
        if n not in covers:
            covers[n] = _next_cover(ifs, covers[n - 1] if n else None)
    return covers[depth]


def cover(ifs: IFS, depth: int, budget: int = DEFAULT_BUDGET) -> CoverReport:
    """All depth-n cylinder images of the hull, merged to canonical form.

    Touching cylinders merge, so piece_count can be smaller than m**n.
    Raises BudgetExceeded when m**n would exceed ``budget``.
    """
    parts = lattice_cover(ifs, depth, budget)
    return CoverReport(depth, parts, len(parts), parts.largest_gap())


def _points_upto(ifs: IFS, depth: int) -> tuple[Fraction, ...]:
    """Sorted fixed points and their images under words of length <= depth;
    depth n holds the fixed points and the images of depth n-1."""
    levels = ifs._memo.setdefault("points", {})
    for n in range(depth + 1):
        if n not in levels:
            acc = {f.fixed_point for f in ifs.maps}
            if n:
                acc.update(f(x) for f in ifs.maps for x in levels[n - 1])
            levels[n] = tuple(sorted(acc))
    return levels[depth]


def exact_points(
    ifs: IFS, depth: int, budget: int = DEFAULT_BUDGET
) -> tuple[Fraction, ...]:
    """Sorted images of generator fixed points under words of length <= depth.

    Every returned point lies in the attractor: fixed points do, and the
    attractor is closed under the generators.
    """
    _check_depth(ifs.arity, depth, budget)
    return _points_upto(ifs, depth)


def family_gap(ifs: IFS) -> Fraction:
    """Closed-form largest gap of the attractor for tagged families.

    The formula route is independent of the cover route on purpose;
    stable_gap_check compares the two.  Untagged systems have no closed
    form here: use the cover largest gap instead.
    """
    if ifs.family == "three-map":
        rho = ifs.maps[0].ratio
        lam = ifs.maps[1].offset
        return max(lam - rho, 1 - 2 * rho - lam)
    if ifs.family in ("equal-gap", "two-map", "grid"):
        total = sum((f.ratio for f in ifs.maps), Fraction(0))
        return (1 - total) / (ifs.arity - 1)
    if ifs.family == "four-map-example":
        shallow = lattice_cover(ifs, 1).largest_gap_interval()
        deep = lattice_cover(ifs, 2).largest_gap_interval()
        if shallow != deep:
            raise SelfsimError("largest gap did not stabilize by depth 2")
        assert shallow is not None
        return shallow.length
    raise UntaggedFamily(
        "no closed-form gap for an untagged system; use the cover largest gap"
    )


def stable_gap_check(ifs: IFS, depth: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True when the depth-n cover's largest gap equals the family value."""
    if depth < 1:
        raise ParameterOutOfRange("depth >= 1 violated")
    return cover(ifs, depth, budget).largest_gap == family_gap(ifs)
