"""Similitudes of the line, words, and iterated function systems.

A similitude is x -> ratio*x + offset with a nonzero rational ratio.  An
IFS here is a finite ordered list of contractive similitudes with positive
ratios; orientation-reversing behaviour enters only through explicit
reflection maps, never through the generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .errors import AlphabetMismatch, ParameterOutOfRange, SelfsimError
from .intervals import Interval
from .rationals import format_rational


@dataclass(frozen=True)
class Similitude:
    """Affine map x -> ratio*x + offset, ratio != 0."""

    ratio: Fraction
    offset: Fraction

    def __post_init__(self):
        if self.ratio == 0:
            raise ParameterOutOfRange("ratio != 0 violated")

    def __call__(self, x: Fraction) -> Fraction:
        return self.ratio * x + self.offset

    def compose(self, other: "Similitude") -> "Similitude":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        return Similitude(
            self.ratio * other.ratio,
            self.ratio * other.offset + self.offset,
        )

    def invert(self) -> "Similitude":
        return Similitude(1 / self.ratio, -self.offset / self.ratio)

    @property
    def is_contraction(self) -> bool:
        return abs(self.ratio) < 1

    @property
    def fixed_point(self) -> Fraction:
        if self.ratio == 1:
            raise ValueError("a unit-ratio translation has no fixed point")
        return self.offset / (1 - self.ratio)

    def map_interval(self, iv: Interval) -> Interval:
        a, b = self(iv.lo), self(iv.hi)
        return Interval(a, b) if a <= b else Interval(b, a)

    def __str__(self) -> str:
        return f"({format_rational(self.ratio)}, {format_rational(self.offset)})"


IDENTITY = Similitude(Fraction(1), Fraction(0))


def reflection_about(center: Fraction) -> Similitude:
    """The involution x -> 2*center - x."""
    return Similitude(Fraction(-1), 2 * center)


@dataclass(frozen=True)
class Word:
    """Finite word over the alphabet {1, ..., alphabet_size}."""

    alphabet_size: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ParameterOutOfRange("alphabet size >= 2 violated")
        for letter in self.letters:
            if not 1 <= letter <= self.alphabet_size:
                raise ValueError(
                    f"letter {letter} outside alphabet 1..{self.alphabet_size}"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def extended(self, letter: int) -> "Word":
        return Word(self.alphabet_size, self.letters + (letter,))

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(str(i) for i in self.letters)


def mirror_word(word: Word) -> Word:
    """Letterwise relabeling i -> m + 1 - i."""
    m = word.alphabet_size
    return Word(m, tuple(m + 1 - i for i in word.letters))


@dataclass(frozen=True)
class IFS:
    """Ordered system of contractive positive-ratio similitudes.

    ``hull`` is the convex hull of the attractor: the interval spanned by
    the smallest and largest fixed points of the generators.  ``family``
    tags systems built by the named constructors; hand-built systems are
    untagged.

    ``_memo`` holds what the engine derives from the system (covers,
    points, integer generators, mirror), so it lives as long as the system.
    """

    maps: tuple[Similitude, ...]
    family: str | None = None
    hull: Interval = field(init=False, compare=False)
    _memo: dict = field(init=False, compare=False, repr=False)

    def __init__(self, maps, family: str | None = None):
        object.__setattr__(self, "maps", tuple(maps))
        object.__setattr__(self, "family", family)
        if len(self.maps) < 2:
            raise ParameterOutOfRange("m >= 2 violated")
        for f in self.maps:
            if not 0 < f.ratio < 1:
                raise ParameterOutOfRange(f"0 < ratio < 1 violated by map {f}")
        fixed = [f.fixed_point for f in self.maps]
        object.__setattr__(self, "hull", Interval(min(fixed), max(fixed)))
        object.__setattr__(self, "_memo", {})

    @property
    def arity(self) -> int:
        return len(self.maps)

    @property
    def center(self) -> Fraction:
        return (self.hull.lo + self.hull.hi) / 2

    def reflection(self) -> Similitude:
        """The reflection of the hull onto itself."""
        return reflection_about(self.center)

    def empty_word(self) -> Word:
        return Word(self.arity)

    def word(self, *letters: int) -> Word:
        return Word(self.arity, letters)


def word_map(ifs: IFS, word: Word) -> Similitude:
    """Composite map of a word, applied left to right; empty word -> identity."""
    if word.alphabet_size != ifs.arity:
        raise AlphabetMismatch(
            f"word over {word.alphabet_size} letters applied to {ifs.arity} maps"
        )
    acc = IDENTITY
    for letter in word.letters:
        acc = acc.compose(ifs.maps[letter - 1])
    return acc


# -- named families ---------------------------------------------------------


def three_map(rho, lam) -> IFS:
    """Three maps of common ratio rho with offsets 0, lambda, 1 - rho."""
    rho, lam = Fraction(rho), Fraction(lam)
    if not rho > 0:
        raise ParameterOutOfRange("0 < rho violated")
    if not rho < Fraction(1, 3):
        raise ParameterOutOfRange("rho < 1/3 violated")
    if not rho <= lam:
        raise ParameterOutOfRange("rho <= lambda violated")
    if not lam <= 1 - 2 * rho:
        raise ParameterOutOfRange("lambda <= 1 - 2*rho violated")
    maps = (
        Similitude(rho, Fraction(0)),
        Similitude(rho, lam),
        Similitude(rho, 1 - rho),
    )
    return IFS(maps, family="three-map")


def equal_gap(ratios) -> IFS:
    """Maps of the given ratios laid left to right with equal gaps in [0, 1]."""
    rs = tuple(Fraction(r) for r in ratios)
    if len(rs) < 2:
        raise ParameterOutOfRange("m >= 2 violated")
    for r in rs:
        if not 0 < r < 1:
            raise ParameterOutOfRange(f"0 < ratio < 1 violated by ratio {r}")
    total = sum(rs)
    if not total < 1:
        raise ParameterOutOfRange("sum of ratios < 1 violated")
    gamma = (1 - total) / (len(rs) - 1)
    maps = []
    pos = Fraction(0)
    for r in rs:
        maps.append(Similitude(r, pos))
        pos += r + gamma
    return IFS(tuple(maps), family="equal-gap")


def two_map(alpha, beta) -> IFS:
    """Two maps anchored at 0 and 1.  alpha == beta is permitted here;
    asymmetry requirements live in the verification layer."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not alpha > 0:
        raise ParameterOutOfRange("0 < alpha violated")
    if not beta > 0:
        raise ParameterOutOfRange("0 < beta violated")
    if not alpha + beta < 1:
        raise ParameterOutOfRange("alpha + beta < 1 violated")
    maps = (Similitude(alpha, Fraction(0)), Similitude(beta, 1 - beta))
    return IFS(maps, family="two-map")


def homogeneous_grid(beta, m: int) -> IFS:
    """m maps of ratio beta with offsets equally spaced from 0 to 1 - beta."""
    beta = Fraction(beta)
    if m < 2:
        raise ParameterOutOfRange("m >= 2 violated")
    if not beta > 0:
        raise ParameterOutOfRange("0 < beta violated")
    if not beta < Fraction(1, m):
        raise ParameterOutOfRange("beta < 1/m violated")
    step = (1 - beta) / (m - 1)
    maps = tuple(Similitude(beta, (i - 1) * step) for i in range(1, m + 1))
    return IFS(maps, family="grid")


def four_map_example() -> IFS:
    """Four maps of ratio 1/10 with offsets 0, 1/10, 1/2, 3/5 (hull [0, 2/3])."""
    r = Fraction(1, 10)
    offsets = (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(3, 5))
    return IFS(tuple(Similitude(r, t) for t in offsets), family="four-map-example")


# -- mirroring --------------------------------------------------------------


def mirror(ifs: IFS) -> tuple[IFS, Similitude]:
    """Conjugate every generator by the hull reflection and re-sort.

    Returns the mirrored system and the reflection, built once per system.
    Family tags survive: mirrored instances stay inside their family's
    parameter range.
    """
    if "mirror" not in ifs._memo:
        sigma = ifs.reflection()
        conjugated = [sigma.compose(f).compose(sigma) for f in ifs.maps]
        conjugated.sort(key=lambda f: f(ifs.hull.lo))
        ifs._memo["mirror"] = IFS(tuple(conjugated), family=ifs.family), sigma
    return ifs._memo["mirror"]


def certified_reflection(ifs: IFS) -> Similitude | None:
    """The hull reflection when the system coincides map-for-map with its
    mirror, which certifies the attractor symmetric; None otherwise."""
    mirrored, sigma = mirror(ifs)
    return sigma if mirrored.maps == ifs.maps else None


# -- symmetry ---------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricCertified:
    """The attractor equals its own reflection about ``center``."""

    center: Fraction


@dataclass(frozen=True)
class AsymmetricWitness:
    """A certified attractor point whose reflection lands inside a certified
    gap, refuting symmetry."""

    point: Fraction
    gap: Interval
    depth: int


@dataclass(frozen=True)
class UnknownAtDepth:
    """Neither certificate nor refutation was found within the depth budget."""

    depth: int


SymmetryVerdict = SymmetricCertified | AsymmetricWitness | UnknownAtDepth


def is_symmetric(ifs: IFS, depth: int = 2) -> SymmetryVerdict:
    """Decide reflection symmetry of the attractor where possible.

    Certification is algebraic: the system must coincide map-for-map with
    its mirror (palindromic ratios, reflection-matched offsets), which
    forces the attractor onto itself under the hull reflection.  Refutation
    reflects certified points through the hull center and looks for one
    that lands strictly inside a gap of the depth-``depth`` cover; the
    center is forced, since any symmetry must exchange the hull endpoints.
    """
    if certified_reflection(ifs) is not None:
        return SymmetricCertified(center=ifs.center)

    from .cover import cover, exact_points

    report = cover(ifs, depth)
    twice_center = ifs.hull.lo + ifs.hull.hi
    for p in exact_points(ifs, depth):
        gap = report.parts.gap_containing(twice_center - p)
        if gap is not None:
            return AsymmetricWitness(point=p, gap=gap, depth=depth)
    return UnknownAtDepth(depth=depth)


# -- similarity dimension ---------------------------------------------------


def _perfect_pow2_root(x: Fraction, k: int) -> Fraction | None:
    """x**(1/2**k) when it is rational, else None."""
    a, b = x.numerator, x.denominator
    for _ in range(k):
        ra, rb = isqrt(a), isqrt(b)
        if ra * ra != a or rb * rb != b:
            return None
        a, b = ra, rb
    return Fraction(a, b)


def _pow_bounds(rho: Fraction, p: int, k: int, bits: int) -> tuple[int, int]:
    """Outward mantissa bounds (scale 2**bits) on rho**(p / 2**k)."""
    num = rho.numerator << bits
    lo = num // rho.denominator
    hi = -((-num) // rho.denominator)
    for _ in range(k):
        lo = isqrt(lo << bits)
        h = hi << bits
        hi = isqrt(h)
        if hi * hi < h:
            hi += 1
    # binary exponentiation with outward rounding, all values in (0, 1]
    rlo, rhi = 1 << bits, 1 << bits
    blo, bhi = lo, hi
    e = p
    while e:
        if e & 1:
            rlo = (rlo * blo) >> bits
            rhi = ((rhi * bhi) >> bits) + 1
        e >>= 1
        if e:
            blo = (blo * blo) >> bits
            bhi = ((bhi * bhi) >> bits) + 1
    return rlo, rhi


def _moran_sign(ratios: tuple[Fraction, ...], s: Fraction) -> int:
    """Exact sign of sum(rho**s) - 1 at a dyadic rational exponent s >= 0."""
    if s == 0:
        return 1  # m >= 2 maps
    p, q = s.numerator, s.denominator
    k = q.bit_length() - 1
    if q != 1 << k:
        raise ValueError("moran sign is evaluated at dyadic exponents only")
    roots = []
    for rho in ratios:
        z = _perfect_pow2_root(rho, k)
        if z is None:
            roots = None
            break
        roots.append(z)
    if roots is not None:
        if p <= 1024:
            total = sum(z**p for z in roots)
            return (total > 1) - (total < 1)
        # rho**s == root**p exactly; evaluate the integer power by enclosure
        ratios, k = tuple(roots), 0
    for bits in (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384):
        lo_sum = 0
        hi_sum = 0
        for rho in ratios:
            lo, hi = _pow_bounds(rho, p, k, bits)
            lo_sum += lo
            hi_sum += hi
        one = 1 << bits
        if hi_sum < one:
            return -1
        if lo_sum > one:
            return 1
    raise SelfsimError(f"sign of the moment sum undecided at exponent {s}")


def similarity_dimension(ifs: IFS, tol: Fraction) -> Interval:
    """Enclosing interval of width <= tol for the root s of sum(rho_i**s) = 1.

    Pure rational bisection; the sign at each dyadic midpoint is decided by
    integer-root enclosures with outward rounding, or exactly when every
    rho**s is rational.  An exact hit returns a width-zero interval.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ParameterOutOfRange("tol > 0 violated")
    ratios = tuple(f.ratio for f in ifs.maps)
    lo = Fraction(0)
    hi = Fraction(1)
    sign_hi = _moran_sign(ratios, hi)
    while sign_hi > 0:
        lo, hi = hi, hi * 2
        sign_hi = _moran_sign(ratios, hi)
    if sign_hi == 0:
        return Interval(hi, hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        sign_mid = _moran_sign(ratios, mid)
        if sign_mid == 0:
            return Interval(mid, mid)
        if sign_mid > 0:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)
