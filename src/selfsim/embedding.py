"""Deciding and certifying self-embeddings of an attractor.

Three cooperating procedures, kept deliberately independent so they can
cross-check each other:

* ``check_embedding``: branch-and-certify search producing algebraic
  inclusion certificates or point-in-gap exclusion witnesses.
* ``decompose``: greedy longest-word descent through cylinder hulls.
* ``enumerate_embeddings``: constraint propagation over exact interval
  sets on one integer lattice, finding every feasible offset for a fixed
  ratio.

A branch of ``check_embedding`` closes when its map is a word map; the
word search (``find_matching_words``) runs on int prefix maps and prunes
by hull containment and by the residual ratio being a product of
generator ratios, both exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Callable, Iterator, NamedTuple, Sequence

from .cover import (
    DEFAULT_BUDGET,
    _check_depth,
    _integer_generators,
    exact_points,
    lattice_cover,
)
from .errors import (
    EmptySet,
    HypothesisViolated,
    NotCovered,
    ParameterOutOfRange,
    StepBudgetExceeded,
    WrongFamilyRange,
)
from .intervals import Interval, IntervalSet, _intersect_shifted
from .rationals import format_rational
from .similitudes import (
    IDENTITY,
    IFS,
    Similitude,
    UnknownAtDepth,
    Word,
    certified_reflection,
    mirror,
    mirror_word,
)

POINT_DEPTH = 4
COVER_DEPTH = 8
BRANCH_DEPTH = 6
MAX_STEPS = 64
WORD_LIMIT = 64


class Depths(NamedTuple):
    """The engine's depths and work budget, in the positional order of
    ``check_embedding`` and ``enumerate_embeddings`` (and of ``decompose``
    after ``max_steps``), so a caller passes ``*depths``."""

    point_depth: int = POINT_DEPTH
    cover_depth: int = COVER_DEPTH
    branch_depth: int = BRANCH_DEPTH
    budget: int = DEFAULT_BUDGET


# -- verdicts ---------------------------------------------------------------


@dataclass(frozen=True)
class IncludedWord:
    """f equals the word map of ``word`` exactly."""

    word: Word


@dataclass(frozen=True)
class IncludedReflectedWord:
    """f equals word map composed with the reflection about ``center``."""

    word: Word
    center: Fraction


@dataclass(frozen=True)
class ExchangePair:
    """Exact identity f∘φ_branch = φ_target (right-composed with the hull
    reflection when ``reflected``)."""

    branch: Word
    target: Word
    reflected: bool = False


@dataclass(frozen=True)
class IncludedCylinderExchange:
    """f maps each listed cylinder onto a word cylinder, proving inclusion
    without f being a word map itself."""

    pairs: tuple[ExchangePair, ...]


@dataclass(frozen=True)
class ExcludedWitness:
    """A certified attractor point whose image lies strictly inside a gap
    of the depth-``depth`` cover (depth 0 marks escape past the hull)."""

    point: Fraction
    gap: Interval
    depth: int


EmbeddingVerdict = (
    IncludedWord
    | IncludedReflectedWord
    | IncludedCylinderExchange
    | ExcludedWitness
    | UnknownAtDepth
)

INCLUDED_KINDS = (IncludedWord, IncludedReflectedWord, IncludedCylinderExchange)


# -- word matching ----------------------------------------------------------


def _ratio_product_test(
    d: int, gens: Sequence[tuple[int, int]]
) -> Callable[[int, int, int], bool]:
    """A memoised exact test ``is_product(num, den, letters)``: is the
    positive rational num/den a product of at most ``letters`` generator
    ratios, 1 being the empty product?

    Dividing by a generator ratio raises the quotient, so a quotient above
    1 is dead.  Quotients are kept as unreduced int pairs; each step
    multiplies by d/a_i, so a pair depends only on the multiset of letters
    divided out, and the memo is shared by every path to it.  ``d`` and
    ``gens`` are as returned by ``_integer_generators``.
    """
    scaled = sorted({a for a, _ in gens})
    memo: dict[tuple[int, int, int], bool] = {}

    def is_product(num: int, den: int, letters: int) -> bool:
        key = (num, den, letters)
        hit = memo.get(key)
        if hit is None:
            hit = num == den or (
                num < den
                and letters > 0
                and any(is_product(num * d, den * a, letters - 1) for a in scaled)
            )
            memo[key] = hit
        return hit

    return is_product


def _matching_words(ifs: IFS, g: Similitude, limit: int = WORD_LIMIT) -> Iterator[Word]:
    """Words w with word_map(w) == g, lazily, in lexicographic order.

    Depth-first search over prefixes u, trying letters 1..m in order, on
    int prefix maps φ_u(x) = (A*x + C)/d**n (see ``_integer_generators``):
    the child for letter i is (A*a_i, A*c_i + C*d) over d**(n+1).  A prefix
    is dropped when no extension of it can match g, that is when the
    residual ratio g.ratio/R_u is not a product of generator ratios, or
    when g(hull) is not inside φ_u(hull).  Both prunes are exact, so the
    search is complete up to ``limit`` letters.  Every test is an int
    cross-multiplication; a Word is built only for a match.
    """
    if g.ratio <= 0:
        return
    m = ifs.arity
    d, gens = _integer_generators(ifs)
    is_product = _ratio_product_test(d, gens)
    rn, rd = g.ratio.numerator, g.ratio.denominator
    tn, td = g.offset.numerator, g.offset.denominator
    # hull = [L/H, U/H], the depth-0 cover; g(hull) = [GL, GU]/(H*rd*td),
    # and since φ_u is increasing, φ_u(hull) = [A*L + C*H, A*U + C*H]/(H*D)
    hull = lattice_cover(ifs, 0)
    H, L, U = hull.scale, hull.los[0], hull.his[0]
    E = rd * td
    GL, GU = rn * L * td + tn * rd * H, rn * U * td + tn * rd * H

    # (prefix, A, C, D = d**n); popped in preorder, so matches come out
    # in lexicographic order
    stack: list[tuple[tuple[int, ...], int, int, int]] = [((), 1, 0, 1)]
    while stack:
        prefix, A, C, D = stack.pop()
        if A * rd == rn * D and C * td == tn * D:
            yield Word(m, prefix)
            continue
        n = len(prefix)
        if n >= limit or not is_product(rn * D, rd * A, limit - n):
            continue
        CH = C * H
        if (A * L + CH) * E > GL * D or GU * D > (A * U + CH) * E:
            continue
        Cd, Dd = C * d, D * d
        for i in range(m, 0, -1):
            a, c = gens[i - 1]
            stack.append((prefix + (i,), A * a, A * c + Cd, Dd))


def find_matching_words(
    ifs: IFS, g: Similitude, limit: int = WORD_LIMIT
) -> tuple[Word, ...]:
    """All words w with word_map(w) == g, in lexicographic order, up to
    ``limit`` letters.

    The search is exhaustive: its prunes drop only prefixes that no
    extension can turn into g.  On an overlapping system one map can be
    the word map of several words, and all of them are returned.
    """
    return tuple(_matching_words(ifs, g, limit))


def _close_branch(
    ifs: IFS, h: Similitude, sigma: Similitude | None
) -> tuple[Word, bool] | None:
    """First word w with h == φ_w, or h == φ_w∘σ when a certified reflection
    is available; None when the branch stays open."""
    if h.ratio > 0:
        g, reflected = h, False
    elif sigma is not None:
        g, reflected = h.compose(sigma), True
    else:
        return None
    word = next(_matching_words(ifs, g), None)
    return None if word is None else (word, reflected)


# -- check_embedding --------------------------------------------------------


class _WitnessFound(Exception):
    def __init__(self, verdict: ExcludedWitness):
        self.verdict = verdict


def _escape_gap(hull: Interval, y: Fraction) -> Interval:
    if y < hull.lo:
        return Interval(y, hull.lo)
    return Interval(hull.hi, y)


def _hunt_witness(
    hull: Interval,
    covers: Sequence[IntervalSet],
    u_map: Similitude,
    h: Similitude,
    pts: Sequence[Fraction],
) -> ExcludedWitness | None:
    """A point of ``pts`` whose image under h escapes the hull or lies
    strictly inside a gap of the shallowest possible cover; ``covers[n]``
    is the depth-n cover, so ``covers[0]`` is the hull.

    Images ``h(q)`` are kept as unreduced int pairs ``num/den`` with
    ``den > 0`` and located on each cover's lattice, so no Fraction is
    built until a witness is reported.
    """
    a, b = h.ratio.numerator, h.ratio.denominator
    c, d = h.offset.numerator, h.offset.denominator
    ad, cb, bd = a * d, c * b, b * d
    # a point inside the deepest cover lies inside every shallower cover,
    # so only deepest-cover misses can realize a gap witness
    deepest = covers[-1]
    suspects: list[tuple[Fraction, int, int]] = []
    for q in pts:
        qn, qd = q.numerator, q.denominator
        num, den = ad * qn + cb * qd, bd * qd
        if not covers[0].contains(num, den):
            gap = _escape_gap(hull, Fraction(num, den))
            return ExcludedWitness(u_map(q), gap, 0)
        if not deepest.contains(num, den):
            suspects.append((q, num, den))
    for n in range(1, len(covers)):
        for q, num, den in suspects:
            gap = covers[n].gap_at(num, den)
            if gap is not None:
                return ExcludedWitness(u_map(q), gap, n)
    return None


def _check_depths(point_depth: int, cover_depth: int, branch_depth: int) -> None:
    if point_depth < 1 or cover_depth < 1 or branch_depth < 1:
        raise ParameterOutOfRange("depths >= 1 violated")


def check_embedding(
    ifs: IFS,
    f: Similitude,
    point_depth: int = POINT_DEPTH,
    cover_depth: int = COVER_DEPTH,
    branch_depth: int = BRANCH_DEPTH,
    budget: int = DEFAULT_BUDGET,
) -> EmbeddingVerdict:
    """Branch-and-certify decision for f(K) ⊆ K.

    Each branch word u is closed by the exact identity f∘φ_u = φ_w (or
    φ_w∘σ on certified-symmetric systems), refuted by a certified point of
    the u-cylinder mapping strictly into a cover gap, or split into its m
    children up to branch_depth.  A closed root gives a word certificate;
    a fully closed tree gives a cylinder-exchange certificate; any
    refutation is returned immediately; everything else is unknown.
    """
    if not 0 < abs(f.ratio) < 1:
        raise ParameterOutOfRange("0 < |ratio| < 1 violated")
    _check_depths(point_depth, cover_depth, branch_depth)
    sigma = certified_reflection(ifs)
    root_pts = exact_points(ifs, point_depth, budget)
    branch_pts = exact_points(ifs, min(point_depth, 1), budget)
    # refuse the first depth over the budget before any cover is built
    for n in range(cover_depth + 1):
        _check_depth(ifs.arity, n, budget)
    covers = [lattice_cover(ifs, n, budget) for n in range(cover_depth + 1)]

    pairs: list[ExchangePair] = []

    def explore(u: Word, u_map: Similitude, h: Similitude) -> bool:
        closed = _close_branch(ifs, h, sigma)
        if closed is not None:
            target, reflected = closed
            pairs.append(ExchangePair(u, target, reflected))
            return True
        witness = _hunt_witness(
            ifs.hull, covers, u_map, h, root_pts if len(u) <= 1 else branch_pts
        )
        if witness is not None:
            raise _WitnessFound(witness)
        if len(u) >= branch_depth:
            return False
        results = [
            explore(
                u.extended(i),
                u_map.compose(ifs.maps[i - 1]),
                h.compose(ifs.maps[i - 1]),
            )
            for i in range(1, ifs.arity + 1)
        ]
        return all(results)

    try:
        fully_closed = explore(ifs.empty_word(), IDENTITY, f)
    except _WitnessFound as found:
        return found.verdict

    if not fully_closed:
        return UnknownAtDepth(branch_depth)
    if len(pairs) == 1 and not pairs[0].branch.letters:
        root = pairs[0]
        if root.reflected:
            return IncludedReflectedWord(root.target, ifs.center)
        return IncludedWord(root.target)
    return IncludedCylinderExchange(tuple(pairs))


# -- locate_piece -----------------------------------------------------------


def locate_piece(target: IntervalSet, pieces: Sequence[IntervalSet]) -> int:
    """Index of the unique piece containing the target.

    Requires the separation hypothesis: the target's largest gap must be
    smaller than every pairwise distance between pieces, and the target
    must lie inside the union.  Under those hypotheses a single piece
    contains the whole target.
    """
    if len(pieces) < 2:
        raise ParameterOutOfRange("at least two pieces violated")
    if target.is_empty:
        raise EmptySet("cannot locate an empty target")
    target_gap = target.largest_gap()
    min_dist = min(
        pieces[i].dist(pieces[j])
        for i in range(len(pieces))
        for j in range(i + 1, len(pieces))
    )
    if not target_gap < min_dist:
        raise HypothesisViolated(
            f"target largest gap {target_gap} is not below "
            f"the minimal piece distance {min_dist}"
        )
    union = reduce(IntervalSet.union, pieces)
    if not union.includes(target):
        stray = next(p for p in target.parts if not union.includes(IntervalSet((p,))))
        raise NotCovered(f"target part {stray} escapes the union of the pieces")
    for idx, piece in enumerate(pieces):
        if piece.includes(target):
            return idx
    raise AssertionError("separation hypothesis guarantees a containing piece")


# -- decompose --------------------------------------------------------------


def decompose(
    ifs: IFS,
    f: Similitude,
    max_steps: int = MAX_STEPS,
    point_depth: int = POINT_DEPTH,
    cover_depth: int = COVER_DEPTH,
    branch_depth: int = BRANCH_DEPTH,
    budget: int = DEFAULT_BUDGET,
) -> EmbeddingVerdict:
    """Greedy longest-word descent.

    Divide out the unique generator whose hull interval contains the
    residual's hull image; a residual of ratio exactly ±1 must be the
    identity (word certificate) or the certified reflection (reflected
    word).  When containment fails or is ambiguous beyond refinement the
    full branch-and-certify check takes over; that is where the exchange
    maps of the four-map system land.
    """
    if not 0 < abs(f.ratio) < 1:
        raise ParameterOutOfRange("0 < |ratio| < 1 violated")
    _check_depths(point_depth, cover_depth, branch_depth)
    if max_steps < 1:
        raise ParameterOutOfRange("max_steps >= 1 violated")
    hull = ifs.hull

    def fallback() -> EmbeddingVerdict:
        return check_embedding(
            ifs, f, point_depth, cover_depth, branch_depth, budget
        )

    g = f
    letters: list[int] = []
    for _ in range(max_steps):
        if abs(g.ratio) == 1:
            word = Word(ifs.arity, tuple(letters))
            if g == IDENTITY:
                return IncludedWord(word)
            if g == certified_reflection(ifs):
                return IncludedReflectedWord(word, ifs.center)
            return fallback()
        image = g.map_interval(hull)
        cands = [
            i
            for i, child in enumerate(ifs.maps, start=1)
            if child.map_interval(hull).contains_interval(image)
        ]
        if len(cands) > 1:
            cands = _refine_by_location(ifs, g, cands, cover_depth, budget)
        if len(cands) != 1:
            return fallback()
        child = ifs.maps[cands[0] - 1]
        g = child.invert().compose(g)
        letters.append(cands[0])
    raise StepBudgetExceeded(f"no decomposition within {max_steps} steps")


def _refine_by_location(
    ifs: IFS, g: Similitude, cands: list[int], cover_depth: int, budget: int
) -> list[int]:
    """Disambiguate overlapping hull containment via the separation lemma
    on cover-refined images.  Returns a single candidate on success, the
    original list otherwise."""
    deep = lattice_cover(ifs, cover_depth, budget)
    shallow = lattice_cover(ifs, cover_depth - 1, budget)
    target = deep.affine(g.ratio, g.offset)
    pieces = [shallow.affine(f.ratio, f.offset) for f in ifs.maps]
    try:
        return [locate_piece(target, pieces) + 1]
    except (HypothesisViolated, NotCovered):
        return cands


# -- enumerate_embeddings ---------------------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    """Feasible offsets for one signed ratio."""

    ratio: Fraction
    certified: tuple[tuple[Similitude, EmbeddingVerdict], ...]
    candidates: tuple[Interval, ...]
    point_depth: int
    cover_depth: int

    @property
    def certified_offsets(self) -> tuple[Fraction, ...]:
        return tuple(f.offset for f, _ in self.certified)


def enumerate_embeddings(
    ifs: IFS,
    ratio,
    point_depth: int = POINT_DEPTH,
    cover_depth: int = COVER_DEPTH,
    branch_depth: int = BRANCH_DEPTH,
    budget: int = DEFAULT_BUDGET,
) -> EnumerationResult:
    """All offsets t for which x -> ratio*x + t can embed the attractor.

    Constraint propagation: each certified point p forces the offset into
    the cover translated by -ratio*p, and the hull must map into itself.
    The intersection of all constraints is exact; single-point components
    are then settled by check_embedding, wider components are reported as
    candidates for the caller to refine with larger depths.  Every true
    embedding offset satisfies every constraint, so nothing sound is lost.
    """
    ratio = Fraction(ratio)
    if not 0 < abs(ratio) < 1:
        raise ParameterOutOfRange("0 < |ratio| < 1 violated")
    _check_depths(point_depth, cover_depth, branch_depth)
    hull = ifs.hull
    parts = lattice_cover(ifs, cover_depth, budget)
    pts = exact_points(ifs, point_depth, budget)

    # the offsets that put ratio*hull inside the hull
    image = Similitude(ratio, Fraction(0)).map_interval(hull)
    feasible = IntervalSet((Interval(hull.lo - image.lo, hull.hi - image.hi),))

    # the points and the center as ints over one denominator, farthest
    # from the center first; point p forces the shift -ratio*p
    den = lcm(ifs.center.denominator, *(q.denominator for q in pts))
    center = ifs.center.numerator * (den // ifs.center.denominator)
    ordered = sorted(
        (q.numerator * (den // q.denominator) for q in pts),
        key=lambda x: (-abs(x - center), x),
    )
    # one common lattice for the offsets: the cover scale (a multiple of
    # every shallower cover's), the feasible interval and the shifts
    shift_den = ratio.denominator * den
    scale = lcm(parts.scale, shift_den, feasible.scale)
    lift = -ratio.numerator * (scale // shift_den)
    steps = [lift * x for x in ordered]
    remaining = feasible.on_lattice(scale)
    # coarse warm-up: the depth-4 cover is a superset of the full one, so
    # these extra constraints shrink the offset set without changing the
    # final intersection, and keep the fine-grained passes cheap
    coarse = lattice_cover(ifs, min(cover_depth, 4), budget)
    for step in steps[:2]:
        remaining = _intersect_shifted(remaining, coarse, step)
    for step in steps:
        remaining = _intersect_shifted(remaining, parts, step)
        if not remaining:
            break

    certified: list[tuple[Similitude, EmbeddingVerdict]] = []
    candidates: list[Interval] = []
    for component in remaining:
        if component.lo == component.hi:
            f = Similitude(ratio, component.lo)
            verdict = check_embedding(
                ifs, f, point_depth, cover_depth, branch_depth, budget
            )
            if isinstance(verdict, INCLUDED_KINDS):
                certified.append((f, verdict))
            elif isinstance(verdict, UnknownAtDepth):
                candidates.append(component)
            # an ExcludedWitness settles the point: drop it
        else:
            candidates.append(component)
    return EnumerationResult(
        ratio=ratio,
        certified=tuple(certified),
        candidates=tuple(candidates),
        point_depth=point_depth,
        cover_depth=cover_depth,
    )


# -- serialization ----------------------------------------------------------


def verdict_record(verdict: EmbeddingVerdict) -> dict:
    """JSON-ready description of a verdict; rationals as "p/q" strings."""
    if isinstance(verdict, IncludedWord):
        return {"kind": "included-word", "word": list(verdict.word.letters)}
    if isinstance(verdict, IncludedReflectedWord):
        return {
            "kind": "included-reflected-word",
            "word": list(verdict.word.letters),
            "center": format_rational(verdict.center),
        }
    if isinstance(verdict, IncludedCylinderExchange):
        return {
            "kind": "included-cylinder-exchange",
            "pairs": [
                {
                    "branch": list(p.branch.letters),
                    "target": list(p.target.letters),
                    "reflected": p.reflected,
                }
                for p in verdict.pairs
            ],
        }
    if isinstance(verdict, ExcludedWitness):
        return {
            "kind": "excluded-witness",
            "point": format_rational(verdict.point),
            "gap": [format_rational(verdict.gap.lo), format_rational(verdict.gap.hi)],
            "depth": verdict.depth,
        }
    if isinstance(verdict, UnknownAtDepth):
        return {"kind": "unknown-at-depth", "depth": verdict.depth}
    raise TypeError(f"not a verdict: {verdict!r}")


def enumeration_record(result: EnumerationResult) -> dict:
    """JSON-ready description of an enumeration result."""
    return {
        "kind": "enumeration",
        "ratio": format_rational(result.ratio),
        "certified": [
            {"offset": format_rational(f.offset), "verdict": verdict_record(v)}
            for f, v in result.certified
        ],
        "candidates": [
            [format_rational(c.lo), format_rational(c.hi)]
            for c in result.candidates
        ],
        "point_depth": result.point_depth,
        "cover_depth": result.cover_depth,
    }


# -- mirror reduction -------------------------------------------------------


@dataclass(frozen=True)
class MirrorReduction:
    """Conjugated problem over the mirrored system.

    Any word answer w for ``conjugate`` pulls back to mirror_word(w) for
    the original map; the round trip f = σ∘conjugate∘σ is exact.
    """

    mirrored: IFS
    conjugate: Similitude
    reflection: Similitude

    def translate_word(self, word: Word) -> Word:
        return mirror_word(word)


def mirror_reduce(ifs: IFS, f: Similitude) -> MirrorReduction:
    """Reduce the upper offset range of the three-map family to the lower.

    Only systems with the middle offset above the symmetric value have
    anything to reduce; everything else is rejected.
    """
    if ifs.family != "three-map":
        raise WrongFamilyRange("mirror reduction applies to the three-map family only")
    rho = ifs.maps[0].ratio
    lam = ifs.maps[1].offset
    if not lam > (1 - rho) / 2:
        raise WrongFamilyRange(
            f"lambda > (1 - rho)/2 violated: lambda = {lam}, rho = {rho}"
        )
    mirrored, sigma = mirror(ifs)
    conjugate = sigma.compose(f).compose(sigma)
    return MirrorReduction(mirrored=mirrored, conjugate=conjugate, reflection=sigma)
