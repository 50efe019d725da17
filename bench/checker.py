"""Independent re-checker for selfsim answers.

Everything here is plain ``fractions.Fraction`` arithmetic written for the
benchmark; nothing is imported from ``selfsim``.  A system is a tuple of
``(ratio, offset)`` pairs, a map is one such pair, and verdicts arrive in
the JSON record form that ``selfsim`` prints with ``--format record``
(rationals as ``"p/q"`` strings).  Every check returns ``None`` when the
answer holds and a one-line reason when it does not.
"""

from __future__ import annotations

from fractions import Fraction

IDENTITY = (Fraction(1), Fraction(0))


def q(text) -> Fraction:
    return Fraction(text)


def parse_spec(text: str) -> tuple[tuple[Fraction, Fraction], ...]:
    """The maps of a spec file: header line, then one ``ratio offset`` a line."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    return tuple((q(r), q(t)) for r, t in (ln.split() for ln in lines[1:]))


def compose(f, g):
    """f after g."""
    return (f[0] * g[0], f[0] * g[1] + f[1])


def apply(f, x: Fraction) -> Fraction:
    return f[0] * x + f[1]


def word_map(maps, word) -> tuple[Fraction, Fraction]:
    acc = IDENTITY
    for letter in word:
        acc = compose(acc, maps[letter - 1])
    return acc


def image(f, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    a, b = apply(f, lo), apply(f, hi)
    return (a, b) if a <= b else (b, a)


def fixed_point(f) -> Fraction:
    return f[1] / (1 - f[0])


def hull(maps) -> tuple[Fraction, Fraction]:
    fixed = [fixed_point(f) for f in maps]
    return min(fixed), max(fixed)


def reflection(maps) -> tuple[Fraction, Fraction]:
    lo, hi = hull(maps)
    return (Fraction(-1), lo + hi)


def mirror_symmetric(maps) -> bool:
    """True when conjugating every map by the hull reflection gives the
    same set of maps, which makes the attractor symmetric."""
    sigma = reflection(maps)
    mirrored = {compose(compose(sigma, f), sigma) for f in maps}
    return mirrored == set(maps)


def words_with_ratio(maps, target: Fraction):
    """All nonempty words whose ratio product is ``target``."""
    out = []

    def rec(prefix, prod):
        if prod == target and prefix:
            out.append(prefix)
            return
        if prod < target:
            return
        for i, (r, _t) in enumerate(maps, start=1):
            rec(prefix + (i,), prod * r)

    rec((), Fraction(1))
    return out


# -- verdicts ---------------------------------------------------------------


def _included_word(maps, f, rec) -> str | None:
    word = tuple(rec["word"])
    if rec["kind"] == "included-word":
        if word_map(maps, word) != f:
            return f"word {list(word)} does not rebuild the map"
        return None
    if not mirror_symmetric(maps):
        return "reflected word on a system that is not mirror symmetric"
    lo, hi = hull(maps)
    if q(rec["center"]) != (lo + hi) / 2:
        return "reflection center is not the hull center"
    if compose(word_map(maps, word), reflection(maps)) != f:
        return f"reflected word {list(word)} does not rebuild the map"
    return None


def _exchange(maps, f, rec) -> str | None:
    pairs = rec["pairs"]
    if not pairs:
        return "empty exchange certificate"
    m = len(maps)
    branches = [tuple(p["branch"]) for p in pairs]
    if len(set(branches)) != len(branches):
        return "repeated branch word"
    for a in branches:
        for b in branches:
            if a != b and b[: len(a)] == a:
                return f"branch {list(a)} is a prefix of {list(b)}"
    if sum(Fraction(1, m ** len(b)) for b in branches) != 1:
        return "branch words are not a complete prefix code"
    sigma = reflection(maps)
    if any(p["reflected"] for p in pairs) and not mirror_symmetric(maps):
        return "reflected pair on a system that is not mirror symmetric"
    for p in pairs:
        target = word_map(maps, p["target"])
        if p["reflected"]:
            target = compose(target, sigma)
        if compose(f, word_map(maps, p["branch"])) != target:
            return f"identity fails on branch {p['branch']}"
    return None


def _reaches_point(maps, point: Fraction, max_len: int) -> bool:
    """Is ``point`` a word image of a generator fixed point, with a word of
    at most ``max_len`` letters?  Breadth-first over distinct word maps,
    keeping only those whose hull image contains the point."""
    lo, hi = hull(maps)
    fixed = [fixed_point(g) for g in maps]
    frontier = {IDENTITY}
    for length in range(max_len + 1):
        for w in frontier:
            if any(apply(w, x) == point for x in fixed):
                return True
        if length == max_len:
            break
        nxt = set()
        for w in frontier:
            for g in maps:
                h = compose(w, g)
                a, b = image(h, lo, hi)
                if a <= point <= b:
                    nxt.add(h)
        frontier = nxt
    return False


def _cylinders_meet(maps, depth: int, gap_lo: Fraction, gap_hi: Fraction) -> bool:
    """Does any depth-``depth`` cylinder image of the hull meet the open
    interval (gap_lo, gap_hi)?  Pruned descent over distinct word maps."""
    lo, hi = hull(maps)
    frontier = {IDENTITY}
    for _ in range(depth):
        nxt = set()
        for w in frontier:
            for g in maps:
                h = compose(w, g)
                a, b = image(h, lo, hi)
                if b > gap_lo and a < gap_hi:
                    nxt.add(h)
        frontier = nxt
        if not frontier:
            return False
    return True


def _witness(maps, f, rec, depths) -> str | None:
    point = q(rec["point"])
    gap_lo, gap_hi = (q(x) for x in rec["gap"])
    depth = rec["depth"]
    y = apply(f, point)
    max_len = depths["point_depth"] + depths["branch_depth"]
    if not _reaches_point(maps, point, max_len):
        return f"point {rec['point']} is not a word image of a fixed point"
    lo, hi = hull(maps)
    if depth == 0:
        if not (y < lo or y > hi):
            return "depth-0 witness image lies in the hull"
        if (gap_lo, gap_hi) not in ((y, lo), (hi, y)):
            return "depth-0 gap is not the span from the image to the hull"
        return None
    if not gap_lo < y < gap_hi:
        return "image of the point is not strictly inside the gap"
    if _cylinders_meet(maps, depth, gap_lo, gap_hi):
        return f"a depth-{depth} cylinder meets the gap"
    return None


def check_verdict(maps, f, rec: dict, depths: dict) -> str | None:
    """Re-check one verdict record for the map ``f`` on ``maps``."""
    kind = rec.get("kind")
    if kind in ("included-word", "included-reflected-word"):
        return _included_word(maps, f, rec)
    if kind == "included-cylinder-exchange":
        return _exchange(maps, f, rec)
    if kind == "excluded-witness":
        return _witness(maps, f, rec, depths)
    if kind == "unknown-at-depth":
        return None
    return f"unrecognised verdict kind {kind!r}"


def verdict_class(rec: dict) -> str:
    kind = rec.get("kind", "")
    if kind.startswith("included"):
        return "included"
    if kind.startswith("excluded"):
        return "excluded"
    return "unknown"


def check_enumeration(maps, ratio: Fraction, rec: dict, depths: dict) -> str | None:
    """The certified set must be the word inventory at |ratio| (composed
    with the hull reflection for negative ratios on mirror-symmetric
    systems, empty otherwise), with no candidates, and every certificate
    must re-check.  This is the inventory the paper's theorems give for the
    tagged families; callers use it only there."""
    if rec["candidates"]:
        return f"{len(rec['candidates'])} unresolved candidates"
    words = words_with_ratio(maps, abs(ratio))
    expected = {word_map(maps, w) for w in words}
    if ratio < 0:
        sigma = reflection(maps)
        expected = (
            {compose(g, sigma) for g in expected} if mirror_symmetric(maps) else set()
        )
    got = {(ratio, q(c["offset"])) for c in rec["certified"]}
    if got != expected:
        return f"certified {len(got)} maps, inventory has {len(expected)}"
    for c in rec["certified"]:
        why = check_verdict(maps, (ratio, q(c["offset"])), c["verdict"], depths)
        if why:
            return f"offset {c['offset']}: {why}"
    return None


def check_dimension(maps, tol: Fraction, lo: Fraction, hi: Fraction) -> str | None:
    """For m maps of one ratio a/b the dimension s solves m*(a/b)**s = 1;
    s >= p/k  iff  m**k * a**p >= b**p, an exact integer test."""
    ratios = {r for r, _t in maps}
    if len(ratios) != 1:
        return "dimension check needs equal ratios"
    (r,) = ratios
    m, a, b = len(maps), r.numerator, r.denominator
    if not 0 <= lo <= hi or hi - lo > tol:
        return "enclosure is empty, negative or wider than tol"

    def at_or_below_root(s: Fraction) -> bool:
        p, k = s.numerator, s.denominator
        return m**k * a**p >= b**p

    def at_or_above_root(s: Fraction) -> bool:
        p, k = s.numerator, s.denominator
        return m**k * a**p <= b**p

    if not at_or_below_root(lo):
        return f"lower end {lo} lies above the dimension"
    if not at_or_above_root(hi):
        return f"upper end {hi} lies below the dimension"
    return None


def cover_parts(maps, depth: int) -> list[tuple[Fraction, Fraction]]:
    """Union of the depth-``depth`` cylinder images of the hull, merged."""
    lo, hi = hull(maps)
    frontier = {IDENTITY}
    for _ in range(depth):
        frontier = {compose(w, g) for w in frontier for g in maps}
    out: list[list[Fraction]] = []
    for a, b in sorted(image(w, lo, hi) for w in frontier):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def check_cover(maps, depth: int, rec: dict) -> str | None:
    parts = cover_parts(maps, depth)
    got = [(q(a), q(b)) for a, b in rec["parts"]]
    if got != parts:
        return f"cover has {len(got)} parts, expected {len(parts)}"
    if rec["piece_count"] != len(parts):
        return "piece_count disagrees with the parts"
    gaps = [b[0] - a[1] for a, b in zip(parts, parts[1:])]
    if q(rec["largest_gap"]) != max(gaps, default=Fraction(0)):
        return "largest_gap disagrees with the parts"
    return None


# -- negative control -------------------------------------------------------

_THREE = ((Fraction(1, 5), Fraction(0)), (Fraction(1, 5), Fraction(3, 10)),
          (Fraction(1, 5), Fraction(4, 5)))
_FOUR = tuple((Fraction(1, 10), Fraction(t)) for t in ("0", "1/10", "1/2", "3/5"))
_DEPTHS = {"point_depth": 4, "cover_depth": 8, "branch_depth": 6}


def _samples():
    """Known-true certificates, each with corrupted copies that must fail."""
    word_f = (Fraction(1, 25), Fraction(23, 50))
    word = {"kind": "included-word", "word": [2, 3]}
    yield "word", _THREE, word_f, word, [
        ("shifted offset", (word_f[0], word_f[1] + Fraction(1, 1000)), word),
    ]
    wit_f = (Fraction(1, 5), Fraction(3, 5))
    wit = {"kind": "excluded-witness", "point": "0", "gap": ["1/2", "4/5"], "depth": 1}
    yield "witness", _THREE, wit_f, wit, [
        ("shrunk gap", wit_f, {**wit, "gap": ["1/2", "3/5"]}),
        ("widened gap", wit_f, {**wit, "gap": ["1/2", "17/20"]}),
        ("unreachable point", wit_f, {**wit, "point": "1/7"}),
    ]
    g1 = (Fraction(1, 10), Fraction(1, 20))
    pairs = [
        {"branch": [b], "target": t, "reflected": False}
        for b, t in ((1, [1, 3]), (2, [1, 4]), (3, [2, 1]), (4, [2, 2]))
    ]
    ex = {"kind": "included-cylinder-exchange", "pairs": pairs}
    yield "exchange", _FOUR, g1, ex, [
        ("dropped branch", g1, {**ex, "pairs": pairs[:-1]}),
        ("shifted offset", (g1[0], g1[1] + Fraction(1, 100)), ex),
    ]


def negative_control() -> list[str]:
    """Problems with the checker itself: a true certificate it rejects, or a
    corrupted one it accepts.  Empty when the checker is sound on the
    samples."""
    problems = []
    for name, maps, f, rec, corrupted in _samples():
        why = check_verdict(maps, f, rec, _DEPTHS)
        if why:
            problems.append(f"true {name} certificate rejected: {why}")
        for label, bad_f, bad_rec in corrupted:
            if check_verdict(maps, bad_f, bad_rec, _DEPTHS) is None:
                problems.append(f"{name} with {label} was accepted")
    return problems
