"""Executable statements of the embedding characterizations.

Each harness builds its expected inventory independently of the search
engine (from words, reflections, and exchange generators), runs the
engine, and reports exact set comparisons.  A report passes only when
every inventory row and every side check holds; unresolved candidates
count as failure.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce

from .cover import cover
from .embedding import (
    MAX_STEPS,
    Depths,
    EmbeddingVerdict,
    ExchangePair,
    IncludedCylinderExchange,
    IncludedWord,
    check_embedding,
    decompose,
    enumerate_embeddings,
    mirror_reduce,
)
from .errors import ParameterOutOfRange
from .intervals import IntervalSet
from .rationals import format_rational
from .similitudes import (
    IFS,
    Similitude,
    SymmetricCertified,
    Word,
    equal_gap,
    four_map_example,
    homogeneous_grid,
    is_symmetric,
    mirror,
    three_map,
    two_map,
    word_map,
)


class TheoremId(enum.Enum):
    Thm1_1i = "Thm1_1i"
    Thm1_1ii = "Thm1_1ii"
    Thm1_2 = "Thm1_2"
    Cor1_3i = "Cor1_3i"
    Cor1_3ii = "Cor1_3ii"
    Example1_4 = "Example1_4"


@dataclass(frozen=True)
class InventoryRow:
    """Expected versus certified embeddings at one signed ratio."""

    exponent: int
    ratio: Fraction
    expected: tuple[Similitude, ...]
    actual: tuple[Similitude, ...]

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    @property
    def label(self) -> str:
        sign = "+" if self.ratio > 0 else "-"
        return f"{sign}{format_rational(abs(self.ratio))}"


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: TheoremId
    params: tuple[tuple[str, str], ...]
    rows: tuple[InventoryRow, ...]
    checks: tuple[Check, ...]
    depths: Depths

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows) and all(c.ok for c in self.checks)


def _sorted_maps(maps) -> tuple[Similitude, ...]:
    return tuple(sorted(maps, key=lambda f: (f.ratio, f.offset)))


def _words_of_length(ifs: IFS, k: int) -> list[Word]:
    return [
        Word(ifs.arity, letters)
        for letters in itertools.product(range(1, ifs.arity + 1), repeat=k)
    ]


def words_with_ratio_product(ifs: IFS, target: Fraction) -> list[Word]:
    """All nonempty words whose generator-ratio product equals target.

    Products shrink strictly along every branch, so the search tree is
    finite and the list complete regardless of word length.
    """
    if not 0 < target < 1:
        raise ParameterOutOfRange("0 < target < 1 violated")
    out: list[Word] = []

    def rec(prefix: tuple[int, ...], prod: Fraction) -> None:
        if prod == target:
            out.append(Word(ifs.arity, prefix))
            return
        if prod < target:
            return
        for i, f in enumerate(ifs.maps, start=1):
            rec(prefix + (i,), prod * f.ratio)

    rec((), Fraction(1))
    return out


def _enumerate_row(
    ifs: IFS,
    exponent: int,
    ratio: Fraction,
    expected,
    depths: Depths,
) -> tuple[InventoryRow, list[Check], list[tuple[Similitude, EmbeddingVerdict]]]:
    result = enumerate_embeddings(ifs, ratio, *depths)
    row = InventoryRow(
        exponent=exponent,
        ratio=ratio,
        expected=_sorted_maps(expected),
        actual=_sorted_maps(f for f, _ in result.certified),
    )
    checks = []
    if result.candidates:
        checks.append(
            Check(
                f"resolved at {row.label}",
                False,
                f"{len(result.candidates)} unresolved candidates; "
                f"raise point/cover/branch depths beyond {depths[:3]}",
            )
        )
    return row, checks, list(result.certified)


def _cross_check(ifs: IFS, certified, depths: Depths) -> Check:
    """decompose and check_embedding must agree on the verdict kind for
    every certified map."""
    for f, verdict in certified:
        alt = decompose(ifs, f, MAX_STEPS, *depths)
        if type(alt) is not type(verdict):
            return Check(
                "decompose agrees with check_embedding",
                False,
                f"map {f}: {type(alt).__name__} vs {type(verdict).__name__}",
            )
    return Check(
        "decompose agrees with check_embedding", True, f"{len(certified)} maps"
    )


# -- three-map family -------------------------------------------------------


def verify_three_map(
    rho, lam, k_max: int = 2, depths: Depths = Depths()
) -> TheoremReport:
    """Certify that the only embeddings of ratio ±rho^k are the word maps,
    joined by their reflections exactly in the symmetric case."""
    if k_max < 1:
        raise ParameterOutOfRange("k_max >= 1 violated")
    ifs = three_map(rho, lam)
    rho = ifs.maps[0].ratio
    lam = ifs.maps[1].offset
    symmetric = lam == (1 - rho) / 2
    sigma = ifs.reflection()

    rows: list[InventoryRow] = []
    checks: list[Check] = []
    certified: list[tuple[Similitude, EmbeddingVerdict]] = []
    for k in range(1, k_max + 1):
        words = _words_of_length(ifs, k)
        plus = [word_map(ifs, w) for w in words]
        minus = [word_map(ifs, w).compose(sigma) for w in words] if symmetric else []
        for ratio, expected in ((rho**k, plus), (-(rho**k), minus)):
            row, row_checks, row_cert = _enumerate_row(
                ifs, k, ratio, expected, depths
            )
            rows.append(row)
            checks.extend(row_checks)
            certified.extend(row_cert)

    if lam > (1 - rho) / 2:
        checks.append(_mirror_agreement(ifs, rows, depths))
    checks.append(_cross_check(ifs, certified, depths))

    return TheoremReport(
        theorem_id=TheoremId.Thm1_1ii if symmetric else TheoremId.Thm1_1i,
        params=(
            ("rho", format_rational(rho)),
            ("lambda", format_rational(lam)),
            ("k_max", str(k_max)),
        ),
        rows=tuple(rows),
        checks=tuple(checks),
        depths=depths,
    )


def _mirror_agreement(ifs: IFS, rows, depths: Depths) -> Check:
    """Upper-range systems must reproduce their inventory through the
    mirrored problem, with word answers relabeled letterwise."""
    mirrored, sigma = mirror(ifs)
    for row in rows:
        result = enumerate_embeddings(mirrored, row.ratio, *depths)
        pulled_back = _sorted_maps(
            sigma.compose(g).compose(sigma) for g, _ in result.certified
        )
        if pulled_back != row.actual:
            return Check(
                "mirror reduction agrees with direct enumeration",
                False,
                f"at ratio {row.label}: {len(pulled_back)} mirrored "
                f"vs {len(row.actual)} direct",
            )
    for row in rows:
        for f in row.actual:
            reduction = mirror_reduce(ifs, f)
            if sigma.compose(reduction.conjugate).compose(sigma) != f:
                return Check(
                    "mirror reduction agrees with direct enumeration",
                    False,
                    f"round trip failed for {f}",
                )
            verdict = check_embedding(
                reduction.mirrored, reduction.conjugate, *depths
            )
            if not isinstance(verdict, IncludedWord):
                return Check(
                    "mirror reduction agrees with direct enumeration",
                    False,
                    f"conjugate of {f} not a word map on the mirror",
                )
            back = reduction.translate_word(verdict.word)
            if word_map(ifs, back) != f:
                return Check(
                    "mirror reduction agrees with direct enumeration",
                    False,
                    f"translated word {back} does not rebuild {f}",
                )
    return Check("mirror reduction agrees with direct enumeration", True)


# -- equal-gap family -------------------------------------------------------


def _inventory_rows(
    ifs: IFS, k_budget: int, expect_reflections: bool, depths: Depths
):
    sigma = ifs.reflection()
    products = sorted(
        {
            word_map(ifs, w).ratio
            for k in range(1, k_budget + 1)
            for w in _words_of_length(ifs, k)
        },
        reverse=True,
    )
    rows: list[InventoryRow] = []
    checks: list[Check] = []
    certified: list[tuple[Similitude, EmbeddingVerdict]] = []
    for r in products:
        words = words_with_ratio_product(ifs, r)
        plus = [word_map(ifs, w) for w in words]
        minus = (
            [word_map(ifs, w).compose(sigma) for w in words]
            if expect_reflections
            else []
        )
        exponent = min(len(w) for w in words)
        for ratio, expected in ((r, plus), (-r, minus)):
            row, row_checks, row_cert = _enumerate_row(
                ifs, exponent, ratio, expected, depths
            )
            rows.append(row)
            checks.extend(row_checks)
            certified.extend(row_cert)
    checks.append(_cross_check(ifs, certified, depths))
    return rows, checks


def verify_equal_gap(
    ratios, k_budget: int = 2, depths: Depths = Depths()
) -> TheoremReport:
    """Equal-gap systems admit exactly the word maps, joined by reflected
    word maps exactly when the ratio list is palindromic."""
    if k_budget < 1:
        raise ParameterOutOfRange("k_budget >= 1 violated")
    ifs = equal_gap(ratios)
    rs = tuple(f.ratio for f in ifs.maps)
    palindromic = rs == rs[::-1]
    rows, checks = _inventory_rows(ifs, k_budget, palindromic, depths)
    return TheoremReport(
        theorem_id=TheoremId.Thm1_2,
        params=(
            ("ratios", " ".join(format_rational(r) for r in rs)),
            ("palindromic", str(palindromic).lower()),
            ("k_budget", str(k_budget)),
        ),
        rows=tuple(rows),
        checks=tuple(checks),
        depths=depths,
    )


# -- corollary variants -----------------------------------------------------


@dataclass(frozen=True)
class TwoMap:
    alpha: Fraction
    beta: Fraction

    def __init__(self, alpha, beta):
        object.__setattr__(self, "alpha", Fraction(alpha))
        object.__setattr__(self, "beta", Fraction(beta))


@dataclass(frozen=True)
class Grid:
    beta: Fraction
    m: int

    def __init__(self, beta, m: int):
        object.__setattr__(self, "beta", Fraction(beta))
        object.__setattr__(self, "m", int(m))


def verify_corollary(
    variant: TwoMap | Grid, k_max: int = 2, depths: Depths = Depths()
) -> TheoremReport:
    """Two anchored maps of distinct ratios admit words only; the uniform
    grid admits words and their reflections."""
    if k_max < 1:
        raise ParameterOutOfRange("k_max >= 1 violated")
    if isinstance(variant, TwoMap):
        if variant.alpha == variant.beta:
            raise ParameterOutOfRange("alpha != beta violated")
        ifs = two_map(variant.alpha, variant.beta)
        theorem_id = TheoremId.Cor1_3i
        expect_reflections = False
        params = (
            ("alpha", format_rational(variant.alpha)),
            ("beta", format_rational(variant.beta)),
            ("k_max", str(k_max)),
        )
    elif isinstance(variant, Grid):
        ifs = homogeneous_grid(variant.beta, variant.m)
        theorem_id = TheoremId.Cor1_3ii
        expect_reflections = True
        params = (
            ("beta", format_rational(variant.beta)),
            ("m", str(variant.m)),
            ("k_max", str(k_max)),
        )
    else:
        raise ParameterOutOfRange("variant must be TwoMap or Grid")
    rows, checks = _inventory_rows(ifs, k_max, expect_reflections, depths)
    return TheoremReport(
        theorem_id=theorem_id,
        params=params,
        rows=tuple(rows),
        checks=tuple(checks),
        depths=depths,
    )


# -- four-map example -------------------------------------------------------

FOUR_MAP_PLUS_OFFSETS = (
    Fraction(0),
    Fraction(1, 20),
    Fraction(1, 10),
    Fraction(1, 2),
    Fraction(11, 20),
    Fraction(3, 5),
)
FOUR_MAP_MINUS_OFFSETS = (
    Fraction(1, 15),
    Fraction(7, 60),
    Fraction(1, 6),
    Fraction(17, 30),
    Fraction(37, 60),
    Fraction(2, 3),
)
FOUR_MAP_SCALE_TRANSLATES = (Fraction(0), Fraction(1), Fraction(5), Fraction(6))
G1_PAIRS = ((1, (1, 3)), (2, (1, 4)), (3, (2, 1)), (4, (2, 2)))
G2_PAIRS = ((1, (3, 3)), (2, (3, 4)), (3, (4, 1)), (4, (4, 2)))


def _exchange_generator(ifs: IFS, pairs) -> Similitude:
    """The unique similitude sending cylinder 'branch' onto cylinder
    'target' for the first pair; the remaining pairs are consistency
    constraints checked by the harness."""
    branch, target = pairs[0]
    return word_map(ifs, Word(ifs.arity, target)).compose(
        ifs.maps[branch - 1].invert()
    )


def _exchange_check(ifs: IFS, name: str, g: Similitude, pairs, verdict) -> Check:
    label = f"{name} cylinder exchange"
    if not isinstance(verdict, IncludedCylinderExchange):
        return Check(label, False, f"verdict {type(verdict).__name__}")
    expected = tuple(
        ExchangePair(Word(ifs.arity, (b,)), Word(ifs.arity, w)) for b, w in pairs
    )
    if verdict.pairs != expected:
        return Check(label, False, f"pairs {verdict.pairs}")
    for b, w in pairs:
        lhs = g.compose(ifs.maps[b - 1])
        rhs = word_map(ifs, Word(ifs.arity, w))
        if lhs != rhs:
            return Check(label, False, f"composition fails at branch {b}")
    return Check(label, True)


def verify_example_four_map(depths: Depths = Depths()) -> TheoremReport:
    """The four-map decimal system: scaled-union self-similarity, the six
    embeddings per sign at ratio 1/10, the two exchange generators, and
    the certified symmetry center."""
    ifs = four_map_example()
    r = ifs.maps[0].ratio
    sigma = ifs.reflection()
    checks: list[Check] = []

    for n in range(1, 7):
        scaled = cover(ifs, n, depths.budget).parts.affine(Fraction(10), Fraction(0))
        shallow = cover(ifs, n - 1, depths.budget).parts
        translated = reduce(
            IntervalSet.union, (shallow.translate(s) for s in FOUR_MAP_SCALE_TRANSLATES)
        )
        checks.append(
            Check(
                f"scaled union identity at depth {n}",
                scaled == translated,
                "" if scaled == translated else f"{scaled} vs {translated}",
            )
        )

    g1 = _exchange_generator(ifs, G1_PAIRS)
    g2 = _exchange_generator(ifs, G2_PAIRS)
    plus = [*ifs.maps, g1, g2]
    minus = [f.compose(sigma) for f in plus]

    checks.append(
        Check(
            "pinned offsets at +1/10",
            tuple(f.offset for f in _sorted_maps(plus)) == FOUR_MAP_PLUS_OFFSETS,
        )
    )
    checks.append(
        Check(
            "pinned offsets at -1/10",
            tuple(f.offset for f in _sorted_maps(minus)) == FOUR_MAP_MINUS_OFFSETS,
        )
    )

    rows: list[InventoryRow] = []
    certified: list[tuple[Similitude, EmbeddingVerdict]] = []
    for ratio, expected in ((r, plus), (-r, minus)):
        row, row_checks, row_cert = _enumerate_row(ifs, 1, ratio, expected, depths)
        rows.append(row)
        checks.extend(row_checks)
        certified.extend(row_cert)

    for name, g, pairs in (("g1", g1, G1_PAIRS), ("g2", g2, G2_PAIRS)):
        verdict = check_embedding(ifs, g, *depths)
        checks.append(_exchange_check(ifs, name, g, pairs, verdict))

    sym = is_symmetric(ifs)
    sym_ok = isinstance(sym, SymmetricCertified) and sym.center == Fraction(1, 3)
    checks.append(
        Check("symmetry center 1/3", sym_ok, "" if sym_ok else repr(sym))
    )
    checks.append(_cross_check(ifs, certified, depths))

    return TheoremReport(
        theorem_id=TheoremId.Example1_4,
        params=(("ratio", format_rational(r)),),
        rows=tuple(rows),
        checks=tuple(checks),
        depths=depths,
    )


# -- suite plumbing ---------------------------------------------------------


def perturb_expected(report: TheoremReport) -> TheoremReport:
    """Negative control: drop one map from the first nonempty expected
    inventory, which must flip the report to failing."""
    rows = list(report.rows)
    for i, row in enumerate(rows):
        if row.expected:
            rows[i] = replace(row, expected=row.expected[1:])
            return replace(report, rows=tuple(rows))
    raise ParameterOutOfRange("report has no expected inventory to perturb")


def _map_record(f: Similitude) -> dict:
    return {"ratio": format_rational(f.ratio), "offset": format_rational(f.offset)}


def report_record(report: TheoremReport) -> dict:
    """JSON-ready description of a report; rationals as "p/q" strings."""
    return {
        "theorem_id": report.theorem_id.value,
        "params": dict(report.params),
        "passed": report.passed,
        "rows": [
            {
                "ratio": row.label,
                "exponent": row.exponent,
                "expected": [_map_record(f) for f in row.expected],
                "actual": [_map_record(f) for f in row.actual],
                "ok": row.ok,
            }
            for row in report.rows
        ],
        "checks": [
            {"label": c.label, "ok": c.ok, "detail": c.detail}
            for c in report.checks
        ],
        "depths": {
            "point_depth": report.depths.point_depth,
            "cover_depth": report.depths.cover_depth,
            "branch_depth": report.depths.branch_depth,
        },
    }


def report_lines(report: TheoremReport) -> list[str]:
    """Human-readable structured record, one logical line per row/check."""
    params = " ".join(f"{k}={v}" for k, v in report.params)
    status = "PASS" if report.passed else "FAIL"
    out = [f"[{report.theorem_id.value}] {params}  {status}"]
    for row in report.rows:
        mark = "ok" if row.ok else "MISMATCH"
        out.append(
            f"  ratio {row.label} (k={row.exponent}): "
            f"expected {len(row.expected)}, certified {len(row.actual)}  {mark}"
        )
        if not row.ok:
            exp = ", ".join(str(f) for f in row.expected)
            act = ", ".join(str(f) for f in row.actual)
            out.append(f"    expected: [{exp}]")
            out.append(f"    actual:   [{act}]")
    for check in report.checks:
        mark = "ok" if check.ok else "FAIL"
        detail = f"  ({check.detail})" if check.detail else ""
        out.append(f"  check {check.label}: {mark}{detail}")
    return out
