"""Command-line surface.

Commands: cover, check, decompose, enumerate, verify-paper.  Exit codes
are a stable contract: 0 included/pass, 1 excluded/fail, 2 parse error,
3 budget exhausted, 4 unknown at the configured depths.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .cover import DEFAULT_BUDGET, cover
from .embedding import (
    BRANCH_DEPTH,
    COVER_DEPTH,
    MAX_STEPS,
    POINT_DEPTH,
    Depths,
    ExcludedWitness,
    IncludedCylinderExchange,
    IncludedReflectedWord,
    IncludedWord,
    check_embedding,
    decompose,
    enumerate_embeddings,
    enumeration_record,
    verdict_record,
)
from .errors import BudgetExceeded, SelfsimError, StepBudgetExceeded
from .ifsfile import parse_ifs_file, serialize_ifs
from .rationals import format_rational, parse_rational
from .similitudes import Similitude, UnknownAtDepth, word_map
from .svg import render_strip
from .verify import (
    Grid,
    TwoMap,
    perturb_expected,
    report_lines,
    report_record,
    verify_corollary,
    verify_equal_gap,
    verify_example_four_map,
    verify_three_map,
)

EXIT_OK = 0
EXIT_EXCLUDED = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_UNKNOWN = 4

THEOREM_KEYS = ("thm1_1i", "thm1_1ii", "thm1_2", "cor1_3i", "cor1_3ii", "example1_4")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--point-depth", type=int, default=POINT_DEPTH)
    sub.add_argument("--cover-depth", type=int, default=COVER_DEPTH)
    sub.add_argument("--branch-depth", type=int, default=BRANCH_DEPTH)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=int, default=None)
    sub.add_argument("--format", choices=("text", "record"), default="text")


# lets "-1/5" parse as a value rather than an option flag
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$")


class _RationalFriendlyParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_RATIONAL


def build_parser() -> argparse.ArgumentParser:
    parser = _RationalFriendlyParser(
        prog="selfsim",
        description="Exact decisions on self-embeddings of 1-D self-similar sets.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_RationalFriendlyParser
    )

    p = sub.add_parser("cover", help="print the depth-n interval cover")
    p.add_argument("file", help="IFS spec file")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--svg", metavar="PATH", default=None)
    _add_common_flags(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("check", help="certify or refute one map")
    p.add_argument("file", help="IFS spec file")
    p.add_argument("ratio", type=_rational)
    p.add_argument("offset", type=_rational)
    _add_engine_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="factor a map into generator letters")
    p.add_argument("file", help="IFS spec file")
    p.add_argument("ratio", type=_rational)
    p.add_argument("offset", type=_rational)
    p.add_argument("--max-steps", type=int, default=MAX_STEPS)
    _add_engine_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("enumerate", help="all feasible offsets for one ratio")
    p.add_argument("file", help="IFS spec file")
    p.add_argument("--ratio", type=_rational, required=True)
    _add_engine_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-paper", help="run the pinned verification suite")
    p.add_argument("--only", choices=THEOREM_KEYS, default=None)
    p.add_argument("--inject-wrong-expectation", action="store_true",
                   help=argparse.SUPPRESS)
    _add_engine_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def _resolve_budget(args) -> int:
    budget, source = args.budget, "--budget"
    if budget is None:
        env = os.environ.get("SELFSIM_BUDGET")
        if env is None:
            return DEFAULT_BUDGET
        try:
            budget, source = int(env), "SELFSIM_BUDGET"
        except ValueError:
            raise SelfsimError(f"SELFSIM_BUDGET={env!r} is not an integer")
    if budget < 0:
        raise SelfsimError(f"{source} must be >= 0, got {budget}")
    return budget


def _depths(args) -> Depths:
    return Depths(
        args.point_depth, args.cover_depth, args.branch_depth, _resolve_budget(args)
    )


def _emit(record: dict) -> None:
    print(json.dumps(record))


# -- commands ---------------------------------------------------------------


def cmd_cover(args) -> int:
    ifs = parse_ifs_file(args.file)
    budget = _resolve_budget(args)
    report = cover(ifs, args.depth, budget)
    if args.svg is not None:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_strip(ifs, args.depth, budget))
    if args.format == "record":
        _emit(
            {
                "command": "cover",
                "system": serialize_ifs(ifs),
                "depth": report.depth,
                "piece_count": report.piece_count,
                "largest_gap": format_rational(report.largest_gap),
                "parts": [
                    [format_rational(p.lo), format_rational(p.hi)]
                    for p in report.parts
                ],
                "svg": args.svg,
            }
        )
        return EXIT_OK
    print(f"system: {serialize_ifs(ifs).splitlines()[0]}")
    print(
        f"depth {report.depth}: {report.piece_count} pieces, "
        f"largest gap {format_rational(report.largest_gap)}"
    )
    for part in report.parts:
        print(f"  {part}")
    if args.svg is not None:
        print(f"svg written to {args.svg}")
    return EXIT_OK


def _verdict_exit(verdict) -> int:
    if isinstance(verdict, ExcludedWitness):
        return EXIT_EXCLUDED
    if isinstance(verdict, UnknownAtDepth):
        return EXIT_UNKNOWN
    return EXIT_OK


def _print_verdict(verdict) -> None:
    if isinstance(verdict, IncludedWord):
        print(f"included: f is the word map [{verdict.word}]")
    elif isinstance(verdict, IncludedReflectedWord):
        print(
            f"included: f is the word map [{verdict.word}] composed with "
            f"the reflection about {format_rational(verdict.center)}"
        )
    elif isinstance(verdict, IncludedCylinderExchange):
        print("included: cylinder-exchange certificate")
        for pair in verdict.pairs:
            sigma = " o sigma" if pair.reflected else ""
            print(f"  f o phi_[{pair.branch}]{sigma} = phi_[{pair.target}]")
    elif isinstance(verdict, ExcludedWitness):
        print(
            f"excluded: certified point {format_rational(verdict.point)} maps "
            f"into the gap ({format_rational(verdict.gap.lo)}, "
            f"{format_rational(verdict.gap.hi)}) at depth {verdict.depth}"
        )
    elif isinstance(verdict, UnknownAtDepth):
        print(
            f"unknown at branch depth {verdict.depth}; "
            "raise --branch-depth/--cover-depth/--point-depth"
        )


def cmd_check(args) -> int:
    ifs = parse_ifs_file(args.file)
    depths = _depths(args)
    f = Similitude(args.ratio, args.offset)
    verdict = check_embedding(ifs, f, *depths)
    if args.format == "record":
        _emit(
            {
                "command": "check",
                "ratio": format_rational(f.ratio),
                "offset": format_rational(f.offset),
                "verdict": verdict_record(verdict),
            }
        )
    else:
        _print_verdict(verdict)
    return _verdict_exit(verdict)


def cmd_decompose(args) -> int:
    ifs = parse_ifs_file(args.file)
    depths = _depths(args)
    f = Similitude(args.ratio, args.offset)
    verdict = decompose(ifs, f, args.max_steps, *depths)
    if args.format == "record":
        _emit(
            {
                "command": "decompose",
                "ratio": format_rational(f.ratio),
                "offset": format_rational(f.offset),
                "verdict": verdict_record(verdict),
            }
        )
        return _verdict_exit(verdict)
    if isinstance(verdict, IncludedWord):
        print(str(verdict.word))
        rebuilt = word_map(ifs, verdict.word)
        print(f"residual: identity; word map rebuilds f exactly: {rebuilt == f}")
    elif isinstance(verdict, IncludedReflectedWord):
        center = format_rational(verdict.center)
        print(f"{verdict.word} (reflected, center {center})")
        rebuilt = word_map(ifs, verdict.word).compose(ifs.reflection())
        print(f"residual: reflection; composite rebuilds f exactly: {rebuilt == f}")
    elif isinstance(verdict, IncludedCylinderExchange):
        print("no word decomposition; fallback certificate follows")
        _print_verdict(verdict)
    else:
        _print_verdict(verdict)
    return _verdict_exit(verdict)


def cmd_enumerate(args) -> int:
    ifs = parse_ifs_file(args.file)
    result = enumerate_embeddings(ifs, args.ratio, *_depths(args))
    if args.format == "record":
        _emit({"command": "enumerate", **enumeration_record(result)})
    else:
        print(
            f"ratio {format_rational(result.ratio)}: "
            f"{len(result.certified)} certified, "
            f"{len(result.candidates)} candidates"
        )
        for f, verdict in result.certified:
            kind = verdict_record(verdict)["kind"]
            print(f"  offset {format_rational(f.offset):>10}  {kind}")
        for cand in result.candidates:
            print(f"  candidate interval {cand}")
    return EXIT_OK if not result.candidates else EXIT_UNKNOWN


def _paper_reports(depths: Depths):
    yield "thm1_1i", lambda: verify_three_map(
        Fraction(1, 5), Fraction(3, 10), 2, depths
    )
    yield "thm1_1ii", lambda: verify_three_map(
        Fraction(1, 5), Fraction(2, 5), 2, depths
    )
    yield "thm1_1i", lambda: verify_three_map(
        Fraction(1, 5), Fraction(1, 2), 1, depths
    )
    yield "thm1_2", lambda: verify_equal_gap(
        (Fraction(1, 4), Fraction(1, 3)), 2, depths
    )
    yield "thm1_2", lambda: verify_equal_gap(
        (Fraction(1, 4), Fraction(1, 4)), 2, depths
    )
    yield "cor1_3i", lambda: verify_corollary(
        TwoMap(Fraction(1, 4), Fraction(1, 3)), 2, depths
    )
    yield "cor1_3ii", lambda: verify_corollary(Grid(Fraction(1, 4), 3), 2, depths)
    yield "example1_4", lambda: verify_example_four_map(depths)


def cmd_verify_paper(args) -> int:
    reports = []
    for key, run in _paper_reports(_depths(args)):
        if args.only is not None and key != args.only:
            continue
        reports.append(run())
    if args.inject_wrong_expectation and reports:
        reports[0] = perturb_expected(reports[0])
    passed = sum(1 for r in reports if r.passed)
    if args.format == "record":
        for report in reports:
            _emit({"command": "verify-paper", **report_record(report)})
    else:
        for report in reports:
            for line in report_lines(report):
                print(line)
            print()
        print(f"{passed}/{len(reports)} reports passed")
    return EXIT_OK if reports and passed == len(reports) else EXIT_EXCLUDED


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on a usage error (2) and after --help (0); an
        # in-process caller gets the code, as for every other outcome
        return exc.code
    try:
        return args.func(args)
    except (BudgetExceeded, StepBudgetExceeded) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SelfsimError, OSError) as exc:
        # an unreadable spec or unwritable output is a usage error, never
        # exit 1, which means "excluded"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
