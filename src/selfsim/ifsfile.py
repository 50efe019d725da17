"""Text format for systems of similitudes.

A spec is a header line of ``key=value`` tokens followed by one
``ratio offset`` line per map, rationals written as ``p/q`` or ``p``::

    m=3 family=three-map rho=1/5 lambda=3/10
    1/5 0
    1/5 3/10
    1/5 4/5

Blank lines and ``#`` comments are ignored.  A family-tagged header is
re-run through the named constructor and must reproduce the listed maps
exactly, so parameter-range validation happens at parse time.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SelfsimError
from .rationals import format_rational, parse_rational
from .similitudes import (
    IFS,
    Similitude,
    equal_gap,
    four_map_example,
    homogeneous_grid,
    three_map,
    two_map,
)


class SpecFileError(SelfsimError):
    """Malformed or inconsistent IFS spec text."""


def parse_map_spec(ratio_text: str, offset_text: str) -> Similitude:
    """A single similitude from its two rational fields."""
    try:
        ratio = parse_rational(ratio_text)
        offset = parse_rational(offset_text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"bad rational in map spec: {exc}") from exc
    if ratio == 0:
        raise SpecFileError("map ratio must be nonzero")
    return Similitude(ratio, offset)


def _parse_header(line: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for token in line.split():
        if "=" not in token:
            raise SpecFileError(f"header token {token!r} is not key=value")
        key, _, value = token.partition("=")
        if not key or not value:
            raise SpecFileError(f"header token {token!r} is not key=value")
        if key in fields:
            raise SpecFileError(f"duplicate header key {key!r}")
        fields[key] = value
    if "m" not in fields:
        raise SpecFileError("header must declare the map count m=<int>")
    return fields


def _rebuild_family(fields: dict[str, str], m: int) -> IFS:
    family = fields["family"]
    try:
        if family == "three-map":
            return three_map(
                parse_rational(fields["rho"]), parse_rational(fields["lambda"])
            )
        if family == "equal-gap":
            return equal_gap(
                tuple(parse_rational(r) for r in fields["ratios"].split(","))
            )
        if family == "two-map":
            return two_map(
                parse_rational(fields["alpha"]), parse_rational(fields["beta"])
            )
        if family == "grid":
            return homogeneous_grid(parse_rational(fields["beta"]), m)
        if family == "four-map-example":
            return four_map_example()
    except KeyError as exc:
        raise SpecFileError(
            f"family {family!r} is missing parameter {exc.args[0]}"
        ) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"bad rational in family parameters: {exc}") from exc
    raise SpecFileError(f"unknown family {family!r}")


def parse_ifs(text: str) -> IFS:
    lines = [
        stripped
        for raw in text.splitlines()
        if (stripped := raw.split("#", 1)[0].strip())
    ]
    if not lines:
        raise SpecFileError("empty spec")
    fields = _parse_header(lines[0])
    try:
        m = int(fields["m"])
    except ValueError as exc:
        raise SpecFileError(f"map count m={fields['m']!r} is not an integer") from exc
    body = lines[1:]
    if len(body) != m:
        raise SpecFileError(f"header declares m={m} but found {len(body)} map lines")
    maps = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise SpecFileError(f"map line {line!r} is not 'ratio offset'")
        maps.append(parse_map_spec(parts[0], parts[1]))

    if "family" in fields:
        rebuilt = _rebuild_family(fields, m)
        if rebuilt.maps != tuple(maps):
            raise SpecFileError(
                f"family {fields['family']!r} with the given parameters "
                "does not reproduce the listed maps"
            )
        return rebuilt
    return IFS(tuple(maps))


def parse_ifs_file(path: str) -> IFS:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_ifs(text)


def _family_fields(ifs: IFS) -> list[str]:
    maps = ifs.maps
    if ifs.family == "three-map":
        return [
            "family=three-map",
            f"rho={format_rational(maps[0].ratio)}",
            f"lambda={format_rational(maps[1].offset)}",
        ]
    if ifs.family == "equal-gap":
        joined = ",".join(format_rational(f.ratio) for f in maps)
        return ["family=equal-gap", f"ratios={joined}"]
    if ifs.family == "two-map":
        return [
            "family=two-map",
            f"alpha={format_rational(maps[0].ratio)}",
            f"beta={format_rational(maps[1].ratio)}",
        ]
    if ifs.family == "grid":
        return ["family=grid", f"beta={format_rational(maps[0].ratio)}"]
    if ifs.family == "four-map-example":
        return ["family=four-map-example"]
    return []


def serialize_ifs(ifs: IFS) -> str:
    """Text that parse_ifs maps back to an identical IFS."""
    header = " ".join([f"m={ifs.arity}", *_family_fields(ifs)])
    lines = [header]
    for f in ifs.maps:
        lines.append(f"{format_rational(f.ratio)} {format_rational(f.offset)}")
    return "\n".join(lines) + "\n"
