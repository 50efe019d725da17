"""Deterministic SVG strip diagrams of cover refinements.

One horizontal row per depth from 0 down to the requested depth, each
showing the cover's intervals at that refinement as filled bars over the
hull.  Three-map systems get their two depth-1 gaps labeled G1/G2.
Element order is fixed (rows by depth, bars left to right), so output is
byte-identical across runs.
"""

from __future__ import annotations

from fractions import Fraction

from .cover import DEFAULT_BUDGET, cover
from .rationals import format_rational
from .similitudes import IFS

STRIP_WIDTH = 900
ROW_HEIGHT = 34
BAR_HEIGHT = 16
MARGIN_X = 70
MARGIN_Y = 22
BAR_FILL = "#1f4e79"
HULL_FILL = "#dfe7ef"
LABEL_FILL = "#8a2d2d"


def _x(value: Fraction, lo: Fraction, span: Fraction) -> str:
    pos = MARGIN_X + STRIP_WIDTH * (value - lo) / span
    return f"{float(pos):.3f}"


def render_strip(ifs: IFS, depth: int, budget: int = DEFAULT_BUDGET) -> str:
    """SVG text for rows depth 0 through ``depth``."""
    lo, hi = ifs.hull.lo, ifs.hull.hi
    span = hi - lo
    height = 2 * MARGIN_Y + (depth + 1) * ROW_HEIGHT
    width = 2 * MARGIN_X + STRIP_WIDTH
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">'
    ]
    for n in range(depth + 1):
        parts = cover(ifs, n, budget).parts
        top = MARGIN_Y + n * ROW_HEIGHT
        bar_top = top + (ROW_HEIGHT - BAR_HEIGHT) // 2
        out.append(
            f'<text x="8" y="{bar_top + BAR_HEIGHT - 4}" '
            f'fill="#333">depth {n}</text>'
        )
        out.append(
            f'<rect x="{_x(lo, lo, span)}" y="{bar_top}" '
            f'width="{STRIP_WIDTH}" height="{BAR_HEIGHT}" fill="{HULL_FILL}"/>'
        )
        for part in parts:
            x0 = _x(part.lo, lo, span)
            w = float(STRIP_WIDTH * part.length / span)
            out.append(
                f'<rect x="{x0}" y="{bar_top}" width="{max(w, 0.5):.3f}" '
                f'height="{BAR_HEIGHT}" fill="{BAR_FILL}">'
                f"<title>{part}</title></rect>"
            )
        if n == 1 and ifs.family == "three-map":
            # index gaps by the family's map order, not the merged cover,
            # so a degenerate first gap still leaves the second labeled G2
            images = [f.map_interval(ifs.hull) for f in ifs.maps]
            for idx in (1, 2):
                gap_lo, gap_hi = images[idx - 1].hi, images[idx].lo
                if gap_hi <= gap_lo:
                    continue
                mid = gap_lo + (gap_hi - gap_lo) / 2
                out.append(
                    f'<text x="{_x(mid, lo, span)}" y="{bar_top - 3}" '
                    f'text-anchor="middle" fill="{LABEL_FILL}">'
                    f"G{idx} ({format_rational(gap_hi - gap_lo)})</text>"
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"
