"""Static SVG rendering of zero-curve atlases.

The unit square maps to a fixed 800x800 viewport with a rightward and e
upward.  Curve colors follow the j-multiple convention (j=1 blue, j=2 orange,
j=3 green); pairwise intersection dots are red/green/blue for the pairs
(1,2)/(1,3)/(2,3); an optional dashed circle marks the minimal distance of
the intersection set from the origin.  Output is deterministic apart from the
leading version comment.
"""
from __future__ import annotations

from typing import Dict, List

from . import __version__
from .atlas import AtlasReport, ZeroCurve

SIZE = 800
CURVE_COLORS = {1: "#1f77b4", 2: "#ff7f0e", 3: "#2ca02c"}
PAIR_COLORS = {(1, 2): "#d62728", (1, 3): "#2ca02c", (2, 3): "#1f77b4"}
POINT_COLOR = "#d62728"


def _x(a: float) -> str:
    return f"{a * SIZE:.3f}"


def _y(e: float) -> str:
    return f"{(1.0 - e) * SIZE:.3f}"


def render_svg(report: AtlasReport, title: str = "") -> str:
    """The report's curves by j, its minimal-distance circle and its intersections."""
    curves_by_j: Dict[int, List[ZeroCurve]] = {}
    for entry in report.entries:
        for j, curves in entry.curves:
            curves_by_j.setdefault(j, []).extend(curves)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f"<!-- hansenatlas {__version__} -->",
        f'<rect width="{SIZE}" height="{SIZE}" fill="white" stroke="black" stroke-width="1"/>',
    ]
    if title:
        lines.append(
            f'<text x="8" y="18" font-family="monospace" font-size="14">{title}</text>'
        )
    for j in sorted(curves_by_j):
        color = CURVE_COLORS.get(j, "#444444")
        for curve in curves_by_j[j]:
            pts = " ".join(f"{_x(a)},{_y(e)}" for a, e in curve.points)
            shape = "polygon" if curve.closed else "polyline"
            lines.append(
                f'<{shape} points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
            )
    min_distance = report.min_distance
    if min_distance is not None:
        lines.append(
            f'<circle cx="{_x(0.0)}" cy="{_y(0.0)}" r="{min_distance * SIZE:.3f}" '
            'fill="none" stroke="#555555" stroke-width="1" stroke-dasharray="6,4"/>'
        )
    for entry in report.entries:
        for rep in entry.intersections:
            color = PAIR_COLORS.get(tuple(rep.multiples), POINT_COLOR)
            lines.append(
                f'<circle cx="{_x(rep.point[0])}" cy="{_y(rep.point[1])}" r="3.5" '
                f'fill="{color}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
