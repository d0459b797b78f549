"""Structured CSV/JSON export of atlas results."""
from __future__ import annotations

import json
from typing import Sequence

from .atlas import (
    AtlasReport,
    CommonZeros,
    IntersectionReport,
    TriangleReport,
    TripleZeroCertificate,
)


def curves_csv(entries: Sequence[CommonZeros]) -> str:
    """One polyline per block (columns a,e), blocks separated by blank lines."""
    lines = []
    for entry in entries:
        for j, curves in entry.curves:
            for idx, curve in enumerate(curves):
                lines.append(
                    f"# mode=({entry.mode.m},{entry.mode.k}) j={j} curve={idx} "
                    f"closed={curve.closed}"
                )
                lines.append("a,e")
                for a, e in curve.points:
                    lines.append(f"{a!r},{e!r}")
                lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


def _intersection_obj(entry: CommonZeros, rep: IntersectionReport) -> dict:
    return {
        "mode": {"m": entry.mode.m, "k": entry.mode.k},
        "multiples": list(rep.multiples),
        "point": {"a": rep.point[0], "e": rep.point[1]},
        "residuals": list(rep.residuals),
        "newton_iterations": rep.newton_iterations,
    }


def _triangle_obj(entry: CommonZeros, tri: TriangleReport) -> dict:
    return {
        "mode": {"m": entry.mode.m, "k": entry.mode.k},
        "order": {"a": entry.order[0], "e": entry.order[1]},
        "vertices": [{"a": v[0], "e": v[1]} for v in tri.vertices],
        "area": tri.area,
        "incenter": {"a": tri.incenter[0], "e": tri.incenter[1]},
        "inradius": tri.inradius,
    }


def _certificate_obj(entry: CommonZeros, cert: TripleZeroCertificate) -> dict:
    return {
        "mode": {"m": entry.mode.m, "k": entry.mode.k},
        "order": {"a": entry.order[0], "e": entry.order[1]},
        "point": {"a": cert.point[0], "e": cert.point[1]},
        "residuals": list(cert.residuals),
    }


def atlas_json(report: AtlasReport) -> str:
    obj = {
        "task": report.task,
        "order": {"a": report.order[0], "e": report.order[1]},
        "grid_n": report.grid_n,
        "m_max": report.m_max,
        "total_curves": report.total_curves,
        "min_distance": report.min_distance,
        "certified_triple_zeros": len(report.certified),
        "modes": [
            {
                "mode": {"m": e.mode.m, "k": e.mode.k},
                "skipped": e.skipped,
                "reason": "below visibility order" if e.skipped else "",
                "curve_counts": {str(j): len(cs) for j, cs in e.curves},
                "intersections": [_intersection_obj(e, r) for r in e.intersections],
                "triangles": [_triangle_obj(e, t) for t in e.triangles],
                "certificates": [_certificate_obj(e, c) for c in e.certificates],
                "min_distance": e.min_distance,
            }
            for e in report.entries
        ],
    }
    return json.dumps(obj, indent=2) + "\n"
