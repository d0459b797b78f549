"""Correctness checks of one benchmark operation's outputs.

Each check compares an output with a computation made apart from the program
(own counts, own exact and float evaluations, the quadrature oracle, the
closed-form t_{m,k}) or with a property the method must have.  None compares
with a saved copy of earlier output.  A check returns the list of its
failures; an empty list means the outputs are correct.

The checks run in the operation's own process after its timed interval, so
the exact series they need are the ones the operation assembled (the Fourier
cache hands them back without recomputation).  Series that stayed in scan
workers are recomputed for a seeded sample of modes.
"""
from __future__ import annotations

import importlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from hansenatlas.atlas import EPS_CURVE
from hansenatlas.cli import build_parser
from hansenatlas.fourier import Mode, fourier_coefficient, t_mk
from hansenatlas.oracle import oracle_fourier, oracle_hansen

# the package namespace binds `hansen` to the function, so fetch the module
hansen_module = importlib.import_module("hansenatlas.hansen")

UNIT_ROUNDOFF = 2.0**-53
RESIDUAL_BOUND = 1e-12  # |f| at a reported zero, in exact arithmetic
TRIANGLE_RTOL = 1e-9  # recomputed triangle metrics against the reported ones
# |series - quadrature| at the sampled points.  The quadrature's rounding is
# at most log2(1024^2) u max|F| < 1e-14 (np.mean sums pairwise, |F| < 3 for
# a(1+e) < 0.6); its discretization error, estimated by the change from 512 to
# 1024 samples, and the truncation tails are held below ORACLE_TOL/10 at
# every point (see oracle_points and check_series).
ORACLE_TOL = 1e-13
ORACLE_POINTS = 3  # sampled points per checked surface
SCAN_SAMPLE = 3  # modes of a scan whose series are recomputed and checked
ROUTE_SAMPLE = 6  # Hansen keys whose routes are checked against the oracle
ROUTE_ES = (0.3, 0.2, 0.1, 0.05)  # eccentricities tried, largest first
ROUTE_TAIL = 1e-12  # largest omitted-tail estimate at which a key is compared
ROUTE_TOL = 1e-11  # |series - quadrature| for a compared key
# Headline (5,-2) triangle at order 60, with the bands of acceptance check 5b.
PAPER_INCENTER = (0.18799, 0.89970)
PAPER_INCENTER_TOL = 2e-3
PAPER_INRADIUS = 3.78e-5
PAPER_AREA = (6.97e-9, 6.97e-7)

@dataclass
class Outcome:
    """What one operation left: its CLI arguments, artifact directory, stdout."""

    cli_args: Sequence[str]
    out_dir: Optional[Path]
    stdout: str
    seed: int

    @property
    def args(self):
        return build_parser().parse_args(list(self.cli_args))

    def atlas(self) -> dict:
        return json.loads((self.out_dir / "atlas.json").read_text())

    def curves(self) -> Dict[Tuple[int, int, int], List[List[Tuple[float, float]]]]:
        return parse_curves_csv((self.out_dir / "curves.csv").read_text())


def default_series(mode: Mode, order: int):
    return fourier_coefficient(mode, order, order)


# ---------------------------------------------------------------------------
# Evaluation made apart from the program
# ---------------------------------------------------------------------------


class ExactPoly:
    """Exact values of a bivariate series at binary floating-point points.

    The coefficients are scaled to integers over one common denominator and
    the point a = A/2^p, e = E/2^r is kept as integers, so Horner's scheme
    runs on Python integers and only the result becomes a Fraction.
    """

    def __init__(self, series):
        self.na, self.ne = series.trunc_a, series.trunc_e
        den = 1
        for v in series.c.values():
            den = math.lcm(den, v.denominator)
        self.den = den
        self.rows = [[0] * (self.ne + 1) for _ in range(self.na + 1)]
        for (n, q), v in series.c.items():
            self.rows[n][q] = v.numerator * (den // v.denominator)

    def __call__(self, a: float, e: float) -> Fraction:
        A, da = Fraction(a).as_integer_ratio()
        E, de = Fraction(e).as_integer_ratio()
        de_pow = [de**i for i in range(self.ne + 1)]
        da_pow = [da**i for i in range(self.na + 1)]
        outer = 0
        for n in range(self.na, -1, -1):
            row = self.rows[n]
            inner = 0
            for q in range(self.ne, -1, -1):
                inner = inner * E + row[q] * de_pow[self.ne - q]
            outer = outer * A + inner * da_pow[self.na - n]
        return Fraction(outer, self.den * da_pow[self.na] * de_pow[self.ne])


def normalization(mode: Mode, a: float, e: float) -> Fraction:
    """2 |t_{m,k}| a^{m*} e^{|m-k|} from the closed-form t_{m,k}, exactly."""
    t = t_mk(mode)
    return 2 * abs(Fraction(t.t_value)) * Fraction(a) ** t.leading_a_power * Fraction(e) ** t.leading_e_power


def float_matrix(series) -> np.ndarray:
    C = np.zeros((series.trunc_a + 1, series.trunc_e + 1))
    for (n, q), v in series.c.items():
        C[n, q] = float(v)
    return C


def horner_gamma(series) -> float:
    """gamma_K of Higham ch. 3 for the power-basis sums below; K covers the
    powers, the two nested sums and the rounding of the coefficients."""
    k = 2 * (series.trunc_a + series.trunc_e + 2) + 1
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def grid_signs(series, grid_n: int) -> Tuple[np.ndarray, int]:
    """Sign (> 0) of the series at every node of the tracer's grid.

    Values come from the matrix product A C E^T of power matrices; a node
    whose |value| does not exceed the rounding bound gamma_K A|C|E^T is
    decided in exact arithmetic.  Returns (signs, nodes decided exactly).
    """
    ax = np.linspace(1.0 / grid_n, 1.0 - 1.0 / grid_n, grid_n)
    C = float_matrix(series)
    A = ax[:, None] ** np.arange(series.trunc_a + 1)
    E = ax[:, None] ** np.arange(series.trunc_e + 1)
    V = A @ C @ E.T
    bound = horner_gamma(series) * (A @ np.abs(C) @ E.T)
    unsettled = np.argwhere(np.abs(V) <= bound)
    signs = V > 0.0
    if len(unsettled):
        exact = ExactPoly(series)
        for i, j in unsettled:
            signs[i, j] = exact(float(ax[i]), float(ax[j])) > 0
    return signs, len(unsettled)


def sign_change_edges(signs: np.ndarray) -> int:
    along_a = np.count_nonzero(signs[:-1, :] != signs[1:, :])
    along_e = np.count_nonzero(signs[:, :-1] != signs[:, 1:])
    return int(along_a + along_e)


def parse_curves_csv(text: str) -> Dict[Tuple[int, int, int], List[List[Tuple[float, float]]]]:
    """(m, k, j) -> polylines, in file order."""
    curves: Dict[Tuple[int, int, int], List[List[Tuple[float, float]]]] = {}
    header = re.compile(r"# mode=\((-?\d+),(-?\d+)\) j=(\d+) curve=\d+ closed=(True|False)")
    current = None
    for line in text.splitlines():
        match = header.fullmatch(line)
        if match:
            key = (int(match[1]), int(match[2]), int(match[3]))
            current = []
            curves.setdefault(key, []).append(current)
        elif line and line != "a,e":
            a, e = line.split(",")
            current.append((float(a), float(e)))
    return curves


def coprime_modes(max_abs_sum: int) -> List[Tuple[int, int]]:
    """(m, k) coprime, first non-null component positive, |m|+|k| <= bound."""
    out = []
    for m in range(0, max_abs_sum + 1):
        for k in range(-max_abs_sum, max_abs_sum + 1):
            if abs(m) + abs(k) > max_abs_sum or (m, k) == (0, 0):
                continue
            if (m > 0 or k > 0) and math.gcd(m, k) == 1:
                out.append((m, k))
    return out


# ---------------------------------------------------------------------------
# Checks shared by the atlas workloads
# ---------------------------------------------------------------------------


def triangle_metrics(vertices: Sequence[Tuple[float, float]]) -> Tuple[float, Tuple[float, float], float]:
    """Area (exact shoelace, rounded once), incenter and inradius."""
    (x1, y1), (x2, y2), (x3, y3) = [(Fraction(a), Fraction(e)) for a, e in vertices]
    area = abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) / 2
    p1, p2, p3 = vertices
    s1, s2, s3 = math.dist(p2, p3), math.dist(p1, p3), math.dist(p1, p2)
    perimeter = s1 + s2 + s3
    incenter = (
        (s1 * p1[0] + s2 * p2[0] + s3 * p3[0]) / perimeter,
        (s1 * p1[1] + s2 * p2[1] + s3 * p3[1]) / perimeter,
    )
    return float(area), incenter, 2.0 * float(area) / perimeter


def _close(x: float, y: float, scale: float) -> bool:
    return abs(x - y) <= TRIANGLE_RTOL * scale


def check_triangles(entry: dict) -> List[str]:
    """Each triangle's metrics follow from its vertices, and its vertices are
    the entry's (1,2), (1,3) and (2,3) intersections in that order."""
    failures = []
    pairs = {}
    for rep in entry["intersections"]:
        pairs.setdefault(tuple(rep["multiples"]), set()).add((rep["point"]["a"], rep["point"]["e"]))
    for idx, tri in enumerate(entry["triangles"]):
        label = f"mode ({entry['mode']['m']},{entry['mode']['k']}) triangle {idx}"
        verts = [(v["a"], v["e"]) for v in tri["vertices"]]
        for vert, pair in zip(verts, ((1, 2), (1, 3), (2, 3))):
            if vert not in pairs.get(pair, ()):
                failures.append(f"{label}: vertex {vert} is no reported {pair} intersection")
        area, incenter, inradius = triangle_metrics(verts)
        scale = max(abs(c) for v in verts for c in v)
        if not _close(area, tri["area"], area):
            failures.append(f"{label}: area {tri['area']!r} but the vertices give {area!r}")
        reported = (tri["incenter"]["a"], tri["incenter"]["e"])
        if not (_close(incenter[0], reported[0], scale) and _close(incenter[1], reported[1], scale)):
            failures.append(f"{label}: incenter {tri['incenter']} but the vertices give {incenter}")
        if not _close(inradius, tri["inradius"], inradius):
            failures.append(f"{label}: inradius {tri['inradius']!r} but the vertices give {inradius!r}")
    return failures


def check_zero(label: str, mode: Mode, series, point: Tuple[float, float], reported: float) -> List[str]:
    """|f| <= RESIDUAL_BOUND and |fhat| <= EPS_CURVE at `point`, exactly; the
    reported residual is |f| rounded to double."""
    a, e = point
    f = ExactPoly(series)(a, e)
    fhat = abs(f) / normalization(mode, a, e)
    failures = []
    if abs(f) > RESIDUAL_BOUND:
        failures.append(f"{label}: |f_{mode}| = {float(abs(f)):.3e} > {RESIDUAL_BOUND:g}")
    if fhat > EPS_CURVE:
        failures.append(f"{label}: |fhat_{mode}| = {float(fhat):.3e} > EPS_CURVE")
    if abs(float(abs(f)) - reported) > 1e-9 * float(abs(f)):
        failures.append(f"{label}: reported residual {reported!r} for f_{mode}, exact {float(abs(f))!r}")
    return failures


def check_zeros(entry: dict, order: int) -> List[str]:
    """Every intersection and certificate of one mode is a zero of its surfaces."""
    mode = Mode(entry["mode"]["m"], entry["mode"]["k"])
    failures = []
    for idx, rep in enumerate(entry["intersections"]):
        point = (rep["point"]["a"], rep["point"]["e"])
        for j, residual in zip(rep["multiples"], rep["residuals"]):
            surface = mode.multiple(j)
            series = default_series(surface, order)
            failures += check_zero(f"{mode} intersection {idx}", surface, series, point, residual)
    for idx, cert in enumerate(entry["certificates"]):
        point = (cert["point"]["a"], cert["point"]["e"])
        for j, residual in zip((1, 2, 3), cert["residuals"]):
            surface = mode.multiple(j)
            series = default_series(surface, order)
            failures += check_zero(f"{mode} certificate {idx}", surface, series, point, residual)
    return failures


def e_tail(series, a: float, e: float) -> float:
    """Estimate of the omitted e-terms at (a, e): the last two retained
    e-columns, as acceptance check 4 gates its keys."""
    return sum(abs(float(v)) * a**n * e**q for (n, q), v in series.c.items() if q >= series.trunc_e - 1)


def oracle_points(series, rng: random.Random) -> List[Tuple[float, float]]:
    """Seeded points where the truncation tail is far below ORACLE_TOL.

    |C_{n,m}| <= 1 and |X_k^{n,m}(e)| <= (1+e)^n, so the omitted a-terms of
    f_{m,k} sum to at most 2 rho^{N+1}/(1-rho) with rho = a(1+e).  Points
    keep rho <= rho_max = (ORACLE_TOL/400)^(1/(N+1)), which is below 0.56
    for N <= 60, so that sum stays under ORACLE_TOL/80.  e starts in
    [0.1, 0.5] and shrinks until the e-tail estimate is under ORACLE_TOL/10.
    """
    rho_max = (ORACLE_TOL / 400.0) ** (1.0 / (series.trunc_a + 1))
    points = []
    for _ in range(ORACLE_POINTS):
        e = rng.uniform(0.1, 0.5)
        rho = rng.uniform(0.6, 1.0) * rho_max
        while e_tail(series, rho / (1.0 + e), e) > ORACLE_TOL / 10:
            e *= 0.8
        points.append((rho / (1.0 + e), e))
    return points


def check_series(mode: Mode, series, rng: random.Random) -> List[str]:
    """Support, leading coefficient and quadrature agreement of one surface."""
    failures = []
    t = t_mk(mode)
    lead_a, lead_e = t.leading_a_power, t.leading_e_power
    for n, q in series.c:
        if n < lead_a or (n - mode.m) % 2 or q < lead_e or (q - lead_e) % 2:
            failures.append(f"f_{mode}: term a^{n} e^{q} outside the support of the expansion")
            break
    if series.c.get((lead_a, lead_e), 0) != 2 * t.t_value:
        failures.append(
            f"f_{mode}: coefficient of e^{lead_e} a^{lead_a} is {series.c.get((lead_a, lead_e), 0)}, "
            f"2 t_mk = {2 * t.t_value}"
        )
    exact = ExactPoly(series)
    for a, e in oracle_points(series, rng):
        coarse = oracle_fourier(mode.m, mode.k, a, e, samples=512)
        fine = oracle_fourier(mode.m, mode.k, a, e, samples=1024)
        if abs(coarse - fine) > ORACLE_TOL / 10:
            failures.append(
                f"f_{mode} at ({a:.4f},{e:.4f}): quadrature moves by {abs(coarse - fine):.1e} "
                f"from 512 to 1024 samples, so ORACLE_TOL is not justified"
            )
        diff = abs(float(exact(a, e)) - fine)
        if diff > ORACLE_TOL:
            failures.append(
                f"f_{mode} at ({a:.4f},{e:.4f}): |series - quadrature| = {diff:.2e} > {ORACLE_TOL:g}"
            )
    return failures


def check_curve_table(outcome: Outcome, atlas: dict, curves) -> List[str]:
    """atlas.json and curves.csv list the same curves, mode by mode."""
    failures = []
    total = 0
    for entry in atlas["modes"]:
        m, k = entry["mode"]["m"], entry["mode"]["k"]
        for j, count in entry["curve_counts"].items():
            in_csv = len(curves.get((m, k, int(j)), []))
            total += count
            if in_csv != count:
                failures.append(
                    f"mode ({m},{k}) j={j}: atlas.json counts {count} curves, curves.csv holds {in_csv}"
                )
    in_csv = sum(len(c) for c in curves.values())
    if total != atlas["total_curves"] or in_csv != total:
        failures.append(
            f"total curves: atlas.json says {atlas['total_curves']}, sums to {total}; curves.csv {in_csv}"
        )
    if f"total curves: {total}" not in outcome.stdout.splitlines():
        failures.append(f"stdout does not report total curves: {total}")
    return failures


def check_mode_count(outcome: Outcome, atlas: dict, max_abs_sum: int) -> List[str]:
    expected = len(coprime_modes(max_abs_sum))
    failures = []
    if len(atlas["modes"]) != expected:
        failures.append(
            f"atlas.json lists {len(atlas['modes'])} modes, |m|+|k| <= {max_abs_sum} has {expected}"
        )
    if f"modes scanned: {expected}" not in outcome.stdout.splitlines():
        failures.append(f"stdout does not report modes scanned: {expected}")
    return failures


def check_certified_count(outcome: Outcome, atlas: dict) -> List[str]:
    count = sum(len(e["certificates"]) for e in atlas["modes"])
    if atlas["certified_triple_zeros"] != count or f"certified triple zeros: {count}" not in outcome.stdout:
        return [f"certified triple zeros: atlas.json says {atlas['certified_triple_zeros']}, lists {count}"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def check_paper_triangle(entry: dict) -> List[str]:
    """The (5,-2) order-60 triangle sits in the bands of acceptance check 5b."""
    if not entry["triangles"]:
        return ["mode (5,-2): no triangle"]
    tri = entry["triangles"][0]
    failures = []
    incenter = (tri["incenter"]["a"], tri["incenter"]["e"])
    if math.dist(incenter, PAPER_INCENTER) > PAPER_INCENTER_TOL:
        failures.append(f"(5,-2) incenter {incenter} is not within {PAPER_INCENTER_TOL} of {PAPER_INCENTER}")
    if abs(tri["inradius"] - PAPER_INRADIUS) > 0.5 * PAPER_INRADIUS:
        failures.append(f"(5,-2) inradius {tri['inradius']:.3e} is not {PAPER_INRADIUS} +- 50%")
    if not PAPER_AREA[0] <= tri["area"] <= PAPER_AREA[1]:
        failures.append(f"(5,-2) area {tri['area']:.3e} is outside {PAPER_AREA}")
    return failures


def check_triple(outcome: Outcome) -> List[str]:
    """`zeros --task triple --modes ...`: every mode is checked in full."""
    args = outcome.args
    atlas = outcome.atlas()
    rng = random.Random(outcome.seed)
    failures = check_curve_table(outcome, atlas, outcome.curves()) + check_certified_count(outcome, atlas)
    for entry in atlas["modes"]:
        mode = Mode(entry["mode"]["m"], entry["mode"]["k"])
        if (mode.m, mode.k) == (5, -2) and args.order == 60:
            failures += check_paper_triangle(entry)
        failures += check_triangles(entry)
        failures += check_zeros(entry, args.order)
        if not entry["skipped"]:
            for j in (1, 2, 3):
                failures += check_series(mode.multiple(j), default_series(mode.multiple(j), args.order), rng)
    return failures


def check_scan_triple(outcome: Outcome) -> List[str]:
    """`zeros --task triple --mmax N` over workers: counts, tables and
    triangles of every mode; zeros and series of a seeded sample of modes."""
    args = outcome.args
    atlas = outcome.atlas()
    rng = random.Random(outcome.seed)
    failures = check_mode_count(outcome, atlas, args.mmax)
    failures += check_curve_table(outcome, atlas, outcome.curves()) + check_certified_count(outcome, atlas)
    for entry in atlas["modes"]:
        failures += check_triangles(entry)
    with_zeros = [e for e in atlas["modes"] if e["intersections"]]
    for entry in rng.sample(with_zeros, min(SCAN_SAMPLE, len(with_zeros))):
        mode = Mode(entry["mode"]["m"], entry["mode"]["k"])
        failures += check_zeros(entry, args.order)
        for j in (1, 2, 3):
            failures += check_series(mode.multiple(j), default_series(mode.multiple(j), args.order), rng)
    return failures


def check_curves(outcome: Outcome) -> List[str]:
    """`zeros --task curves`: every curve point is on the zero set and no
    sign-change edge of the grid is missing from the curves."""
    args = outcome.args
    atlas = outcome.atlas()
    curves = outcome.curves()
    rng = random.Random(outcome.seed)
    failures = check_mode_count(outcome, atlas, args.mmax) + check_curve_table(outcome, atlas, curves)
    traced = [e for e in atlas["modes"] if not e["skipped"]]
    for entry in traced:
        mode = Mode(entry["mode"]["m"], entry["mode"]["k"])
        series = default_series(mode, args.order)
        points = [p for c in curves.get((mode.m, mode.k, 1), []) for p in c]
        signs, _ = grid_signs(series, args.grid)
        edges = sign_change_edges(signs)
        if len(points) != edges:
            failures.append(f"mode {mode}: {len(points)} curve points, {edges} grid edges change sign")
        failures += check_points_on_curve(mode, series, points)
    for entry in rng.sample(traced, min(SCAN_SAMPLE, len(traced))):
        mode = Mode(entry["mode"]["m"], entry["mode"]["k"])
        failures += check_series(mode, default_series(mode, args.order), rng)
    return failures


def check_points_on_curve(mode: Mode, series, points: List[Tuple[float, float]]) -> List[str]:
    """|fhat| <= EPS_CURVE at every point: by a float evaluation with its
    rounding bound where that settles it, else in exact arithmetic."""
    if not points:
        return []
    pts = np.array(points)
    C = float_matrix(series)
    A = pts[:, :1] ** np.arange(series.trunc_a + 1)
    E = pts[:, 1:] ** np.arange(series.trunc_e + 1)
    value = np.abs(np.einsum("pn,nq,pq->p", A, C, E))
    bound = horner_gamma(series) * np.einsum("pn,nq,pq->p", A, np.abs(C), E)
    t = t_mk(mode)
    norm = 2.0 * abs(float(t.t_value)) * pts[:, 0] ** t.leading_a_power * pts[:, 1] ** t.leading_e_power
    settled = (value + bound) <= EPS_CURVE * norm * (1.0 - 1e-12)
    exact = ExactPoly(series)
    failures = []
    for idx in np.nonzero(~settled)[0]:
        a, e = points[idx]
        fhat = abs(exact(a, e)) / normalization(mode, a, e)
        if fhat > EPS_CURVE:
            failures.append(
                f"mode {mode}: curve point ({a!r},{e!r}) has |fhat| = {float(fhat):.3e} > EPS_CURVE"
            )
    return failures


def parse_range(text: str) -> List[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


ROUTES: Dict[str, Callable] = {
    "newcomb": hansen_module.hansen_newcomb,
    "wnuk": hansen_module.hansen_wnuk,
    "balmino": hansen_module.hansen_balmino,
}


def check_hansen_routes(outcome: Outcome, routes: Dict[str, Callable] = ROUTES) -> List[str]:
    """`bench --methods ...`: key count from the key box; for a seeded sample
    of keys every route agrees with quadrature and has the series' structure:
    no exponent below |k-m|, one parity, delta_{k,m} at e = 0, symmetry.

    The routes are called directly, so the symmetry X_k^{n,m} = X_{-k}^{n,-m}
    is checked on each route rather than through the dispatcher's canonical key.
    """
    args = outcome.args
    keys = [(n, m, k) for n in parse_range(args.n) for m in parse_range(args.m) for k in parse_range(args.k)]
    methods = args.methods.split(",")
    failures = []
    lines = outcome.stdout.splitlines()
    if f"equality verified on {len(keys)} keys at order {args.order}" not in lines:
        failures.append(f"stdout does not report equality on the {len(keys)} keys of the key box")
    for meth in methods:
        if not any(re.fullmatch(rf"\s*{meth}: \d+\.\d+ s \(\d+\.\d+ ms/key\)", line) for line in lines):
            failures.append(f"stdout has no timing line for {meth}")
    rng = random.Random(outcome.seed)
    sampled = rng.sample(keys, min(ROUTE_SAMPLE, len(keys)))
    compared = 0
    for n, m, k in sampled:
        by_route = {meth: routes[meth](n, m, k, args.order) for meth in methods}
        # the largest e whose omitted-tail estimate passes the gate of check 4
        last = [abs(float(by_route[methods[0]].c.get(q, 0))) for q in (args.order - 1, args.order)]
        tails = {e: last[0] * e ** (args.order - 1) + last[1] * e**args.order for e in ROUTE_ES}
        e = next((e for e in ROUTE_ES if tails[e] <= ROUTE_TAIL), None)
        oracle = oracle_hansen(n, m, k, e, samples=4096) if e is not None else None
        for meth, series in by_route.items():
            label = f"X_{k}^({n},{m}) by {meth}"
            # O(e^|k-m|) with the parity of k-m; the e^|k-m| coefficient itself
            # can vanish (X_2^{2,1} starts at e^3), so it is not required
            exps = sorted(q for q, v in series.c.items() if v != 0)
            if exps and (exps[0] < abs(k - m) or any((q - abs(k - m)) % 2 for q in exps)):
                failures.append(
                    f"{label}: exponents {exps[:3]}..., expected none below {abs(k - m)}, all of its parity"
                )
            if series.c.get(0, 0) != (1 if k == m else 0):
                failures.append(f"{label}: value {series.c.get(0, 0)} at e = 0, expected delta_(k,m)")
            if routes[meth](n, -m, -k, args.order) != series:
                failures.append(f"{label}: X_k^(n,m) != X_-k^(n,-m)")
            if oracle is None:
                continue
            compared += 1
            value = float(sum(Fraction(v) * Fraction(e) ** q for q, v in series.c.items()))
            if abs(value - oracle) > ROUTE_TOL:
                failures.append(f"{label}: |series - quadrature| = {abs(value - oracle):.2e} at e = {e}")
    if 2 * compared < len(sampled) * len(methods):
        failures.append(
            f"only {compared} sampled series passed the tail gate and were compared with quadrature"
        )
    return failures


CHECKS: Dict[str, Callable[[Outcome], List[str]]] = {
    "triple-5m2": check_triple,
    "scan-triple": check_scan_triple,
    "curves-hires": check_curves,
    "hansen-routes": check_hansen_routes,
}
