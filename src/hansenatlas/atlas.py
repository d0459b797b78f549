"""Zero curves of truncated Fourier coefficients inside the unit square.

The traced object is the normalized coefficient

    fhat_{m,k}(a,e) = f_{m,k}(a,e) / (2 |t_{m,k}| e^{|m-k|} a^{m*}),

whose zero set in (0,1)^2 coincides with that of f_{m,k} away from the axes;
the raw coefficient vanishes identically on e = 0 (for m != k) and a = 0,
which would flood a sign-based tracer with boundary artifacts.

Pipeline per mode: box pass on the grid of [delta, 1-delta]^2 (boxes of
BOX x BOX cells, each signed where `enclose.Enclosure`'s certified bounds
allow) -> exact node signs in the open boxes only (`Enclosure.node_signs`:
the same bounds on each node as a box of its own, one matrix product pair
per strip of open boxes; a sign the bounds leave open is taken from the
exact value) -> marching squares on arrays, in one pass over the open
strips side by side (each cell's corner pattern picks its segments from a
16-row case table; edges are integer ids) with per-edge bisection on sparse
Horner (`PolyEval.at`), started from the grid's signs and decided on the raw
coefficient's sign, which is fhat's (one `PolyEval.a_horner` serves each
edge along e for every round; only the returned values are normalized) ->
chained polylines (ZeroCurve) -> pairwise-proximity seeds -> damped Newton in
float from every seed, on fhat with the float Horner of the exact derivative
series (built on Newton's first call) as Jacobian, all seeds in one loop over
arrays with one batched `PolyEval.at_points` per surface and series per
round, each dropped seed logged with its reason -> dedupe of the converged
points -> one exact residual check per distinct point, at the float Newton's
point (IntersectionReport) -> near-triple triangles with
area/incenter/inradius (TriangleReport).  A triple zero is certified only when a Gauss-Newton solve
of the full 3-system, checked the same way, has exact residuals <=
RESIDUAL_TOL on all three coefficients.

`trace_surface` is the one tracer.  `find_double` (j = 1, 2) and
`find_triple` (j = 1, 2, 3) trace f_{jm,jk} once each and return a
`CommonZeros` that carries those curves with the pairwise intersections,
triangles and certificates: the one per-mode result, which `scan_modes`
returns and the exports read.

Everything is deterministic: grids, seed ordering, Newton damping and the
report ordering are all fixed functions of the input.
"""
from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .enclose import BOX, Enclosure, box_corners
from .fourier import Mode, fourier_coefficient, g2_modes, t_mk
from .series import SeriesAE

log = logging.getLogger("hansenatlas.atlas")

EPS_CURVE = 1e-9
NORMALIZED_NEWTON_TOL = 1e-13
RESIDUAL_TOL = 1e-12
DEDUPE_TOL = 1e-6
DEFAULT_GRID = 512
NEWTON_MAX_ITER = 50
NEWTON_DAMPING = 0.5
BISECT_ITER = 54
TRIANGLE_AREA_THRESHOLD = 1e-3
TRIANGLE_POOL_LIMIT = 50000  # vertex combinations tried in full; above it, nearest neighbours
MMAX_CURVES = 12
MMAX_TRIPLES = 8


# ---------------------------------------------------------------------------
# Float evaluation of exact series
# ---------------------------------------------------------------------------


class PolyEval:
    """Double-precision Horner evaluation (in a, then in e) of a SeriesAE."""

    def __init__(self, series: SeriesAE):
        self.series = series
        # `series.horner_rows()` in floats, for `at_points` and as the dense C;
        # int / int rounds correctly, as float(Fraction) does
        rows = [
            (n, lo, hi, step2, [c / series.den for c in coeffs])
            for n, lo, hi, step2, coeffs in series.horner_rows()
        ]
        C = np.zeros((series.trunc_a + 1, series.trunc_e + 1))
        for n, lo, hi, step2, coeffs in rows:
            C[n, lo : hi + 1 : 2 if step2 else 1] = coeffs[::-1]
        self.C = C
        # the rows for `at_points`: coefficients padded with zeros at the high
        # end to one length, the step-2 flags, each row's e**lo and the gap
        # a**(n_prev - n) to the row above as indices into the exponent lists,
        # and the lowest a-exponent
        width = max((len(coeffs) for *_, coeffs in rows), default=0)
        self._K = np.zeros((len(rows), width))
        for r, (*_, coeffs) in enumerate(rows):
            self._K[r, width - len(coeffs) :] = coeffs
        self._step2 = np.array([[step2] for *_, step2, _ in rows], dtype=bool)
        ns = [n for n, *_ in rows]
        self._e_exps = sorted({lo for _, lo, *_ in rows})
        self._e_idx = [self._e_exps.index(lo) for _, lo, *_ in rows]
        self._a_exps = sorted({p - n for p, n in zip(ns, ns[1:])} | set(ns[-1:]))
        self._a_idx = [self._a_exps.index(p - n) for p, n in zip(ns, ns[1:])]
        self._a_last = self._a_exps.index(ns[-1]) if ns else None
        # the e-exponents of the nonzero columns, highest first, with their
        # coefficient columns, and which a-rows are nonzero
        self._cols = np.flatnonzero(C.any(axis=0))[::-1]
        self._Ce = np.ascontiguousarray(C[:, self._cols])
        self._nz_rows = C.any(axis=1)

    def at(self, a: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Values p(a, e) with `a` and `e` broadcast against each other: paired
        points for equal shapes, the grid V[i,j] = p(ax[i], ex[j]) for
        `at(ax[:, None], ex[None, :])`.

        Dense Horner in a, then in e, minus the steps that cannot change a
        value: the a-Horner runs on the nonzero e-columns only and starts at
        the top nonzero a-row; the e-Horner starts at the top nonzero column;
        neither adds a zero row or column.  Every multiplication and addition
        left is the dense scheme's, in its order, so each value is the dense
        one bit for bit, except that a zero may carry the other sign.

        It is `e_horner(a_horner(a), e)`: the column values at `a` can be
        taken once and serve every `e` (`_bisect_edges` does so on the edges
        of fixed a).
        """
        return self.e_horner(self.a_horner(a), e)

    def a_horner(self, a: np.ndarray) -> np.ndarray:
        """The a-Horner of `at`: R[i] holds the column of e-exponent
        `_cols[i]` at `a`, with shape (len(_cols),) + a.shape."""
        a = np.asarray(a, dtype=float)
        cols = self._cols
        R = np.empty((len(cols),) + a.shape)
        if not len(cols):
            return R
        Ce = self._Ce.reshape(self._Ce.shape + (1,) * a.ndim)
        top = int(np.flatnonzero(self._nz_rows)[-1])
        R[...] = Ce[top]
        for n in range(top - 1, -1, -1):
            R *= a
            if self._nz_rows[n]:
                R += Ce[n]
        return R

    def e_horner(self, R: np.ndarray, e: np.ndarray) -> np.ndarray:
        """The e-Horner of `at` on the column values R of `a_horner`, with
        `e` broadcast against R[0]."""
        e = np.asarray(e, dtype=float)
        v = np.zeros(np.broadcast_shapes(R.shape[1:], e.shape))
        cols = self._cols
        if not len(cols):
            return v
        v[...] = R[0]
        for i in range(1, len(cols)):
            for _ in range(cols[i - 1] - cols[i]):
                v *= e
            v += R[i]
        for _ in range(cols[-1]):
            v *= e
        return v

    def at_points(self, a: Sequence[float], e: Sequence[float]) -> np.ndarray:
        """Values p(a[i], e[i]) at paired points, by Horner on the parity rows
        of `SeriesAE.horner_rows`, for finite a and e.

        Per a-exponent n, descending, the e-coefficients run from the highest
        exponent down to the lowest, lo, with step 2 in e^2 where they share
        a parity, and the row's value is that Horner times e**lo.  The rows
        are folded by Horner in a: acc = acc * a**(n_prev - n) + row, and the
        result is acc * a**n_last.  The e-Horner runs on all rows and points
        at once; the zeros that pad a short row at its high end leave every
        value unchanged, since 0*x + 0 = 0 and 0*x + c = c for finite x.

        The powers a**d and e**lo are taken per point by Python's scalar `**`
        (the C library's pow), not by `np.power` on arrays: numpy's array pow
        may take a vector path whose last bit differs from the scalar one
        (about 5 % of inputs for d >= 3 with numpy 2.4 on AVX-512), and the
        Newton iterates must not depend on the batch they are evaluated in.
        """
        al = np.asarray(a, dtype=float).ravel().tolist()
        el = np.asarray(e, dtype=float).ravel().tolist()
        e = np.array(el)
        if not len(self._K):
            return np.zeros(len(el))
        x = np.where(self._step2, e * e, e)
        inner = np.empty((len(self._K), len(el)))
        inner[...] = self._K[:, :1]
        for c in self._K.T[1:, :, None]:
            inner *= x
            inner += c
        inner *= np.array([[v**q for v in el] for q in self._e_exps])[self._e_idx]
        apow = np.array([[v**d for v in al] for d in self._a_exps])
        # a copy of the top row that, like the scalar loop's 0.0 + row, turns
        # -0.0 into 0.0
        acc = inner[0] + 0.0
        for r, g in enumerate(self._a_idx, 1):
            acc *= apow[g]
            acc += inner[r]
        return acc * apow[self._a_last]

    def at_point(self, a: float, e: float) -> float:
        """p(a, e) at one point: `at_points` on a single pair."""
        return float(self.at_points([a], [e])[0])


class ModeSurface:
    """One mode's truncated coefficient with its normalization and derivatives."""

    def __init__(self, mode: Mode, order: Tuple[int, int]):
        self.mode = mode
        self.order = order
        self.series = fourier_coefficient(mode, order[0], order[1])
        self.poly = PolyEval(self.series)
        t = t_mk(mode)
        self.norm_scale = 2.0 * abs(float(t.t_value))
        self.a_power = t.leading_a_power
        self.e_power = t.leading_e_power
        if self.norm_scale == 0.0:
            log.error("normalization scale vanishes for mode %s", mode)
            self.norm_scale = 1.0

    # the partials, built on Newton's first read: the curves task never reads them
    @functools.cached_property
    def da(self) -> PolyEval:
        return PolyEval(self.series.derivative_a())

    @functools.cached_property
    def de(self) -> PolyEval:
        return PolyEval(self.series.derivative_e())

    def visible(self) -> bool:
        return not self.series.is_zero()

    def normalized_at(self, a: np.ndarray, e: np.ndarray) -> np.ndarray:
        """fhat(a, e), broadcast like `PolyEval.at`."""
        norm = self.norm_scale * np.power(a, self.a_power) * np.power(e, self.e_power)
        return self.poly.at(a, e) / norm

    def normalized_and_partials(
        self, a: np.ndarray, e: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """fhat and its partials at paired points, each an `at_points`
        evaluation; d(f/nm)/da = (f_a - p_a f / a)/nm etc., with the powers of
        nm taken per point by scalar `**` like those of `at_points`."""
        f = self.poly.at_points(a, e)
        fa = self.da.at_points(a, e)
        fe = self.de.at_points(a, e)
        nm = self.norm_scale * np.array([v**self.a_power for v in a.tolist()])
        nm *= np.array([v**self.e_power for v in e.tolist()])
        return f / nm, (fa - self.a_power * f / a) / nm, (fe - self.e_power * f / e) / nm


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroCurve:
    """Ordered polyline approximating one connected component of {f_{m,k} = 0}."""

    points: Tuple[Tuple[float, float], ...]
    closed: bool


@dataclass(frozen=True)
class IntersectionReport:
    """A refined common zero of f_{jm,jk} for the j's in `multiples`."""

    multiples: Tuple[int, ...]
    point: Tuple[float, float]
    residuals: Tuple[float, ...]
    newton_iterations: int


@dataclass(frozen=True)
class TriangleReport:
    """Triple-proximity triangle built from the three pairwise intersections."""

    vertices: Tuple[Tuple[float, float], ...]
    area: float
    incenter: Tuple[float, float]
    inradius: float


@dataclass(frozen=True)
class TripleZeroCertificate:
    point: Tuple[float, float]
    residuals: Tuple[float, float, float]


# ---------------------------------------------------------------------------
# Marching squares
# ---------------------------------------------------------------------------


def grid_axis(grid_n: int) -> np.ndarray:
    """grid_n uniform samples of [delta, 1-delta] with delta = 1/grid_n."""
    delta = 1.0 / grid_n
    return np.linspace(delta, 1.0 - delta, grid_n)


def _bisect_edges(
    surf: ModeSurface,
    a_lo: np.ndarray,
    e_lo: np.ndarray,
    a_hi: np.ndarray,
    e_hi: np.ndarray,
    neg_lo: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisect f-hat along straight edges with a sign change, `neg_lo` being
    the grid's sign at the low ends (True: not positive); returns
    (a, e, value), the value normalized.

    Each round decides on the sign of the raw value `surf.poly.at`, which by
    the surface contract of `trace_surface` is fhat's (the norm is positive:
    the decisions are those on the float fhat unless a negative quotient
    underflows to -0.0); only the returned values are normalized, by one
    `surf.normalized_at`.  The edges of fixed
    a after the last one whose a varies (`trace_surface` lays out its a-edges
    first) take their column values from one `PolyEval.a_horner` and run only
    the e-Horner in each round: a_lo + mid * 0.0 is a_lo, so every value is
    `at`'s bit for bit."""
    poly = surf.poly
    moving = np.flatnonzero(a_lo != a_hi)
    k = int(moving[-1]) + 1 if len(moving) else 0  # edges k.. have fixed a
    R = poly.a_horner(a_lo[k:])
    lo = np.zeros_like(a_lo)
    hi = np.ones_like(a_lo)
    f = np.empty_like(a_lo)
    for _ in range(BISECT_ITER):
        mid = 0.5 * (lo + hi)
        am = a_lo[:k] + mid[:k] * (a_hi[:k] - a_lo[:k])
        em = e_lo + mid * (e_hi - e_lo)
        f[:k] = poly.at(am, em[:k])
        f[k:] = poly.e_horner(R, em[k:])
        go_right = (f < 0) == neg_lo
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    mid = 0.5 * (lo + hi)
    am = a_lo + mid * (a_hi - a_lo)
    em = e_lo + mid * (e_hi - e_lo)
    return am, em, surf.normalized_at(am, em)


# Marching-squares cases (Lorensen & Cline, SIGGRAPH 1987).  A cell's corner
# pattern s00 | s10<<1 | s01<<2 | s11<<3 picks its row: the crossing edges as
# the segment's ends, 0 bottom (a-edge at j), 1 top (a-edge at j+1), 2 left
# (e-edge at i), 3 right (e-edge at i+1).  The saddles 6 and 9 have a second
# segment and are drawn as for a positive centre; a negative centre takes the
# row of the complement pattern.
_CASES = np.array(
    [
        [-1, -1, -1, -1],
        [0, 2, -1, -1],
        [0, 3, -1, -1],
        [2, 3, -1, -1],
        [1, 2, -1, -1],
        [0, 1, -1, -1],
        [0, 2, 1, 3],
        [1, 3, -1, -1],
        [1, 3, -1, -1],
        [0, 3, 1, 2],
        [0, 1, -1, -1],
        [1, 2, -1, -1],
        [2, 3, -1, -1],
        [0, 3, -1, -1],
        [0, 2, -1, -1],
        [-1, -1, -1, -1],
    ]
)


def trace_surface(surf, grid_n: int = DEFAULT_GRID) -> List[ZeroCurve]:
    """Marching-squares zero curves of the normalized coefficient.

    The node signs S are exact.  First the grid is cut into boxes of BOX x BOX
    cells with corners at the nodes 0, BOX, 2 BOX, ... and n - 1, and
    `enclose.Enclosure` on the corner nodes bounds the coefficient over each
    box: a box where the bounds fix the sign (closed) gives it to all its
    nodes and holds no crossing.  Only the nodes of open boxes are evaluated,
    if there are any, by the `node_signs` of an enclosure on the whole axes,
    in one strip per row of boxes: the strip owns the node rows from its box
    row's bottom up to, not including, the next box row's (the last strip, up
    to the top), so each node is evaluated at most once, and its columns are
    the nodes of its open boxes.  Marching squares
    and the crossing edges run in one pass over the open strips laid side by
    side, each with the next strip's first row, and come out sorted.

    Each cell's corner pattern picks its segments from `_CASES`, a saddle's by
    the sign of fhat at the cell centre.  An edge is an int: i*n + j joins
    the nodes (i, j)-(i+1, j) and n^2 + i*n + j the nodes (i, j)-(i, j+1), so
    ids sort by direction (a before e), then i, then j; cells and edges come
    out in the order of a pass over the whole grid.  Every edge whose end
    signs differ is bisected to |fhat| <= EPS_CURVE (read at call time),
    starting from its signs in S, by `_bisect_edges`: each round decides on
    the sign of the raw value, one a-Horner serves each e-edge for all
    rounds, and only the returned values are normalized; a cell with a
    crossing left above it is skipped.  The segments are chained into open or
    closed polylines from the sorted endpoints along sorted neighbours.  `surf` is a ModeSurface or
    anything with mode/order attributes (named in the log lines only),
    visible(), a broadcasting normalized_at(a, e) whose sign is that of the
    raw coefficient, and the raw coefficient's `poly`, a PolyEval.
    """
    if grid_n < 16:
        raise ValueError(f"grid_n must be at least 16, got {grid_n}")
    mode, order = surf.mode, surf.order
    if not surf.visible():
        return []
    n = grid_n
    ax = grid_axis(n)
    corners = box_corners(n)
    nb = len(corners) - 1
    # the boxes from the corner nodes alone; the full axes only when a box is
    # open, for its nodes.  R and E are elementwise in the nodes, the corner
    # products keep their shapes and mu reads R at the last node, a corner,
    # so the box signs are those of the full axes' enclosure bit for bit
    box = Enclosure(surf.poly.series, ax[corners], ax[corners]).signs()
    # node j lies in the boxes lb[j] and rb[j] of a box row, which differ at
    # a corner; a strip's columns are the nodes in one of its open boxes
    node = np.arange(n)
    lb = np.minimum(np.maximum(node - 1, 0) // BOX, nb - 1)
    rb = np.minimum(node // BOX, nb - 1)
    closed = box != 0
    open_nodes = ~(closed[:, lb] & closed[:, rb])
    start = np.append(corners[:-1], n)  # strip b owns the node rows start[b] .. start[b+1] - 1
    strips = np.flatnonzero(open_nodes.any(axis=1))
    if not len(strips):
        return []
    cols = [np.flatnonzero(open_nodes[b]) for b in strips]
    blocks, settled = Enclosure(surf.poly.series, ax, ax).node_signs(
        [(slice(start[b], start[b + 1]), c) for b, c in zip(strips, cols)]
    )
    if settled:
        log.info("mode %s order %s: %d grid signs settled exactly", mode, order, settled)

    # the open strips side by side in BOX + 1 rows: a strip's own rows, then
    # the first row of the next strip, its closed boxes' signs where it
    # evaluated nothing (the last strip repeats its top row instead); per
    # column, the node column, the strip's first node row, its own rows and
    # its rows of cells
    heads = box[1:, rb] > 0
    for b, c, block in zip(strips, cols, blocks):
        if b:
            heads[b - 1, c] = block[0]
    col = np.concatenate(cols)
    W = np.empty((BOX + 1, len(col)), dtype=bool)
    r0, own, cell_rows = (np.empty(len(col), dtype=int) for _ in range(3))
    spans = []
    at = 0
    for b, c, block in zip(strips, cols, blocks):
        span = slice(at, at + len(c))
        W[: len(block), span] = block
        W[len(block) :, span] = heads[b, c] if b + 1 < nb else block[-1]
        r0[span] = start[b]
        own[span] = len(block)
        cell_rows[span] = len(block) - (b + 1 == nb)
        spans.append(span)
        at += len(c)
    adjacent = col[1:] == col[:-1] + 1
    adjacent &= r0[1:] == r0[:-1]
    row = np.arange(BOX + 1)[:, None]

    def in_id_order(mask, stride):
        """The True entries (r, k) of `mask` strip by strip, each strip's in
        row-major order: ids (r0 + r) * stride + col in ascending order, with
        their r and k."""
        found = [np.nonzero(mask[:, span]) for span in spans]
        r = np.concatenate([r for r, _ in found])
        k = np.concatenate([k + span.start for (_, k), span in zip(found, spans)])
        return (r0[k] + r) * stride + col[k], r, k

    # corner pattern of every cell, by doubling on the bytes of W: a bool
    # operand would promote to int64, and numpy runs a uint8 shift slower
    bits = W.view(np.uint8)
    case = bits[1:, 1:] * 2
    case += bits[:-1, 1:]
    case *= 2
    case += bits[1:, :-1]
    case *= 2
    case += bits[:-1, :-1]
    case -= 1  # patterns 0 and 15, the cells with no crossing, go to 255 and 14
    cells, r, k = in_id_order((case < 14) & adjacent & (row[:-1] < cell_rows[:-1]), n - 1)
    if not len(cells):
        return []
    case = case[r, k] + 1
    # the crossing edges, with the sign of their low ends
    a_ids, r, k = in_id_order((W[:-1] != W[1:]) & (row[:-1] < cell_rows), n)
    a_pos = W[r, k]
    e_ids, r, k = in_id_order((W[:, :-1] != W[:, 1:]) & adjacent & (row < own[:-1]), n)
    e_pos = W[r, k]
    ci, cj = np.divmod(cells, n - 1)
    saddle = np.flatnonzero((case == 6) | (case == 9))
    si, sj = ci[saddle], cj[saddle]
    centre = surf.normalized_at(0.5 * (ax[si] + ax[si + 1]), 0.5 * (ax[sj] + ax[sj + 1]))
    case[saddle[~(centre > 0.0)]] ^= 15

    offsets = np.array([0, 1, n * n, n * n + n])
    base = ci * n + cj
    first = base[:, None] + offsets[_CASES[case, :2]]
    second = base[saddle, None] + offsets[_CASES[case[saddle], 2:]]
    # the crossing edges, in id order
    ai, aj = np.divmod(a_ids, n)
    ei, ej = np.divmod(e_ids, n)
    ids = np.concatenate([a_ids, n * n + e_ids])
    i, j = np.concatenate([ai, ei]), np.concatenate([aj, ej])
    i_hi, j_hi = np.concatenate([ai + 1, ei]), np.concatenate([aj, ej + 1])
    pos = np.concatenate([a_pos, e_pos])
    pa, pe, pv = _bisect_edges(surf, ax[i], ax[j], ax[i_hi], ax[j_hi], ~pos)
    ok = np.abs(pv) <= EPS_CURVE
    dropped = int(len(ok) - ok.sum())
    if dropped:
        log.info("mode %s order %s: %d edge crossings above eps dropped", mode, order, dropped)

    kept = ok[np.searchsorted(ids, first)].all(axis=1)
    kept[saddle] &= ok[np.searchsorted(ids, second)].all(axis=1)
    saddle_cells = int(kept[saddle].sum())
    if saddle_cells:
        log.info("mode %s order %s: %d saddle cells resolved by center value", mode, order, saddle_cells)
    segments = np.concatenate([first[kept], second[kept[saddle]]]).tolist()

    points = dict(zip(ids[ok].tolist(), zip(pa[ok].tolist(), pe[ok].tolist())))
    adjacency: Dict[int, List[int]] = {}
    for u, v in segments:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    for nbrs in adjacency.values():
        nbrs.sort()

    visited = set()
    curves: List[ZeroCurve] = []

    # an edge lies in at most two cells, each of which joins it to one other
    # edge: an id has at most two neighbours, and a chain is a path or a cycle
    def walk(start: int) -> Tuple[List[int], bool]:
        chain = [start]
        visited.add(start)
        cur, prev = start, None
        while True:
            nxt = None
            for cand in adjacency[cur]:
                if cand != prev:
                    nxt = cand
                    break
            if nxt is None or nxt in visited:
                return chain, nxt == start
            chain.append(nxt)
            visited.add(nxt)
            prev, cur = cur, nxt

    def polyline(chain: List[int], closed: bool) -> ZeroCurve:
        # a zero on a grid node is the crossing of every edge that ends there
        pts = [points[k] for k in chain]
        pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
        if closed and len(pts) > 1 and pts[-1] == pts[0]:
            pts.pop()
        return ZeroCurve(tuple(pts), closed)

    endpoints = sorted(k for k, nbrs in adjacency.items() if len(nbrs) == 1)
    for start in endpoints + sorted(adjacency):
        if start not in visited:
            curves.append(polyline(*walk(start)))
    curves.sort(key=lambda c: c.points[0])
    return curves


# ---------------------------------------------------------------------------
# Intersections
# ---------------------------------------------------------------------------


def _proximity_seeds(
    curves1: Sequence[ZeroCurve], curves2: Sequence[ZeroCurve], radius: float
) -> List[Tuple[float, float]]:
    """Midpoints of cross-curve point pairs closer than `radius`, deduplicated."""
    pts1 = [p for c in curves1 for p in c.points]
    pts2 = [p for c in curves2 for p in c.points]
    if not pts1 or not pts2:
        return []
    buckets: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for p in pts2:
        key = (int(p[0] / radius), int(p[1] / radius))
        buckets.setdefault(key, []).append(p)
    lattice = radius / 2.0
    seeds: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for p in pts1:
        i0, j0 = int(p[0] / radius), int(p[1] / radius)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for q in buckets.get((i0 + di, j0 + dj), ()):
                    if math.hypot(p[0] - q[0], p[1] - q[1]) < radius:
                        mid = ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)
                        cell = (round(mid[0] / lattice), round(mid[1] / lattice))
                        seeds.setdefault(cell, mid)
    return sorted(seeds.values())


def _polyline_distance(curves: Sequence[ZeroCurve], point: Tuple[float, float]) -> float:
    best = math.inf
    for c in curves:
        for p in c.points:
            d = math.hypot(p[0] - point[0], p[1] - point[1])
            if d < best:
                best = d
    return best


def _step(F: np.ndarray, J: np.ndarray) -> Optional[np.ndarray]:
    """Newton step (least squares for three surfaces); None if J is singular."""
    try:
        if len(F) == 2:
            return np.linalg.solve(J, -F)
        return np.linalg.lstsq(J, -F, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None


def _fhat_and_jacobians(
    surfs: Sequence[ModeSurface], points: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(F, J) at every row of `points`: F[i, j] = fhat_j and
    J[i, j] = (d fhat_j/da, d fhat_j/de) at points[i], one batch per surface."""
    cols = [s.normalized_and_partials(points[:, 0], points[:, 1]) for s in surfs]
    F = np.stack([f for f, _, _ in cols], axis=1)
    J = np.stack([np.stack([fa, fe], axis=1) for _, fa, fe in cols], axis=1)
    return F, J


def _newton_batch(
    surfs: Sequence[ModeSurface], seeds: Sequence[Tuple[float, float]]
) -> List[Tuple[Optional[Tuple[Tuple[float, float], int]], str]]:
    """Damped (Gauss-)Newton in float from every seed down to max_j |fhat_j|
    <= NORMALIZED_NEWTON_TOL, as one loop over arrays of all seeds: each
    round evaluates the trial points of every running seed in one batch.  A
    seed that has just accepted a point stops there if converged or after
    NEWTON_MAX_ITER steps, else takes a `_step`; it tries x + lam * step,
    lam = NEWTON_DAMPING**t for t < 40, skipping trials outside the open
    unit square, and accepts the first that lowers max |fhat_j| (a running
    seed is above the tolerance, so a trial that meets it lowers it).  On
    the normalized coefficients, zeros stay transversal where the raw ones
    vanish to high order near the axes, so spurious
    absolute-residual solutions never converge.  Returns per seed
    (((a, e), iterations), "converged") or (None, the reason it was dropped:
    "singular", "no descent", "stagnant" or "iterations")."""
    x = np.array(seeds, dtype=float).reshape(-1, 2)
    if not len(x):
        return []
    status = np.full(len(x), "running", dtype=object)
    step = np.zeros_like(x)
    t, iterations, stagnant = (np.zeros(len(x), dtype=int) for _ in range(3))
    lam = np.cumprod([1.0] + [NEWTON_DAMPING] * 39)
    F, J = _fhat_and_jacobians(surfs, x)
    fmax = np.abs(F).max(axis=1)
    moved = np.arange(len(x))  # the seeds that have just accepted a point
    while True:
        done = fmax[moved] <= NORMALIZED_NEWTON_TOL
        status[moved[done]] = "converged"
        moved = moved[~done]
        capped = iterations[moved] >= NEWTON_MAX_ITER
        status[moved[capped]] = "iterations"
        for i in moved[~capped]:
            s = _step(F[i], J[i])
            if s is None:
                status[i] = "singular"
            else:
                step[i], t[i] = s, 0
        # each running seed's first trial from its t on inside the open square
        live = np.flatnonzero(status == "running")
        trials = x[live, None] + lam[:, None] * step[live, None]
        inside = ((trials > 0.0) & (trials < 1.0)).all(axis=2)
        inside &= np.arange(len(lam)) >= t[live, None]
        found = inside.any(axis=1)
        status[live[~found]] = "no descent"
        live = live[found]
        if not len(live):
            break
        t[live] = inside[found].argmax(axis=1)
        xn = trials[found][np.arange(len(live)), t[live]]
        Fn, Jn = _fhat_and_jacobians(surfs, xn)
        fn = np.abs(Fn).max(axis=1)
        ok = fn < fmax[live]
        t[live[~ok]] += 1
        moved = live[ok]
        # seeds sitting on near-tangent curve pairs creep without converging
        stagnant[moved] = np.where(fn[ok] > 0.5 * fmax[moved], stagnant[moved] + 1, 0)
        x[moved], F[moved], J[moved], fmax[moved] = xn[ok], Fn[ok], Jn[ok], fn[ok]
        iterations[moved] += 1
        status[moved[stagnant[moved] >= 6]] = "stagnant"
        moved = moved[stagnant[moved] < 6]
    return [
        (((float(a), float(e)), int(k)) if s == "converged" else None, s)
        for (a, e), k, s in zip(x, iterations, status)
    ]


def _confirm(
    surfs: Sequence[ModeSurface], x: Tuple[float, float]
) -> Optional[Tuple[float, ...]]:
    """Exact certificate of a point `_newton_batch` returned: each raw
    residual f_j, evaluated once and exactly (float Horner roundoff can hide
    above the tolerance), must satisfy |f_j| <= RESIDUAL_TOL.  Returns the
    |f_j|, or None when one does not.

    There is no float test here: `_newton_batch` returns a point only where
    every |fhat_j| <= NORMALIZED_NEWTON_TOL, and `PolyEval.at_points` gives
    the same values at that point whatever the batch, so |fhat_j| <=
    NORMALIZED_NEWTON_TOL < EPS_CURVE holds at every point that arrives."""
    residuals = tuple(
        abs(float(s.series.eval_exact(Fraction(x[0]), Fraction(x[1])))) for s in surfs
    )
    if max(residuals) > RESIDUAL_TOL:
        return None
    return residuals


def _refine_pair(
    mode: Mode,
    surfs: Dict[int, ModeSurface],
    curves: Dict[int, Tuple[ZeroCurve, ...]],
    multiples: Tuple[int, int],
    grid_n: int,
) -> Tuple[IntersectionReport, ...]:
    """Common zeros of the pair of surfaces `multiples` of the base `mode`,
    seeded where their curves come within two grid steps.  Of the
    float-converged seeds, sorted, each one farther than DEDUPE_TOL from all
    confirmed so far is confirmed; when that fails, the next member of its
    cluster gets its turn.  The log lines name `mode` and `multiples`."""
    pair = tuple(surfs[j] for j in multiples)
    curves_a, curves_b = (curves[j] for j in multiples)
    radius = 2.0 / grid_n
    seeds = _proximity_seeds(curves_a, curves_b, radius)
    converged, dropped = [], []
    for seed, (res, status) in zip(seeds, _newton_batch(pair, seeds)):
        if res is None:
            dropped.append((seed, status))
        else:
            converged.append((res, seed))
    confirmed = []
    for (x, iters), seed in sorted(converged, key=lambda c: c[0][0]):
        if any(_dist(x, kept[0]) <= DEDUPE_TOL for kept in confirmed):
            continue
        residuals = _confirm(pair, x)
        if residuals is None:
            dropped.append((seed, "residual"))
        else:
            confirmed.append((x, residuals, iters))
    for seed, reason in dropped:
        log.info("mode %s %s: Newton dropped seed (%.6f, %.6f): %s", mode, multiples, *seed, reason)
    reports = []
    for point, residuals, iters in confirmed:
        if (
            _polyline_distance(curves_a, point) <= radius
            and _polyline_distance(curves_b, point) <= radius
        ):
            reports.append(IntersectionReport(multiples, point, residuals, iters))
        else:
            log.info("mode %s %s: refined point strayed from parent polylines", mode, multiples)
    return tuple(reports)


CurvesByMultiple = Tuple[Tuple[int, Tuple[ZeroCurve, ...]], ...]
PairReports = Tuple[Tuple[Tuple[int, int], Tuple[IntersectionReport, ...]], ...]


@dataclass(frozen=True)
class CommonZeros:
    """One mode's zero curves of f_{jm,jk}, their pairwise intersections,
    near-triple triangles and any certified triple zero (the last two only for
    j = 1, 2, 3); none of them for a mode `skipped` below the visibility order.
    The base mode and the order are held here only."""

    mode: Mode
    order: Tuple[int, int]
    curves: CurvesByMultiple = ()
    pair_reports: PairReports = ()
    triangles: Tuple[TriangleReport, ...] = ()
    certificates: Tuple[TripleZeroCertificate, ...] = ()
    skipped: bool = False

    def pair(self, j1: int, j2: int) -> Tuple[IntersectionReport, ...]:
        for key, reports in self.pair_reports:
            if key == (j1, j2):
                return reports
        return ()

    @property
    def intersections(self) -> Tuple[IntersectionReport, ...]:
        """The pair reports flattened, in pair order."""
        return tuple(r for _, reports in self.pair_reports for r in reports)

    @property
    def curve_count(self) -> int:
        return sum(len(cs) for _, cs in self.curves)

    @property
    def min_distance(self) -> Optional[float]:
        dists = [math.hypot(*r.point) for r in self.intersections]
        return min(dists) if dists else None


def _trace_and_refine(
    mode: Mode, order: Tuple[int, int], grid_n: int, multiples: Tuple[int, ...]
) -> Tuple[Dict[int, ModeSurface], CurvesByMultiple, PairReports]:
    """Surfaces of f_{jm,jk} for j in `multiples`, each traced once, with the
    curves and the refined intersections of every pair."""
    if not mode.in_g2:
        raise ValueError(f"intersections need a coprime-set mode, got {mode}")
    surfs = {j: ModeSurface(mode.multiple(j), order) for j in multiples}
    curves = {j: tuple(trace_surface(s, grid_n)) for j, s in surfs.items()}
    pair_reports = tuple(
        (pair, _refine_pair(mode, surfs, curves, pair, grid_n))
        for pair in itertools.combinations(multiples, 2)
    )
    return surfs, tuple(curves.items()), pair_reports


def find_double(
    mode: Mode, order: Tuple[int, int], grid_n: int = DEFAULT_GRID
) -> CommonZeros:
    """Curves and common zeros of f_{m,k} and f_{2m,2k} for a coprime-set mode."""
    _, curves, pair_reports = _trace_and_refine(mode, order, grid_n, (1, 2))
    return CommonZeros(mode, order, curves, pair_reports)


# ---------------------------------------------------------------------------
# Triangles and triples
# ---------------------------------------------------------------------------


def triangle_metrics(
    vertices: Sequence[Tuple[float, float]]
) -> Tuple[float, Tuple[float, float], float]:
    """(area, incenter, inradius); degenerate triangles give zero area/inradius."""
    (x1, y1), (x2, y2), (x3, y3) = vertices
    area = 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
    l1 = math.hypot(x2 - x3, y2 - y3)
    l2 = math.hypot(x1 - x3, y1 - y3)
    l3 = math.hypot(x1 - x2, y1 - y2)
    perimeter = l1 + l2 + l3
    if perimeter == 0.0:
        return 0.0, (x1, y1), 0.0
    incenter = (
        (l1 * x1 + l2 * x2 + l3 * x3) / perimeter,
        (l1 * y1 + l2 * y2 + l3 * y3) / perimeter,
    )
    return area, incenter, area / (perimeter / 2.0)


def find_triple(
    mode: Mode, order: Tuple[int, int], grid_n: int = DEFAULT_GRID
) -> CommonZeros:
    """Curves and pairwise zeros of f_{jm,jk} (j = 1,2,3), their proximity
    triangles, and triple-zero certification attempts."""
    surfs, curves, pair_reports = _trace_and_refine(mode, order, grid_n, (1, 2, 3))
    p12, p13, p23 = (r for _, r in pair_reports)
    triangles: List[TriangleReport] = []
    if p12 and p13 and p23:
        combos = []
        if len(p12) * len(p13) * len(p23) <= TRIANGLE_POOL_LIMIT:
            pool = [(r1, r2, r3) for r1 in p12 for r2 in p13 for r3 in p23]
        else:  # nearest-neighbour matching for pathological point counts
            pool = []
            for r1 in p12:
                r2 = min(p13, key=lambda r: _dist(r.point, r1.point))
                r3 = min(p23, key=lambda r: _dist(r.point, r1.point))
                pool.append((r1, r2, r3))
        for r1, r2, r3 in pool:
            verts = (r1.point, r2.point, r3.point)
            perim = (
                _dist(verts[0], verts[1])
                + _dist(verts[0], verts[2])
                + _dist(verts[1], verts[2])
            )
            combos.append((perim, verts))
        combos.sort(key=lambda c: (c[0], c[1]))
        seen = set()
        for rank, (perim, verts) in enumerate(combos):
            area, incenter, inradius = triangle_metrics(verts)
            if rank > 0 and area >= TRIANGLE_AREA_THRESHOLD:
                continue
            key = tuple(sorted(verts))
            if key in seen:
                continue
            seen.add(key)
            triangles.append(TriangleReport(verts, area, incenter, inradius))

    certificates: List[TripleZeroCertificate] = []
    triple = (surfs[1], surfs[2], surfs[3])
    incenters = [tri.incenter for tri in triangles[:5]]
    for res, _ in _newton_batch(triple, incenters):
        residuals = _confirm(triple, res[0]) if res else None
        if residuals is not None:
            certificates.append(TripleZeroCertificate(res[0], residuals))  # type: ignore[arg-type]
    return CommonZeros(
        mode, order, curves, pair_reports, tuple(triangles), tuple(certificates)
    )


def _dist(p: Tuple[float, float], q: Tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


# ---------------------------------------------------------------------------
# Mode scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtlasReport:
    task: str
    order: Tuple[int, int]
    grid_n: int
    m_max: int
    entries: Tuple[CommonZeros, ...]

    @property
    def total_curves(self) -> int:
        return sum(e.curve_count for e in self.entries)

    @property
    def min_distance(self) -> Optional[float]:
        dists = [e.min_distance for e in self.entries if e.min_distance is not None]
        return min(dists) if dists else None

    @property
    def certified(self) -> Tuple[TripleZeroCertificate, ...]:
        return tuple(c for e in self.entries for c in e.certificates)


def _scan_one(args: Tuple[Mode, str, Tuple[int, int], int]) -> CommonZeros:
    mode, task, order, grid_n = args
    j_max = {"curves": 1, "double": 2, "triple": 3}[task]
    if any(
        order[0] < jm.m_star or order[1] < abs(jm.m - jm.k)
        for jm in map(mode.multiple, range(1, j_max + 1))
    ):
        return CommonZeros(mode, order, skipped=True)
    if task == "curves":
        curves = tuple(trace_surface(ModeSurface(mode, order), grid_n))
        return CommonZeros(mode, order, ((1, curves),))
    return (find_double if task == "double" else find_triple)(mode, order, grid_n)


def scan_modes(
    order: Tuple[int, int],
    m_max: Optional[int] = None,
    task: str = "curves",
    grid_n: int = DEFAULT_GRID,
    jobs: int = 1,
    modes: Optional[Sequence[Mode]] = None,
) -> AtlasReport:
    """Run one task over every coprime-set mode with |m|+|k| <= m_max (at
    least 1), or over `modes`, each at most once (then `m_max` must not be
    given and keeps its default).

    Skips a mode when the leading monomial a^{m*} e^{|m-k|} of one of the
    f_{jm,jk} the task traces (j <= 1, 2 or 3), each with its own m*, lies
    beyond the truncation order; `jobs` > 1 distributes modes over worker
    processes (results keep the input order).
    """
    if task not in ("curves", "double", "triple"):
        raise ValueError(f"unknown task {task!r}")
    if order[0] < 0 or order[1] < 0:
        raise ValueError(f"truncation orders must be non-negative, got {order}")
    if m_max is not None and modes is not None:
        raise ValueError("give m_max (--mmax) or an explicit mode list (--modes), not both")
    if m_max is not None and m_max < 1:
        raise ValueError(f"m_max (--mmax) must be at least 1, got {m_max}")
    if m_max is None:
        m_max = MMAX_TRIPLES if task == "triple" else MMAX_CURVES
    mode_list = list(modes) if modes is not None else g2_modes(m_max)
    repeated = sorted({mode for mode in mode_list if mode_list.count(mode) > 1})
    if repeated:
        raise ValueError(f"modes given more than once (--modes): {', '.join(map(str, repeated))}")
    args = [(mode, task, order, grid_n) for mode in mode_list]
    if jobs > 1 and len(args) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(jobs) as pool:
            entries = pool.map(_scan_one, args, chunksize=1)
    else:
        entries = [_scan_one(a) for a in args]
    return AtlasReport(task, order, grid_n, m_max, tuple(entries))
