"""Zero-curve tracing, intersection refinement, triangles, and mode scans.

Everything here runs at small orders/grids; the order-60 reproduction lives
in the acceptance suite.
"""
import dataclasses
import itertools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hansenatlas import atlas
from hansenatlas.atlas import (
    AtlasReport,
    IntersectionReport,
    ModeSurface,
    PolyEval,
    find_double,
    find_triple,
    grid_axis,
    scan_modes,
    trace_surface,
    triangle_metrics,
)
from hansenatlas.enclose import BOX, Enclosure, box_corners
from hansenatlas.fourier import Mode, fourier_coefficient, g2_modes
from hansenatlas.report import atlas_json, curves_csv
from hansenatlas.series import SeriesAE
from hansenatlas.svgplot import render_svg

from curve_certificates import dropped_crossings, grid_sign_margin


# -- grid evaluation --------------------------------------------------------


def normalized_grid(mode, order, grid_n):
    ax = grid_axis(grid_n)
    return ModeSurface(mode, order).normalized_at(ax[:, None], ax[None, :])


def test_grid_single_monomial_normalizes_to_minus_one():
    V = normalized_grid(Mode(2, 2), (2, 0), 16)
    assert np.max(np.abs(V + 1.0)) < 1e-12


def test_trace_rejects_tiny_grid():
    with pytest.raises(ValueError):
        trace_surface(ModeSurface(Mode(2, 2), (2, 0)), 8)


def test_grid_signs_deterministic_across_paths():
    # the same point gives the same sign through grid and paired-point
    # broadcasting, and repeated grid evaluation is bitwise identical
    surf = ModeSurface(Mode(2, 5), (20, 20))
    ax = grid_axis(16)
    V = surf.normalized_at(ax[:, None], ax[None, :])
    A, E = np.meshgrid(ax, ax, indexing="ij")
    W = surf.normalized_at(A.ravel(), E.ravel()).reshape(16, 16)
    assert np.array_equal(np.sign(V), np.sign(W))
    assert np.array_equal(
        normalized_grid(Mode(2, 5), (20, 20), 64), normalized_grid(Mode(2, 5), (20, 20), 64)
    )


def test_grid_sign_change_present_for_2_5_at_60():
    V = normalized_grid(Mode(2, 5), (60, 60), 64)
    assert (V > 0).any() and (V < 0).any()


# -- float Horner against the dense reference ----------------------------------


def dense_horner(C, a, e):
    """Dense Horner over every coefficient of C, in a and then in e: the
    reference that PolyEval.at must equal bit for bit."""
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    R = np.zeros(a.shape + (C.shape[1],))
    for n in range(C.shape[0] - 1, -1, -1):
        R *= a[..., None]
        R += C[n]
    v = np.zeros(np.broadcast_shapes(a.shape, e.shape))
    for q in range(C.shape[1] - 1, -1, -1):
        v *= e
        v += R[..., q]
    return v


def assert_at_is_dense(poly, a, e):
    got = poly.at(a, e)
    want = dense_horner(poly.C, a, e)
    assert got.shape == want.shape
    assert np.array_equal(got, want)  # equal up to the sign of a zero


def assert_split_is_dense(poly, a, es):
    """One a-Horner at `a`, reused for every e of `es` by the e-Horner."""
    R = poly.a_horner(a)
    for e in es:
        want = dense_horner(poly.C, a, e)
        got = poly.e_horner(R, e)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_at_equals_dense_horner_on_order20_surfaces():
    ax = grid_axis(64)
    rng = np.random.default_rng(20)
    a = np.concatenate([rng.random(300), [0.0, 1.0, 0.0, 0.5]])
    e = np.concatenate([rng.random(300), [0.0, 0.0, 1.0, 0.0]])
    for mode in g2_modes(8):
        series = fourier_coefficient(mode, 20, 20)
        for s in (series, series.derivative_a(), series.derivative_e()):
            poly = PolyEval(s)
            assert_at_is_dense(poly, ax[:, None], ax[None, :])
            assert_at_is_dense(poly, a, e)


@pytest.mark.parametrize(
    "coeffs, trunc_a, trunc_e",
    [
        ({}, 3, 4),  # zero series
        ({(0, 0): Fraction(5, 3)}, 2, 2),  # constant
        ({(2, 3): -7}, 4, 5),  # single monomial
        ({(0, 0): 1, (1, 3): 2, (2, 1): Fraction(-3, 7)}, 2, 3),  # e-column 2 all zero
        ({(0, 1): 1, (1, 0): -2, (1, 2): Fraction(1, 3)}, 5, 2),  # a-rows 2..5 all zero
    ],
    ids=["zero", "constant", "monomial", "interior-zero-column", "zero-top-rows"],
)
def test_at_equals_dense_horner_on_edge_cases(coeffs, trunc_a, trunc_e):
    poly = PolyEval(SeriesAE(coeffs, trunc_a, trunc_e))
    ax = np.array([-0.75, -0.0, 0.0, 1e-3, 0.3, 0.7, 1.0, 1.5])
    assert_at_is_dense(poly, ax[:, None], ax[None, :])
    assert_at_is_dense(poly, ax, ax[::-1])
    assert_at_is_dense(poly, np.float64(0.3), ax)
    assert_at_is_dense(poly, ax, 0.6)
    assert_split_is_dense(poly, ax, [ax[::-1], ax, np.full(len(ax), 0.6), 0.6])


@st.composite
def sparse_int_series(draw):
    trunc_a = draw(st.integers(min_value=0, max_value=8))
    trunc_e = draw(st.integers(min_value=0, max_value=8))
    keys = st.tuples(
        st.integers(min_value=0, max_value=trunc_a), st.integers(min_value=0, max_value=trunc_e)
    )
    coeffs = draw(st.dictionaries(keys, st.integers(min_value=-40, max_value=40), max_size=12))
    return SeriesAE(coeffs, trunc_a, trunc_e)


@given(
    sparse_int_series(),
    st.lists(
        st.tuples(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0)),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=150, deadline=None)
def test_at_equals_dense_horner_property(series, points):
    poly = PolyEval(series)
    a, e = np.array(points).T
    assert_at_is_dense(poly, a, e)
    assert_at_is_dense(poly, a[:, None], e[None, :])
    assert_split_is_dense(poly, a, [e, e[::-1], a])


# -- parity-row Horner at paired points against its scalar loop ----------------


def parity_rows(series):
    """`series.horner_rows()` in floats: (n, lowest q, step-2 flag, coefficients)."""
    return [
        (n, lo, step2, [c / series.den for c in coeffs])
        for n, lo, _, step2, coeffs in series.horner_rows()
    ]


def parity_row_reference(rows, a, e):
    """The scalar Horner on the parity rows, one point at a time: the reference
    that PolyEval.at_points must equal bit for bit."""
    e2 = e * e
    acc = 0.0
    prev_n = None
    for n, qlow, step2, coeffs in rows:
        if prev_n is not None:
            acc *= a ** (prev_n - n)
        inner = 0.0
        x = e2 if step2 else e
        for c in coeffs:
            inner = inner * x + c
        acc += inner * e**qlow
        prev_n = n
    if prev_n is None:
        return 0.0
    return acc * a**prev_n


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_at_points_is_reference(series, a, e):
    rows, poly = parity_rows(series), PolyEval(series)
    want = [parity_row_reference(rows, x, y) for x, y in zip(a.tolist(), e.tolist())]
    assert_same_bits(poly.at_points(a, e), want)
    return poly, rows, want


@pytest.mark.parametrize("j", [1, 2, 3])
def test_poly_coefficients_are_rounded_fractions_at_order60(j):
    # the integers over one denominator round to the floats of the Fractions
    series = fourier_coefficient(Mode(5 * j, -2 * j), 60, 60)
    for s in (series, series.derivative_a(), series.derivative_e()):
        want = [[float(s.coeff(n, q)) for q in range(61)] for n in range(61)]
        assert_same_bits(PolyEval(s).C, want)


@pytest.mark.parametrize(
    "mode", [Mode(5, -2), Mode(10, -4), Mode(15, -6), Mode(3, 4)], ids=str
)
def test_at_points_equals_parity_rows_at_order60(mode):
    # the Newton surfaces of the (5,-2) triangle and of (3,4): f, f_a and f_e
    # at 2,000 points, passed as arrays, as Python floats and as numpy scalars
    rng = np.random.default_rng(60)
    a, e = rng.random((2, 2000))
    series = fourier_coefficient(mode, 60, 60)
    for s in (series, series.derivative_a(), series.derivative_e()):
        poly, rows, want = assert_at_points_is_reference(s, a, e)
        assert_same_bits([parity_row_reference(rows, x, y) for x, y in zip(a, e)], want)
        assert_same_bits([poly.at_point(x, y) for x, y in zip(a, e)], want)


@pytest.mark.parametrize(
    "coeffs, trunc_a, trunc_e",
    [
        ({}, 3, 4),  # zero series
        ({(2, 3): -7}, 4, 5),  # single monomial
        ({(3, 1): 2, (3, 5): Fraction(-1, 3), (3, 4): 5}, 4, 6),  # one row, both parities
        ({(0, 0): 1, (1, 3): 2, (4, 1): Fraction(-3, 7), (4, 5): 3}, 5, 6),  # gaps 3 and 1
    ],
    ids=["zero", "monomial", "one-row", "uneven-rows"],
)
def test_at_points_equals_parity_rows_on_edge_cases(coeffs, trunc_a, trunc_e):
    ax = np.array([-0.75, -0.0, 0.0, 1e-3, 0.3, 0.7, 1.0, 1.5])
    a, e = (g.ravel() for g in np.meshgrid(ax, ax, indexing="ij"))
    poly, _, want = assert_at_points_is_reference(SeriesAE(coeffs, trunc_a, trunc_e), a, e)
    assert_same_bits(poly.at_points(a[:0], e[:0]), [])
    assert_same_bits([poly.at_point(np.float64(x), y) for x, y in zip(a, e.tolist())], want)


@given(
    sparse_int_series(),
    st.lists(
        st.tuples(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0)),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=150, deadline=None)
def test_at_points_equals_parity_rows_property(series, points):
    a, e = np.array(points).T
    assert_at_points_is_reference(series, a, e)


# -- certified sign grid ---------------------------------------------------------


def grid_signs(series, ax):
    """(S, settled): `Enclosure.node_signs` on the whole grid ax x ax, in one
    strip per BOX rows, S[i, j] for the node (ax[i], ax[j])."""
    strips = [(slice(i, i + BOX), slice(None)) for i in range(0, len(ax), BOX)]
    blocks, settled = Enclosure(series, ax, ax).node_signs(strips)
    return np.vstack(blocks), settled


def test_grid_signs_match_horner_on_order20_surfaces():
    # grid 600 leaves a short last strip; no node is settled exactly here
    ax = grid_axis(600)
    assert 600 % BOX
    for mode in g2_modes(8):
        for j in (1, 2, 3):
            surf = ModeSurface(mode.multiple(j), (20, 20))
            signs, settled = grid_signs(surf.series, ax)
            assert settled == 0
            assert np.array_equal(signs, surf.normalized_at(ax[:, None], ax[None, :]) > 0)


def test_grid_signs_settle_uncertain_nodes_exactly(monkeypatch):
    # f_{9,15} at order 60 is the worst-conditioned surface of the scan: a few
    # nodes fall inside the enclosure's bound and take the sign of the exact
    # value
    surf = ModeSurface(Mode(9, 15), (60, 60))
    ax = grid_axis(512)
    calls = []
    exact = SeriesAE.eval_exact

    def recorded(series, a, e):
        calls.append((a, e))
        return exact(series, a, e)

    monkeypatch.setattr(SeriesAE, "eval_exact", recorded)
    signs, settled = grid_signs(surf.series, ax)
    assert settled == len(calls) > 0
    index = {float(x): i for i, x in enumerate(ax)}
    for a, e in calls:
        value = sum(
            c * Fraction(a) ** n * Fraction(e) ** q for (n, q), c in surf.series.c.items()
        )
        assert signs[index[a], index[e]] == (value > 0)


def test_grid_signs_exact_where_powers_underflow():
    # p = 2^1023 e^300 - 2^-180 is positive on the grid, but at e = 1/16 the
    # power e^300 = 2^-1200 underflows to 0 and the product reads -2^-180,
    # far outside a bound without its underflow margin; the margin keeps that
    # column open, so it is decided exactly
    ax = grid_axis(16)
    series = SeriesAE({(0, 300): 2**1023, (0, 0): Fraction(-1, 2**180)}, 0, 300)
    signs, settled = grid_signs(series, ax)
    assert signs.all()
    assert settled == 16


@st.composite
def near_cancelling_series(draw):
    """Random sparse integer series, optionally times a factor that vanishes
    or nearly vanishes on grid nodes, scaled up, plus a small remainder."""
    base = draw(sparse_int_series())
    factor = draw(
        st.sampled_from(
            [
                {(0, 0): 1},
                {(1, 0): 1, (0, 1): -1},  # a - e: exactly 0 on the diagonal
                {(2, 0): 1, (1, 1): -2, (0, 2): 1},  # (a - e)^2
                {(1, 0): 1, (0, 1): 1, (0, 0): -1},  # a + e - 1: tiny on the anti-diagonal
            ]
        )
    )
    scale = draw(st.sampled_from([1, 2**20, 2**45]))
    rest = draw(sparse_int_series())
    coeffs = dict(rest.c)
    for (n1, q1), c1 in base.c.items():
        for (n2, q2), c2 in factor.items():
            key = (n1 + n2, q1 + q2)
            coeffs[key] = coeffs.get(key, 0) + c1 * c2 * scale
    return SeriesAE(coeffs, 10, 10)


@given(near_cancelling_series(), st.integers(min_value=16, max_value=32))
# 3(a - e)^2 on the diagonal: g+ and g- agree there in exact arithmetic but
# not in float, where the sign is right only with the rounding factor
@example(SeriesAE({(2, 0): 3, (1, 1): -6, (0, 2): 3}, 10, 10), 16)
@settings(max_examples=60, deadline=None)
def test_grid_signs_are_exact_property(series, grid_n):
    ax = grid_axis(grid_n)
    signs, _ = grid_signs(series, ax)
    want = np.array(
        [[series.eval_exact(float(a), float(e)) > 0 for e in ax] for a in ax]
    )
    assert np.array_equal(signs, want)


def test_strips_match_one_full_grid_call():
    # strips of any rows and columns, index arrays or slices, give the full
    # grid's signs; on p = a - e every diagonal node is settled exactly, once
    # per strip that holds it
    ax = grid_axis(64)
    strips = [
        (slice(0, 16), np.arange(64)),
        (slice(16, 20), np.array([0, 5, 16, 17, 18, 19, 40])),
        (slice(20, 64), slice(10, 40)),
        (slice(20, 21), np.array([20])),
    ]
    line = SeriesAE({(1, 0): 1, (0, 1): -1}, 1, 1)
    S, _ = grid_signs(line, ax)
    blocks, settled = Enclosure(line, ax, ax).node_signs(strips)
    assert [b.tolist() for b in blocks] == [S[r, c].tolist() for r, c in strips]
    assert settled == 16 + 4 + 20 + 1
    surf = ModeSurface(Mode(2, 5), (20, 20))
    S, _ = grid_signs(surf.series, ax)
    blocks, _ = Enclosure(surf.series, ax, ax).node_signs(strips)
    assert [b.tolist() for b in blocks] == [S[r, c].tolist() for r, c in strips]
    assert Enclosure(surf.series, ax, ax).node_signs([]) == ([], 0)


# -- tracing ------------------------------------------------------------------


class PolynomialSurface:
    """A synthetic surface for `trace_surface`: the polynomial itself, with no
    normalization."""

    mode = Mode(9, 9)

    def __init__(self, series):
        self.order = (series.trunc_a, series.trunc_e)
        self.poly = PolyEval(series)

    def visible(self):
        return True

    def normalized_at(self, a, e):
        return self.poly.at(a, e)


# (4(a-1/2))^2 + (4(e-1/2))^2 - 1 = 16a^2 - 16a + 16e^2 - 16e + 7
CIRCLE = SeriesAE({(0, 0): 7, (1, 0): -16, (2, 0): 16, (0, 1): -16, (0, 2): 16}, 2, 2)


def test_trace_single_monomial_empty():
    assert trace_surface(ModeSurface(Mode(1, 1), (3, 0)), 64) == []


def test_trace_below_visibility_empty():
    assert trace_surface(ModeSurface(Mode(1, 1), (2, 8)), 64) == []


def test_trace_2_5_nonempty_at_60():
    curves = trace_surface(ModeSurface(Mode(2, 5), (60, 60)), 128)
    assert curves
    ax_lo, ax_hi = 1.0 / 128, 1.0 - 1.0 / 128
    for c in curves:
        for (a, e) in c.points:
            assert ax_lo - 1e-12 <= a <= ax_hi + 1e-12
            assert ax_lo - 1e-12 <= e <= ax_hi + 1e-12


def test_trace_points_satisfy_residual_bound():
    from hansenatlas.atlas import EPS_CURVE

    surf = ModeSurface(Mode(2, 5), (30, 30))
    curves = trace_surface(surf, 128)
    assert curves
    for c in curves:
        pts = np.array(c.points)
        vals = surf.normalized_at(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(vals)) <= EPS_CURVE


def test_trace_deterministic():
    a = trace_surface(ModeSurface(Mode(2, 5), (30, 30)), 128)
    b = trace_surface(ModeSurface(Mode(2, 5), (30, 30)), 128)
    assert a == b


def test_trace_1_m7_curve_vanishes_between_orders_20_and_30():
    # the clearest certified drop in acceptance criterion 5e's curve counts:
    # the order-20 truncation of f_{1,-7} has a zero curve that the order-30
    # truncation lacks, with every grid sign settled by Horner's error bound
    # and no crossing dropped, so the drop is the truncations', not the tracer's
    counts = {}
    for order in (20, 30):
        with dropped_crossings() as dropped:
            counts[order] = len(trace_surface(ModeSurface(Mode(1, -7), (order, order)), 128))
        unsettled, _ = grid_sign_margin(fourier_coefficient(Mode(1, -7), order, order), 128)
        assert unsettled == 0
        assert dropped.total == 0
    assert counts == {20: 1, 30: 0}


def test_marching_squares_on_synthetic_circle():
    # tracer core on a known implicit curve
    curves = trace_surface(PolynomialSurface(CIRCLE), 128)
    assert len(curves) == 1
    (curve,) = curves
    assert curve.closed
    assert len(curve.points) > 50
    for (a, e) in curve.points:
        radius = math.hypot(a - 0.5, e - 0.5)
        assert radius == pytest.approx(0.25, abs=1e-9)


def test_trace_logs_grid_signs_settled_exactly(caplog, monkeypatch):
    # p = a - e: the product gives exactly 0 on the 64 diagonal nodes, inside
    # any bound, so those are settled exactly (p = 0 there: not positive)
    line = SeriesAE({(1, 0): 1, (0, 1): -1}, 1, 1)
    surf = PolynomialSurface(line)
    ax = grid_axis(64)
    signs, settled = grid_signs(line, ax)
    assert settled == 64
    assert not signs[np.arange(64), np.arange(64)].any()
    with caplog.at_level(logging.INFO, logger="hansenatlas.atlas"):
        curves = trace_surface(surf, 64)
    assert [r.getMessage() for r in caplog.records] == [
        "mode (9,9) order (1, 1): 64 grid signs settled exactly"
    ]
    # the bisection reads a diagonal node as the grid does, so no crossing is
    # dropped and the diagonal is one curve, each node on it once
    assert [(len(c.points), c.closed) for c in curves] == [(64, False)]
    # the trace is the one that Horner's signs give
    monkeypatch.setattr(
        Enclosure,
        "node_signs",
        lambda self, strips: ([surf.poly.at(ax[r, None], ax[None, c]) > 0 for r, c in strips], 0),
    )
    assert trace_surface(surf, 64) == curves


@pytest.mark.parametrize("mode", [Mode(5, -2), Mode(15, -6)])
def test_trace_settles_no_sign_where_powers_underflow(caplog, mode):
    # at order (40, 140) the power e^133 of g underflows on the column
    # e = 1/512, which crosses an open box; the underflow margin, not an exact
    # evaluation, decides the nodes there
    with caplog.at_level(logging.INFO, logger="hansenatlas.atlas"):
        assert trace_surface(ModeSurface(mode, (40, 140)), 512)
    assert not [r for r in caplog.records if "settled exactly" in r.getMessage()]


def test_trace_evaluates_only_nodes_of_open_boxes_once(monkeypatch):
    # a + e - 1, whose bounds are exact: every node evaluated lies in an open
    # box, at most once, and a node of an open box that is not evaluated lies
    # in a closed box
    evaluated = []
    node_signs = Enclosure.node_signs

    def recorded(self, strips):
        evaluated.extend(strips)
        return node_signs(self, strips)

    monkeypatch.setattr(Enclosure, "node_signs", recorded)
    grid_n = 256
    line = SeriesAE({(1, 0): 1, (0, 1): 1, (0, 0): -1}, 1, 1)
    assert len(trace_surface(PolynomialSurface(line), grid_n)) == 1
    count = np.zeros((grid_n, grid_n), dtype=int)
    for rows, cols in evaluated:
        count[rows, cols] += 1
    ax = grid_axis(grid_n)
    corners = box_corners(grid_n)
    box = Enclosure(line, ax, ax).signs(corners, corners)
    in_box = {0: np.zeros_like(count, dtype=bool), 1: np.zeros_like(count, dtype=bool)}
    for (bi, bj), sign in np.ndenumerate(box):
        in_box[bool(sign)][corners[bi] : corners[bi + 1] + 1, corners[bj] : corners[bj + 1] + 1] = True
    assert count.max() == 1
    assert not (count.astype(bool) & ~in_box[0]).any()
    assert not (in_box[0] & ~count.astype(bool) & ~in_box[1]).any()
    assert 0 < count.sum() < grid_n**2 // 4
    # 1 + a + e is positive on every box: no node is evaluated
    evaluated.clear()
    plane = SeriesAE({(0, 0): 1, (1, 0): 1, (0, 1): 1}, 1, 1)
    assert trace_surface(PolynomialSurface(plane), grid_n) == []
    assert evaluated == []


# -- the tracer against its per-cell loop -------------------------------------


def _trace_reference(surf, grid_n):
    """(curves, saddle cells) of the tracer as first written: a sorted loop
    over the cells with a crossing, tuple edge keys, and the chaining of
    `trace_surface`; on the same signs and the same `atlas._bisect_edges`."""
    ax = grid_axis(grid_n)
    S, _ = grid_signs(surf.poly.series, ax)
    a_change = S[:-1, :] != S[1:, :]
    e_change = S[:, :-1] != S[:, 1:]
    ai, aj = np.nonzero(a_change)
    ei, ej = np.nonzero(e_change)
    if len(ai) == 0 and len(ei) == 0:
        return [], 0

    a_lo = np.concatenate([ax[ai], ax[ei]])
    e_lo = np.concatenate([ax[aj], ax[ej]])
    a_hi = np.concatenate([ax[ai + 1], ax[ei]])
    e_hi = np.concatenate([ax[aj], ax[ej + 1]])
    neg_lo = ~np.concatenate([S[ai, aj], S[ei, ej]])
    pa, pe, pv = atlas._bisect_edges(surf, a_lo, e_lo, a_hi, e_hi, neg_lo)

    points = {}
    ok = np.abs(pv) <= atlas.EPS_CURVE
    n_a = len(ai)
    for idx in range(len(pa)):
        if not ok[idx]:
            continue
        if idx < n_a:
            key = ("a", int(ai[idx]), int(aj[idx]))
        else:
            key = ("e", int(ei[idx - n_a]), int(ej[idx - n_a]))
        points[key] = (float(pa[idx]), float(pe[idx]))

    cells = set()
    for i, j in zip(ai, aj):
        if j > 0:
            cells.add((int(i), int(j) - 1))
        if j < grid_n - 1:
            cells.add((int(i), int(j)))
    for i, j in zip(ei, ej):
        if i > 0:
            cells.add((int(i) - 1, int(j)))
        if i < grid_n - 1:
            cells.add((int(i), int(j)))

    def cell_edge_key(i, j, name):
        if name == "B":
            return ("a", i, j)
        if name == "T":
            return ("a", i, j + 1)
        if name == "L":
            return ("e", i, j)
        return ("e", i + 1, j)

    corner_edges = {
        (0, 0): ("B", "L"),
        (1, 0): ("B", "R"),
        (0, 1): ("T", "L"),
        (1, 1): ("T", "R"),
    }
    segments = []
    saddle_cells = 0
    for (i, j) in sorted(cells):
        s00, s10 = S[i, j], S[i + 1, j]
        s01, s11 = S[i, j + 1], S[i + 1, j + 1]
        crossing = []
        if s00 != s10:
            crossing.append("B")
        if s01 != s11:
            crossing.append("T")
        if s00 != s01:
            crossing.append("L")
        if s10 != s11:
            crossing.append("R")
        keys = {name: cell_edge_key(i, j, name) for name in crossing}
        if any(keys[name] not in points for name in crossing):
            continue
        if len(crossing) == 2:
            segments.append((keys[crossing[0]], keys[crossing[1]]))
        elif len(crossing) == 4:
            saddle_cells += 1
            ac = 0.5 * (ax[i] + ax[i + 1])
            ec = 0.5 * (ax[j] + ax[j + 1])
            center_pos = surf.normalized_at(np.array([ac]), np.array([ec]))[0] > 0.0
            corner_sign = {(0, 0): s00, (1, 0): s10, (0, 1): s01, (1, 1): s11}
            for corner, (ea, eb) in corner_edges.items():
                if corner_sign[corner] != center_pos:
                    segments.append((cell_edge_key(i, j, ea), cell_edge_key(i, j, eb)))

    adjacency = {}
    for u, v in segments:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    for nbrs in adjacency.values():
        nbrs.sort()

    visited = set()
    curves = []

    def walk(start):
        chain = [start]
        visited.add(start)
        cur, prev = start, None
        while True:
            nxt = None
            for cand in adjacency[cur]:
                if cand != prev and (cand not in visited or cand == start):
                    nxt = cand
                    break
            if nxt is None or (nxt == start and len(chain) > 2):
                return chain, nxt == start
            if nxt in visited:
                return chain, False
            chain.append(nxt)
            visited.add(nxt)
            prev, cur = cur, nxt

    def polyline(chain, closed):
        # a point repeated in a row (a zero on a grid node) is kept once
        pts = []
        for k in chain:
            if not pts or points[k] != pts[-1]:
                pts.append(points[k])
        if closed and len(pts) > 1 and pts[-1] == pts[0]:
            pts.pop()
        return atlas.ZeroCurve(tuple(pts), closed)

    endpoints = sorted(k for k, nbrs in adjacency.items() if len(nbrs) == 1)
    for start in endpoints:
        if start not in visited:
            chain, _ = walk(start)
            curves.append(polyline(chain, False))
    for start in sorted(adjacency):
        if start not in visited:
            chain, is_closed = walk(start)
            curves.append(polyline(chain, is_closed))
    curves.sort(key=lambda c: c.points[0])
    return curves, saddle_cells


def trace_counting_saddles(surf, grid_n):
    """(curves, saddle cells) of `trace_surface`, the count read from its INFO
    record."""
    records = []
    handler = logging.Handler(logging.INFO)
    handler.emit = records.append
    atlas_log = logging.getLogger("hansenatlas.atlas")
    level = atlas_log.level
    atlas_log.setLevel(logging.INFO)
    atlas_log.addHandler(handler)
    try:
        curves = trace_surface(surf, grid_n)
    finally:
        atlas_log.removeHandler(handler)
        atlas_log.setLevel(level)
    saddles = (r.args[-1] for r in records if r.msg.endswith("saddle cells resolved by center value"))
    return curves, sum(saddles)


def assert_trace_is_reference(surf, grid_n):
    """Returns the saddle cells, so that a test can show it reached some."""
    got = trace_counting_saddles(surf, grid_n)
    assert got == _trace_reference(surf, grid_n)
    return got[1]


@given(sparse_int_series(), st.integers(min_value=16, max_value=48))
@settings(max_examples=300, deadline=None)
def test_trace_equals_reference_property(series, grid_n):
    assert_trace_is_reference(PolynomialSurface(series), grid_n)


def test_trace_equals_reference_on_saddles(monkeypatch):
    # (a - x0)(e - y0) + delta has a saddle at (x0, y0) for delta = 0 and
    # nearly one otherwise; x0 = y0 = 1/2 is the centre of a cell at even grids;
    # at eps = 1e-17 some saddle cells lose a crossing and are skipped
    deltas = (0, Fraction(1, 10**6), Fraction(-1, 10**6), Fraction(1, 10**3), Fraction(-1, 10**3))
    centres = (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(3, 7)),
        (Fraction(5, 8), Fraction(2, 9)),
    )
    saddles = 0
    for delta, (x0, y0) in itertools.product(deltas, centres):
        series = SeriesAE({(1, 1): 1, (1, 0): -y0, (0, 1): -x0, (0, 0): x0 * y0 + delta}, 1, 1)
        for grid_n, eps in itertools.product(range(16, 49, 3), (atlas.EPS_CURVE, 1e-17)):
            monkeypatch.setattr(atlas, "EPS_CURVE", eps)
            saddles += assert_trace_is_reference(PolynomialSurface(series), grid_n)
    assert saddles > 0


def test_trace_equals_reference_on_circle():
    assert_trace_is_reference(PolynomialSurface(CIRCLE), 128)


@pytest.mark.parametrize(
    "mode, order, eps, dropped",
    [(Mode(2, -14), (60, 60), atlas.EPS_CURVE, 19), (Mode(1, -7), (20, 20), 1e-30, 105)],
    ids=["2,-14-order60", "1,-7-order20-eps1e-30"],
)
def test_trace_equals_reference_where_crossings_drop(mode, order, eps, dropped, monkeypatch):
    monkeypatch.setattr(atlas, "EPS_CURVE", eps)
    with dropped_crossings() as counter:
        assert_trace_is_reference(ModeSurface(mode, order), 128)
    assert counter.total == dropped


# -- bisection against its per-round normalized loop ------------------------------


def _bisect_reference(surf, a_lo, e_lo, a_hi, e_hi, neg_lo):
    """`atlas._bisect_edges` as first written: `normalized_at` on every edge
    in every round."""
    lo = np.zeros_like(a_lo)
    hi = np.ones_like(a_lo)
    for _ in range(atlas.BISECT_ITER):
        mid = 0.5 * (lo + hi)
        am = a_lo + mid * (a_hi - a_lo)
        em = e_lo + mid * (e_hi - e_lo)
        fm = surf.normalized_at(am, em)
        go_right = (fm < 0) == neg_lo
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    mid = 0.5 * (lo + hi)
    am = a_lo + mid * (a_hi - a_lo)
    em = e_lo + mid * (e_hi - e_lo)
    return am, em, surf.normalized_at(am, em)


def _traced_edges(monkeypatch, surf, grid_n):
    """The edges of the one `_bisect_edges` call of `trace_surface`: a_lo,
    e_lo, a_hi, e_hi and neg_lo."""
    calls = []
    real = atlas._bisect_edges

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(atlas, "_bisect_edges", recorded)
    trace_surface(surf, grid_n)
    monkeypatch.undo()
    ((_, *edges),) = calls
    return edges


@pytest.mark.parametrize(
    "make, grid_n",
    [
        *(
            (lambda j=j: ModeSurface(Mode(5, -2).multiple(j), (60, 60)), 512)
            for j in (1, 2, 3)
        ),
        (lambda: ModeSurface(Mode(3, 4), (60, 60)), 512),
        (lambda: ModeSurface(Mode(2, 5), (20, 20)), 2048),
        (lambda: PolynomialSurface(CIRCLE), 128),
    ],
    ids=[
        "5,-2-order60", "10,-4-order60", "15,-6-order60", "3,4-order60", "2,5-order20-grid2048", "circle",
    ],
)
def test_bisect_edges_equals_reference(monkeypatch, make, grid_n):
    # the traced edges, a-edges first; the a-edges alone; the e-edges alone;
    # and the even-numbered edges before the odd ones, where e-edges come
    # before a-edges too, so only those after the last a-edge take the
    # fixed-a path
    surf = make()
    traced = _traced_edges(monkeypatch, surf, grid_n)
    along_e = traced[0] == traced[2]
    assert 0 < along_e.sum() < len(along_e)
    assert not along_e[: np.argmax(along_e)].any() and along_e[np.argmax(along_e) :].all()
    evens_first = np.argsort(np.arange(len(along_e)) % 2, kind="stable")
    for pick in (slice(None), ~along_e, along_e, evens_first):
        edges = [x[pick] for x in traced]
        got = atlas._bisect_edges(surf, *edges)
        want = _bisect_reference(surf, *edges)
        for g, w in zip(got, want):
            assert_same_bits(g, w)


def test_triangle_metrics_degenerate_and_regular():
    area, incenter, inradius = triangle_metrics([(0, 0), (0.5, 0.5), (1, 1)])
    assert area == 0.0 and inradius == 0.0
    area, incenter, inradius = triangle_metrics([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    assert area == pytest.approx(math.sqrt(3) / 4, abs=1e-12)
    assert incenter[0] == pytest.approx(0.5, abs=1e-12)
    assert inradius == pytest.approx(math.sqrt(3) / 6, abs=1e-12)


# -- intersections -------------------------------------------------------------------


def test_find_double_2_5_at_30():
    reports = find_double(Mode(2, 5), (30, 30), 128).pair(1, 2)
    assert len(reports) == 1
    (rep,) = reports
    assert rep.point[0] == pytest.approx(0.61991, abs=2e-4)
    assert rep.point[1] == pytest.approx(0.71988, abs=2e-4)
    assert max(rep.residuals) <= 1e-12
    assert rep.multiples == (1, 2)


def test_find_double_refinement_stable_under_grid_halving():
    a = find_double(Mode(2, 5), (30, 30), 256).pair(1, 2)
    b = find_double(Mode(2, 5), (30, 30), 512).pair(1, 2)
    assert len(a) == len(b) == 1
    assert math.hypot(
        a[0].point[0] - b[0].point[0], a[0].point[1] - b[0].point[1]
    ) <= 1e-8


def test_find_double_below_visibility_empty():
    assert find_double(Mode(2, 5), (6, 6), 64).pair(1, 2) == ()


def test_find_double_requires_coprime_mode():
    with pytest.raises(ValueError):
        find_double(Mode(2, 4), (20, 20), 64)


def test_find_double_deterministic_bitwise():
    a = find_double(Mode(2, 5), (30, 30), 128)
    b = find_double(Mode(2, 5), (30, 30), 128)
    assert a == b


def test_find_triple_structure_small_order():
    res = find_triple(Mode(1, 2), (12, 12), 64)
    assert {pair for pair, _ in res.pair_reports} == {(1, 2), (1, 3), (2, 3)}
    for _, reports in res.pair_reports:
        for rep in reports:
            assert max(rep.residuals) <= 1e-12


def test_triangle_pool_nearest_neighbours_keep_the_first_triangle(monkeypatch):
    # (3,4) at order 60 has 2, 3 and 3 pair zeros, 18 combinations: far below
    # the limit, so lower it to run the nearest-neighbour pool on one tracing
    traced = {}
    real = atlas._trace_and_refine

    def trace_once(*args):
        if args not in traced:
            traced[args] = real(*args)
        return traced[args]

    monkeypatch.setattr(atlas, "_trace_and_refine", trace_once)
    full = find_triple(Mode(3, 4), (60, 60))
    counts = [len(reports) for _, reports in full.pair_reports]
    assert counts == [2, 3, 3]
    monkeypatch.setattr(atlas, "TRIANGLE_POOL_LIMIT", math.prod(counts) - 1)
    nearest = find_triple(Mode(3, 4), (60, 60))
    assert len(traced) == 1
    assert nearest.triangles[0] == full.triangles[0]
    assert (len(full.triangles), len(nearest.triangles)) == (3, 2)


def test_partials_are_built_for_newton_only(monkeypatch):
    calls = []
    for name in ("derivative_a", "derivative_e"):
        real = getattr(SeriesAE, name)
        monkeypatch.setattr(
            SeriesAE, name, lambda self, real=real, name=name: calls.append(name) or real(self)
        )
    report = scan_modes((20, 20), m_max=4, task="curves", grid_n=128)
    assert report.total_curves > 0
    assert calls == []
    find_triple(Mode(1, 2), (12, 12), 64)
    assert {"derivative_a", "derivative_e"} <= set(calls)


@pytest.mark.parametrize(
    "mode, order, grid_n", [(Mode(1, 2), (12, 12), 64), (Mode(2, 5), (30, 30), 128)]
)
def test_find_double_is_find_triple_restricted_to_j_1_2(mode, order, grid_n):
    # the acceptance fixture reads its order-60 double zeros and f_{m,k}
    # curve count off find_triple
    double = find_double(mode, order, grid_n)
    triple = find_triple(mode, order, grid_n)
    assert double.curves == tuple((j, cs) for j, cs in triple.curves if j in (1, 2))
    assert double.pair(1, 2) == triple.pair(1, 2)


def test_find_double_confirms_each_distinct_point_once(monkeypatch):
    # eight seeds converge in float to one point: one exact residual per
    # surface, and the report is the one the confirm-every-seed scheme kept
    calls = []
    eval_exact = SeriesAE.eval_exact
    monkeypatch.setattr(
        SeriesAE, "eval_exact", lambda self, *xs: calls.append(xs) or eval_exact(self, *xs)
    )
    reports = find_double(Mode(2, 5), (30, 30), 128).pair(1, 2)
    assert len(calls) == 2
    assert reports == (
        IntersectionReport(
            (1, 2),
            (0.6199069160575563, 0.7198767653355207),
            (1.396057801103287e-17, 4.5454365164073886e-17),
            4,
        ),
    )


def test_failed_confirmation_falls_back_to_next_cluster_member(monkeypatch):
    converged, confirms = [], []
    newton_batch, confirm = atlas._newton_batch, atlas._confirm

    def recording_newton(surfs, seeds):
        results = newton_batch(surfs, seeds)
        converged.extend(res for res, _ in results if res is not None)
        return results

    def first_fails(surfs, x):
        confirms.append((surfs, x))
        return None if len(confirms) == 1 else confirm(surfs, x)

    monkeypatch.setattr(atlas, "_newton_batch", recording_newton)
    monkeypatch.setattr(atlas, "_confirm", first_fails)
    (rep,) = find_double(Mode(2, 5), (30, 30), 128).pair(1, 2)
    first, second = sorted(converged, key=lambda r: r[0])[:2]
    assert math.dist(first[0], second[0]) <= atlas.DEDUPE_TOL
    assert [x for _, x in confirms] == [first[0], second[0]]
    surfs = confirms[1][0]
    point, iterations = second
    assert (rep.point, rep.residuals, rep.newton_iterations) == (
        point, confirm(surfs, point), iterations
    )


def test_confirmation_is_one_exact_residual_per_surface(monkeypatch, caplog):
    # with a zero tolerance no exact residual passes: every float-converged
    # seed is tried in turn, costs one `eval_exact` per surface and is
    # dropped for its residual; nothing moves the point to lower it.  Every
    # other seed is dropped for the status Newton returned
    monkeypatch.setattr(atlas, "RESIDUAL_TOL", 0.0)
    calls, runs = [], []
    eval_exact, newton_batch = SeriesAE.eval_exact, atlas._newton_batch
    monkeypatch.setattr(
        SeriesAE, "eval_exact", lambda self, *xs: calls.append(xs) or eval_exact(self, *xs)
    )

    def recording_newton(surfs, seeds):
        results = newton_batch(surfs, seeds)
        runs.append((seeds, results))
        return results

    monkeypatch.setattr(atlas, "_newton_batch", recording_newton)
    with caplog.at_level(logging.INFO, logger="hansenatlas.atlas"):
        assert find_double(Mode(2, 5), (30, 30), 128).pair(1, 2) == ()
    ((seeds, results),) = runs
    converged = [seed for seed, (res, _) in zip(seeds, results) if res is not None]
    assert len(converged) > 1
    assert len(calls) == 2 * len(converged)
    dropped = [r.getMessage() for r in caplog.records if "Newton dropped seed" in r.getMessage()]
    assert sorted(dropped) == sorted(
        f"mode (2,5) (1, 2): Newton dropped seed ({a:.6f}, {e:.6f}): "
        + ("residual" if status == "converged" else status)
        for (a, e), (_, status) in zip(seeds, results)
    )
    assert any(status != "converged" for _, status in results)


def test_pair_log_lines_name_the_base_mode(caplog):
    # the pair (2, 3) of (2,3) is f_{4,6} and f_{6,9}: its lines name the
    # base mode and the multiples, as the other pairs' lines do
    with caplog.at_level(logging.INFO, logger="hansenatlas.atlas"):
        find_triple(Mode(2, 3), (30, 30))
    dropped = [r.getMessage() for r in caplog.records if "Newton dropped seed" in r.getMessage()]
    assert any(line.startswith("mode (2,3) (2, 3): Newton dropped seed") for line in dropped)
    assert all(line.startswith("mode (2,3) (") for line in dropped)


def test_newton_points_meet_the_normalized_tolerance_alone(monkeypatch):
    # why `_confirm` tests no |fhat|: every point that `_newton_batch` returns
    # for (5,-2) at order 60, evaluated again on its own, has
    # max |fhat_j| <= NORMALIZED_NEWTON_TOL
    returned = []
    newton_batch = atlas._newton_batch

    def recording_newton(surfs, seeds):
        results = newton_batch(surfs, seeds)
        returned.extend((surfs, res[0]) for res, _ in results if res is not None)
        return results

    monkeypatch.setattr(atlas, "_newton_batch", recording_newton)
    find_triple(Mode(5, -2), (60, 60))
    assert len(returned) > 3
    for surfs, x in returned:
        F, _ = atlas._fhat_and_jacobians(surfs, np.array([x]))
        assert np.max(np.abs(F)) <= atlas.NORMALIZED_NEWTON_TOL


def test_refined_point_off_a_parent_polyline_is_not_reported(caplog):
    # f_{4,10}'s curves moved up by three grid steps still cross f_{2,5}'s,
    # and Newton from there reaches the true common zero, which then lies
    # more than two grid steps from the moved polylines
    mode, order, grid_n = Mode(2, 5), (30, 30), 128
    surfs = {j: ModeSurface(mode.multiple(j), order) for j in (1, 2)}
    curves = {j: tuple(trace_surface(s, grid_n)) for j, s in surfs.items()}
    (true,) = atlas._refine_pair(mode, surfs, curves, (1, 2), grid_n)
    shift = 3.0 / grid_n
    curves[2] = tuple(
        dataclasses.replace(c, points=tuple((a, e + shift) for a, e in c.points))
        for c in curves[2]
    )
    assert atlas._polyline_distance(curves[2], true.point) > 2.0 / grid_n
    with caplog.at_level(logging.INFO, logger="hansenatlas.atlas"):
        assert atlas._refine_pair(mode, surfs, curves, (1, 2), grid_n) == ()
    assert [r.getMessage() for r in caplog.records].count(
        "mode (2,5) (1, 2): refined point strayed from parent polylines"
    ) == 1


# -- the lockstep Newton against its per-seed loop ----------------------------


def _newton_reference(surfs, rows, seed):
    """The damped (Gauss-)Newton of `atlas._newton_batch` as one scalar loop
    per seed, on the scalar parity-row Horner of `rows` (f, f_a and f_e of
    each surface): (result, evaluations, exit), the result and exit being
    what `_newton_batch` must return for this seed."""
    evaluations = 0

    def fhat_jac(x):
        nonlocal evaluations
        evaluations += 1
        out = []
        for surf, (r, ra, re) in zip(surfs, rows):
            a, e = x[0], x[1]
            f, fa, fe = (parity_row_reference(rr, a, e) for rr in (r, ra, re))
            nm = surf.norm_scale * a**surf.a_power * e**surf.e_power
            out.append((f / nm, (fa - surf.a_power * f / a) / nm, (fe - surf.e_power * f / e) / nm))
        return np.array([o[0] for o in out]), np.array([[o[1], o[2]] for o in out])

    def done(result, exit):
        return result, evaluations, exit

    tol = atlas.NORMALIZED_NEWTON_TOL
    x = np.array(seed, dtype=float)
    iterations = 0
    stagnant = 0
    F, J = fhat_jac(x)
    for _ in range(atlas.NEWTON_MAX_ITER):
        fmax = np.max(np.abs(F))
        if fmax <= tol:
            break
        step = atlas._step(F, J)
        if step is None:
            return done(None, "singular")
        lam = 1.0
        accepted = False
        for _ in range(40):
            xn = x + lam * step
            if 0.0 < xn[0] < 1.0 and 0.0 < xn[1] < 1.0:
                Fn, Jn = fhat_jac(xn)
                if np.max(np.abs(Fn)) < fmax or np.max(np.abs(Fn)) <= tol:
                    x, F, J = xn, Fn, Jn
                    accepted = True
                    break
            lam *= atlas.NEWTON_DAMPING
        iterations += 1
        if not accepted:
            return done(None, "no descent")
        stagnant = stagnant + 1 if np.max(np.abs(F)) > 0.5 * fmax else 0
        if stagnant >= 6:
            return done(None, "stagnant")
    if np.max(np.abs(F)) > tol:
        return done(None, "iterations")
    return done(((float(x[0]), float(x[1])), iterations), "converged")


def assert_batch_is_reference(monkeypatch, surfs, seeds):
    """`_newton_batch` returns the reference's results and exits and
    evaluates once per surface and series per round, in as many rounds as
    the longest run has evaluations; returns the reference's exits."""
    counts = {"rounds": 0, "at_points": 0}
    batch, at_points = atlas._fhat_and_jacobians, PolyEval.at_points

    def counted_batch(*args):
        counts["rounds"] += 1
        return batch(*args)

    def counted_at_points(*args):
        counts["at_points"] += 1
        return at_points(*args)

    with monkeypatch.context() as m:
        m.setattr(atlas, "_fhat_and_jacobians", counted_batch)
        m.setattr(PolyEval, "at_points", counted_at_points)
        got = atlas._newton_batch(surfs, seeds)
    rows = [
        [parity_rows(s) for s in (surf.series, surf.series.derivative_a(), surf.series.derivative_e())]
        for surf in surfs
    ]
    want = [_newton_reference(surfs, rows, seed) for seed in seeds]
    assert got == [(result, exit) for result, _, exit in want]
    assert counts["rounds"] == max((evals for _, evals, _ in want), default=0)
    assert counts["at_points"] == 3 * len(surfs) * counts["rounds"]
    return [exit for _, _, exit in want]


def _traced_pairs(mode, order):
    """The surface pairs of f_{jm,jk}, j = 1, 2, 3, with their proximity seeds
    at the default grid, as `_refine_pair` builds them."""
    surfs = {j: ModeSurface(mode.multiple(j), order) for j in (1, 2, 3)}
    curves = {j: trace_surface(s) for j, s in surfs.items()}
    radius = 2.0 / atlas.DEFAULT_GRID
    for j1, j2 in itertools.combinations((1, 2, 3), 2):
        yield (surfs[j1], surfs[j2]), atlas._proximity_seeds(curves[j1], curves[j2], radius)


def test_newton_batch_equals_reference_on_5_m2_at_order60(monkeypatch):
    exits = []
    for pair, seeds in _traced_pairs(Mode(5, -2), (60, 60)):
        exits += assert_batch_is_reference(monkeypatch, pair, seeds)
    assert "converged" in exits


def test_newton_batch_equals_reference_where_seeds_stagnate(monkeypatch):
    # (2,3) at order 30: the pair (4,6), (6,9) drops 155 of 163 seeds by
    # stagnation and 3 for want of a descent step
    exits = []
    for pair, seeds in _traced_pairs(Mode(2, 3), (30, 30)):
        exits += assert_batch_is_reference(monkeypatch, pair, seeds)
    assert {"converged", "stagnant", "no descent"} <= set(exits)


def _polynomial_surface(coeffs, trunc_a, trunc_e):
    """A ModeSurface of an arbitrary polynomial, with fhat = f."""
    surf = ModeSurface.__new__(ModeSurface)
    surf.series = SeriesAE(coeffs, trunc_a, trunc_e)
    surf.poly = PolyEval(surf.series)
    surf.da = PolyEval(surf.series.derivative_a())
    surf.de = PolyEval(surf.series.derivative_e())
    surf.norm_scale, surf.a_power, surf.e_power = 1.0, 0, 0
    return surf


def test_newton_batch_equals_reference_on_singular_and_slow_runs(monkeypatch):
    # f = f: J has two equal rows, so the solve fails at once.  f = 10^20 a^2
    # with g = e - 1/2: each step halves a and quarters f, so the run is
    # still above the tolerance after NEWTON_MAX_ITER steps
    surf = ModeSurface(Mode(2, 5), (20, 20))
    seeds = [(0.3, 0.4), (0.6, 0.7)]
    assert assert_batch_is_reference(monkeypatch, (surf, surf), seeds) == ["singular"] * 2
    slow = (
        _polynomial_surface({(2, 0): 10**20}, 2, 1),
        _polynomial_surface({(0, 1): 1, (0, 0): Fraction(-1, 2)}, 2, 1),
    )
    seeds = [(0.5, 0.25), (0.5, 0.5), (0.25, 0.75)]
    assert assert_batch_is_reference(monkeypatch, slow, seeds) == ["iterations"] * 3
    assert assert_batch_is_reference(monkeypatch, (surf, surf), []) == []


def test_newton_batch_equals_reference_on_singular_and_regular_seeds_together(monkeypatch):
    # f = a + e - 1 and g = ae - 1/8: J = [[1, 1], [e, a]] is exactly
    # singular where a = e, so two seeds fail their first solve while the
    # two others in the same call converge; a solve stacked over the seeds
    # would raise for all four
    pair = (
        _polynomial_surface({(1, 0): 1, (0, 1): 1, (0, 0): -1}, 1, 1),
        _polynomial_surface({(1, 1): 1, (0, 0): Fraction(-1, 8)}, 1, 1),
    )
    seeds = [(0.3, 0.3), (0.2, 0.7), (0.5, 0.5), (0.8, 0.1)]
    assert assert_batch_is_reference(monkeypatch, pair, seeds) == [
        "singular", "converged", "singular", "converged"
    ]


@pytest.mark.parametrize("mode, order", [(Mode(5, -2), (60, 60)), (Mode(2, 3), (30, 30))])
def test_newton_batch_equals_reference_on_triple_incenters(monkeypatch, mode, order):
    # the Gauss-Newton (`lstsq`) path: f_{jm,jk}, j = 1, 2, 3, from the
    # triangle incenters that `find_triple` sends
    calls = []
    newton_batch = atlas._newton_batch

    def recording_newton(surfs, seeds):
        if len(surfs) == 3:
            calls.append((surfs, seeds))
        return newton_batch(surfs, seeds)

    with monkeypatch.context() as m:
        m.setattr(atlas, "_newton_batch", recording_newton)
        find_triple(mode, order)
    ((triple, incenters),) = calls
    assert 0 < len(incenters) <= 5
    exits = assert_batch_is_reference(monkeypatch, triple, incenters)
    assert exits == {Mode(5, -2): ["no descent"] * 2, Mode(2, 3): ["stagnant"]}[mode]


# -- scans ---------------------------------------------------------------------


def test_scan_modes_curves_small():
    report = scan_modes((10, 10), m_max=4, task="curves", grid_n=64)
    assert isinstance(report, AtlasReport)
    assert report.total_curves >= 1
    assert all(not e.skipped for e in report.entries)


def test_scan_modes_visibility_skip():
    report = scan_modes((6, 6), m_max=4, task="triple", grid_n=64)
    skipped = {str(e.mode) for e in report.entries if e.skipped}
    assert "(3,1)" in skipped  # needs 3*m* = 9 > 6
    assert "(2,1)" not in skipped
    # f_{1,2}, f_{2,4} and f_{3,6} have m* = 3, 2 and 3, all visible at order 6
    assert "(1,2)" not in skipped
    # each multiple needs its own m* <= 6 and j|m-k| <= 6
    assert skipped == {"(1,-2)", "(1,-3)", "(2,-1)", "(3,-1)", "(3,1)"}
    (entry,) = (e for e in report.entries if e.mode == Mode(1, 2))
    assert entry.curve_count == 2


def test_scan_modes_parallel_matches_serial():
    serial = scan_modes((12, 12), m_max=3, task="double", grid_n=64, jobs=1)
    parallel = scan_modes((12, 12), m_max=3, task="double", grid_n=64, jobs=2)
    assert serial == parallel


def test_scan_modes_rejects_unknown_task():
    with pytest.raises(ValueError):
        scan_modes((10, 10), m_max=3, task="quadruple")


# -- exports -----------------------------------------------------------------------


def test_reports_byte_reproducible():
    r1 = scan_modes((12, 12), m_max=3, task="double", grid_n=64)
    r2 = scan_modes((12, 12), m_max=3, task="double", grid_n=64)
    assert atlas_json(r1) == atlas_json(r2)
    assert curves_csv(r1.entries) == curves_csv(r2.entries)


def test_curves_csv_block_structure():
    report = scan_modes((10, 10), m_max=4, task="curves", grid_n=64)
    text = curves_csv(report.entries)
    assert text.count("a,e") == report.total_curves
    for line in text.splitlines():
        if line and not line.startswith("#") and line != "a,e":
            a_str, e_str = line.split(",")
            assert 0.0 < float(a_str) < 1.0
            assert 0.0 < float(e_str) < 1.0


def test_svg_render_structure():
    report = scan_modes((12, 12), m_max=3, task="double", grid_n=64)
    svg = render_svg(report, title="t")
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert '<rect width="800"' in svg
    if report.min_distance is not None:
        assert "stroke-dasharray" in svg
    assert render_svg(report, title="t") == svg


def test_intersection_residuals_are_exact_evaluations():
    from hansenatlas.fourier import fourier_coefficient

    (rep,) = find_double(Mode(2, 5), (30, 30), 128).pair(1, 2)
    for j, residual in zip((1, 2), rep.residuals):
        series = fourier_coefficient(Mode(2 * j, 5 * j), 30, 30)
        exact = abs(float(series.eval_exact(Fraction(rep.point[0]), Fraction(rep.point[1]))))
        assert residual == exact
