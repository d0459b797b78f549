"""Zero-curve tracing, intersection refinement, triangles, and mode scans.

Everything here runs at small orders/grids; the order-60 reproduction lives
in the acceptance suite.
"""
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hansenatlas import atlas
from hansenatlas.atlas import (
    GRID_BLOCK,
    AtlasReport,
    IntersectionReport,
    ModeSurface,
    PolyEval,
    eval_grid,
    find_double,
    find_triple,
    grid_axis,
    scan_modes,
    trace_surface,
    triangle_metrics,
)
from hansenatlas.fourier import Mode, fourier_coefficient, g2_modes
from hansenatlas.report import atlas_json, curves_csv
from hansenatlas.series import SeriesAE
from hansenatlas.svgplot import render_svg

from curve_certificates import dropped_crossings, grid_sign_margin


# -- grid evaluation --------------------------------------------------------


def test_eval_grid_single_monomial_normalizes_to_minus_one():
    V = eval_grid(Mode(2, 2), (2, 0), grid_n=16)
    assert np.max(np.abs(V + 1.0)) < 1e-12


def test_eval_grid_rejects_tiny_grid():
    with pytest.raises(ValueError):
        eval_grid(Mode(2, 2), (2, 0), grid_n=8)


def test_grid_signs_deterministic_across_paths():
    # the same point gives the same sign through grid and paired-point
    # broadcasting, and repeated grid evaluation is bitwise identical
    surf = ModeSurface(Mode(2, 5), (20, 20))
    ax = grid_axis(16)
    V = surf.normalized_at(ax[:, None], ax[None, :])
    A, E = np.meshgrid(ax, ax, indexing="ij")
    W = surf.normalized_at(A.ravel(), E.ravel()).reshape(16, 16)
    assert np.array_equal(np.sign(V), np.sign(W))
    assert np.array_equal(eval_grid(Mode(2, 5), (20, 20), 64), eval_grid(Mode(2, 5), (20, 20), 64))


def test_eval_grid_sign_change_present_for_2_5_at_60():
    V = eval_grid(Mode(2, 5), (60, 60), grid_n=64)
    assert (V > 0).any() and (V < 0).any()


def test_grid_blocks_match_one_call():
    # the blocked grid is the one-call grid bit for bit, short last block too
    rows = GRID_BLOCK // 600
    assert rows < 600 and 600 % rows
    surf = ModeSurface(Mode(2, 5), (20, 20))
    ax = grid_axis(600)
    V = surf.normalized_at(ax[:, None], ax[None, :])
    assert np.array_equal(eval_grid(Mode(2, 5), (20, 20), 600), V)


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


# -- certified sign grid ---------------------------------------------------------


def test_grid_signs_match_horner_on_order20_surfaces():
    # grid 600 leaves a short last block; no node is settled exactly here
    ax = grid_axis(600)
    assert 600 % (GRID_BLOCK // 600)
    for mode in g2_modes(8):
        for j in (1, 2, 3):
            surf = ModeSurface(mode.multiple(j), (20, 20))
            signs, settled = surf.poly.grid_signs(ax, ax, surf.series)
            assert settled == 0
            assert np.array_equal(signs, eval_grid(mode.multiple(j), (20, 20), 600) > 0)


def test_grid_signs_settle_uncertain_nodes_exactly(monkeypatch):
    # f_{9,15} at order 60 is the worst-conditioned surface of the scan: a few
    # nodes fall inside Horner's bound and take the sign of the exact value
    surf = ModeSurface(Mode(9, 15), (60, 60))
    ax = grid_axis(512)
    calls = []
    exact = SeriesAE.eval_exact

    def recorded(series, a, e):
        calls.append((a, e))
        return exact(series, a, e)

    monkeypatch.setattr(SeriesAE, "eval_exact", recorded)
    signs, settled = surf.poly.grid_signs(ax, ax, surf.series)
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
    # far outside a bound without its absolute term; that column is decided
    # exactly
    ax = grid_axis(16)
    series = SeriesAE({(0, 300): 2**1023, (0, 0): Fraction(-1, 2**180)}, 0, 300)
    signs, settled = PolyEval(series).grid_signs(ax, ax, series)
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
    return SeriesAE(base.c, 10, 10) * SeriesAE(factor, 10, 10).scaled(scale) + SeriesAE(
        rest.c, 10, 10
    )


@given(near_cancelling_series(), st.integers(min_value=16, max_value=32))
@settings(max_examples=60, deadline=None)
def test_grid_signs_are_exact_property(series, grid_n):
    ax = grid_axis(grid_n)
    signs, _ = PolyEval(series).grid_signs(ax, ax, series)
    want = np.array(
        [[series.eval_exact(float(a), float(e)) > 0 for e in ax] for a in ax]
    )
    assert np.array_equal(signs, want)


# -- tracing ------------------------------------------------------------------


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
    # tracer core on a known implicit curve:
    # (4(a-1/2))^2 + (4(e-1/2))^2 - 1 = 16a^2 - 16a + 16e^2 - 16e + 7
    circle = SeriesAE(
        {(0, 0): 7, (1, 0): -16, (2, 0): 16, (0, 1): -16, (0, 2): 16}, 2, 2
    )

    class Surface:
        mode = Mode(9, 9)
        order = (2, 2)
        series = circle
        poly = PolyEval(circle)

        def visible(self):
            return True

        def normalized_at(self, a, e):
            return self.poly.at(a, e)

    curves = trace_surface(Surface(), 128, 1e-9)
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

    class Surface:
        mode = Mode(9, 9)
        order = (1, 1)
        series = line
        poly = PolyEval(line)

        def visible(self):
            return True

        def normalized_at(self, a, e):
            return self.poly.at(a, e)

    ax = grid_axis(64)
    signs, settled = Surface.poly.grid_signs(ax, ax, line)
    assert settled == 64
    assert not signs[np.arange(64), np.arange(64)].any()
    with caplog.at_level(logging.INFO, logger="hansenatlas.atlas"):
        curves = trace_surface(Surface(), 64)
    assert [r.getMessage() for r in caplog.records if "grid signs" in r.msg] == [
        "mode (9,9) order (1, 1): 64 grid signs settled exactly"
    ]
    # the trace is the one that Horner's signs give
    monkeypatch.setattr(
        PolyEval, "grid_signs", lambda self, a, e, series: (self.at(a[:, None], e[None, :]) > 0, 0)
    )
    assert trace_surface(Surface(), 64) == curves


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
            Mode(2, 5),
            (1, 2),
            (0.6199069160575563, 0.7198767653355207),
            (1.396057801103287e-17, 4.5454365164073886e-17),
            4,
        ),
    )


def test_failed_confirmation_falls_back_to_next_cluster_member(monkeypatch):
    converged, confirms = [], []
    newton_float, confirm = atlas._newton_float, atlas._confirm

    def recording_newton(surfs, seed):
        res = newton_float(surfs, seed)
        if res is not None:
            converged.append(res)
        return res

    def first_fails(surfs, x, iterations):
        confirms.append((surfs, x, iterations))
        return None if len(confirms) == 1 else confirm(surfs, x, iterations)

    monkeypatch.setattr(atlas, "_newton_float", recording_newton)
    monkeypatch.setattr(atlas, "_confirm", first_fails)
    (rep,) = find_double(Mode(2, 5), (30, 30), 128).pair(1, 2)
    first, second = sorted(converged, key=lambda r: r[0])[:2]
    assert math.dist(first[0], second[0]) <= atlas.DEDUPE_TOL
    assert [(x, it) for _, x, it in confirms] == [first, second]
    surfs = confirms[1][0]
    assert (rep.point, rep.residuals, rep.newton_iterations) == confirm(surfs, *second)


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
    assert "(1,2)" in skipped  # needs 3*m* = 9 > 6


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
    curves_by_j = {}
    inters = []
    for e in report.entries:
        for j, cs in e.curves:
            curves_by_j.setdefault(j, []).extend(cs)
        inters.extend(e.intersections)
    svg = render_svg(curves_by_j, inters, report.min_distance, title="t")
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert '<rect width="800"' in svg
    if report.min_distance is not None:
        assert "stroke-dasharray" in svg
    assert render_svg(curves_by_j, inters, report.min_distance, title="t") == svg


def test_intersection_residuals_are_exact_evaluations():
    from hansenatlas.exact import rational
    from hansenatlas.fourier import fourier_coefficient

    (rep,) = find_double(Mode(2, 5), (30, 30), 128).pair(1, 2)
    for j, residual in zip((1, 2), rep.residuals):
        series = fourier_coefficient(Mode(2 * j, 5 * j), 30, 30)
        exact = abs(float(series.eval_exact(rational(rep.point[0]), rational(rep.point[1]))))
        assert residual == exact
