"""Box enclosures of `hansenatlas.enclose` against exact rational values."""
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hansenatlas.atlas import grid_axis
from hansenatlas.enclose import BOX, Enclosure, box_corners
from hansenatlas.fourier import Mode, fourier_coefficient, t_mk
from hansenatlas.series import SeriesAE


def exact_quotient(series, n0, q0):
    """g(a, e) = series / (a^n0 e^q0) in exact arithmetic, term by term."""
    terms = [(n - n0, q - q0, c) for (n, q), c in series.c.items()]

    def g(a, e):
        return sum(c * a**n * e**q for n, q, c in terms)

    return g


def lowest_exponents(series):
    return min(n for n, _ in series.num), min(q for _, q in series.num)


@st.composite
def shifted_series(draw):
    """A random sparse integer series times a factor that vanishes or nearly
    vanishes on grid nodes, times a^s e^t, which the enclosure divides out."""
    base = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.integers(-40, 40).filter(bool),
            min_size=1,
            max_size=10,
        )
    )
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
    s, t = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    coeffs = {}
    for (n1, q1), c1 in base.items():
        for (n2, q2), c2 in factor.items():
            key = (n1 + n2 + s, q1 + q2 + t)
            coeffs[key] = coeffs.get(key, 0) + c1 * c2
    return SeriesAE(coeffs, 12, 12)


@st.composite
def node_boxes(draw):
    """(grid_n, a-corner node indices, e-corner node indices): sorted, repeats
    allowed, so a box may be a segment or a point; the e-corners are often
    the a-corners, which puts box corners on the diagonal."""
    grid_n = draw(st.integers(16, 64))
    corners = st.lists(st.integers(0, grid_n - 1), min_size=2, max_size=5).map(sorted)
    a_idx = draw(corners)
    e_idx = a_idx if draw(st.booleans()) else draw(corners)
    return grid_n, a_idx, e_idx


_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=1000)


@given(shifted_series(), node_boxes(), st.lists(st.tuples(_UNIT, _UNIT), max_size=2))
# 3(a - e)^2 at a diagonal node: g+ and g- agree there in exact arithmetic
# but not in float, so a point box holds 0 only with the rounding factor
@example(SeriesAE({(2, 0): 3, (1, 1): -6, (0, 2): 3}, 12, 12), (27, [7, 7], [7, 7]), [])
@settings(max_examples=200, deadline=None)
def test_enclosure_contains_exact_values_property(series, boxes, inner):
    # at the corners of every box, and at the points (s, t) of the box scaled
    # to the unit square
    grid_n, a_idx, e_idx = boxes
    ax = grid_axis(grid_n)
    a, e = ax[a_idx], ax[e_idx]
    lower, upper = Enclosure(series, a, e).bounds()
    g = exact_quotient(series, *lowest_exponents(series))
    for i in range(len(a) - 1):
        for j in range(len(e) - 1):
            a_lo, a_hi, e_lo, e_hi = (Fraction(v) for v in (a[i], a[i + 1], e[j], e[j + 1]))
            points = [(a_lo, e_lo), (a_lo, e_hi), (a_hi, e_lo), (a_hi, e_hi)]
            points += [(a_lo + s * (a_hi - a_lo), e_lo + t * (e_hi - e_lo)) for s, t in inner]
            for p in points:
                assert lower[i, j] <= g(*p) <= upper[i, j]


@given(shifted_series(), st.integers(16, 40))
@settings(max_examples=60, deadline=None)
def test_closed_boxes_hold_no_node_of_the_other_sign_property(series, grid_n):
    ax = grid_axis(grid_n)
    corners = box_corners(grid_n)
    signs = Enclosure(series, ax, ax).signs(corners, corners)
    for bi, bj in zip(*np.nonzero(signs)):
        rows = range(corners[bi], corners[bi + 1] + 1)
        cols = range(corners[bj], corners[bj + 1] + 1)
        values = [series.eval_exact(float(ax[i]), float(ax[j])) for i in rows for j in cols]
        if signs[bi, bj] > 0:
            assert all(v > 0 for v in values)
        else:
            assert all(v < 0 for v in values)


def test_box_corners():
    assert box_corners(16).tolist() == [0, 15]
    assert box_corners(17).tolist() == [0, 16]
    assert box_corners(40).tolist() == [0, 16, 32, 39]
    assert box_corners(2048).tolist() == list(range(0, 2047, BOX)) + [2047]


def test_enclosure_bounds_a_mode_divided_by_its_leading_monomial():
    # the enclosure reads m* and |m-k| from the series: on the boxes of a
    # grid-64 box grid it contains f_{5,-2} / (a^5 e^7) at every corner and
    # centre, and the box at the origin has the sign of t_{5,-2}
    mode = Mode(5, -2)
    series = fourier_coefficient(mode, 20, 20)
    t = t_mk(mode)
    assert lowest_exponents(series) == (t.leading_a_power, t.leading_e_power)
    g = exact_quotient(series, t.leading_a_power, t.leading_e_power)
    ax = grid_axis(64)[box_corners(64)]
    enclosure = Enclosure(series, ax, ax)
    lower, upper = enclosure.bounds()
    for i in range(len(ax) - 1):
        for j in range(len(ax) - 1):
            a_lo, a_hi, e_lo, e_hi = (Fraction(v) for v in (ax[i], ax[i + 1], ax[j], ax[j + 1]))
            for p in ((a_lo, e_lo), (a_hi, e_hi), ((a_lo + a_hi) / 2, (e_lo + e_hi) / 2)):
                assert lower[i, j] <= g(*p) <= upper[i, j]
    signs = enclosure.signs()
    assert signs[0, 0] == np.sign(float(t.t_value))


def test_enclosure_where_every_power_underflows():
    # g = 2^1000 e^1000 - 2^-180 is positive for e in [0.454, 0.47], where
    # 2^1000 e^1000 lies in (2^-140, 2^-89), but e^1000 underflows to 0 there
    # and the float value reads -2^-180; the underflow margin keeps the box open
    series = SeriesAE({(0, 1000): 2**1000, (0, 0): Fraction(-1, 2**180)}, 0, 1000)
    a, e = np.array([0.25, 0.75]), np.array([0.454, 0.47])
    enclosure = Enclosure(series, a, e)
    lower, upper = enclosure.bounds()
    for x in e:
        value = 2**1000 * Fraction(x) ** 1000 - Fraction(1, 2**180)
        assert value > 0
        assert lower[0, 0] <= value <= upper[0, 0]
    assert enclosure.signs()[0, 0] == 0


def test_enclosure_of_a_constant_and_of_the_zero_series():
    ax = grid_axis(32)[box_corners(32)]
    assert (Enclosure(SeriesAE({(2, 3): -7}, 4, 4), ax, ax).signs() == -1).all()
    assert (Enclosure(SeriesAE.zero(4, 4), ax, ax).signs() == 0).all()
