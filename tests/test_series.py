"""Truncated-series algebra: arithmetic, ring laws, auxiliary series, evaluation."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hansenatlas.atlas import PolyEval
from hansenatlas.hansen import _workspace
from hansenatlas.series import SeriesAE, SeriesE, sqrt_one_minus_e2


def S(coeffs, trunc):
    return SeriesE(coeffs, trunc)


# -- multiplication and truncation ------------------------------------------


def test_mul_basic():
    one_plus = S({0: 1, 1: 1}, 2)
    one_minus = S({0: 1, 1: -1}, 2)
    assert one_plus * one_minus == S({0: 1, 2: -1}, 2)


def test_mul_truncation_drops_terms():
    minus_e = S({1: -1}, 1)
    assert (minus_e * minus_e).is_zero()


def test_mul_derived_square():
    s = S({0: 1, 2: Fraction(3, 2)}, 4)
    assert s * s == S({0: 1, 2: 3, 4: Fraction(9, 4)}, 4)


def test_mixed_orders_take_minimum():
    a = S({0: 1, 1: 1}, 5)
    b = S({0: 1, 1: 1}, 3)
    assert (a * b).trunc == 3
    assert (a + b).trunc == 3


def test_truncation_coherence():
    a = S({0: 1, 1: 2, 2: 3, 3: Fraction(1, 7)}, 8)
    b = S({0: 5, 2: Fraction(-2, 3), 4: 1}, 8)
    n = 4
    assert (a * b).truncate(n) == (a.truncate(n) * b.truncate(n)).truncate(n)


def test_no_zero_coefficients_stored():
    s = S({0: 1, 1: 1}, 3) - S({1: 1}, 3)
    assert s.c == {0: Fraction(1)}
    prod = S({0: 1, 1: 1}, 3) * S({0: 1, 1: -1}, 3)
    assert 1 not in prod.c


def test_exponent_beyond_truncation_rejected_on_build():
    assert S({5: 1}, 3).is_zero()


# -- ring laws (property tests) ----------------------------------------------

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def series_e(draw, max_order=12):
    trunc = draw(st.integers(min_value=0, max_value=max_order))
    n_terms = draw(st.integers(min_value=0, max_value=6))
    coeffs = {}
    for _ in range(n_terms):
        q = draw(st.integers(min_value=0, max_value=trunc))
        coeffs[q] = Fraction(str(draw(rationals)))
    return SeriesE(coeffs, trunc)


@given(series_e(), series_e(), series_e())
@settings(max_examples=120, deadline=None)
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@given(series_e())
@settings(max_examples=60, deadline=None)
def test_neutral_elements(a):
    assert a * SeriesE.one(a.trunc) == a
    assert a + SeriesE.zero(a.trunc) == a
    assert (a - a).is_zero()


# -- auxiliary series ---------------------------------------------------------


def test_sqrt_series_values():
    assert sqrt_one_minus_e2(4) == S({0: 1, 2: Fraction(-1, 2), 4: Fraction(-1, 8)}, 4)
    assert sqrt_one_minus_e2(6, p=0) == SeriesE.one(6)
    assert sqrt_one_minus_e2(4, p=2) == S({0: 1, 2: -1}, 4)


def test_sqrt_square_identity():
    s = sqrt_one_minus_e2(12)
    assert s * s == S({0: 1, 2: -1}, 12)


def test_sqrt_negative_power_inverse():
    assert sqrt_one_minus_e2(10, p=-1) * sqrt_one_minus_e2(10, p=1) == SeriesE.one(10)


# beta(e) and J_t(ke) live in Wnuk's integer workspace as dense lists
# [c_0, c_1, ...] = sum_i c_i (e/2)^(lo+2i), J_t(ke) held times trunc!


def _dense_series(dense, lo, trunc, scale=1):
    return S({lo + 2 * i: Fraction(c, scale << (lo + 2 * i)) for i, c in enumerate(dense)}, trunc)


def beta_series(trunc):
    return _dense_series(_workspace(trunc).beta_pows[1], 1, trunc)


def bessel_j_series(t, k, trunc):
    ws = _workspace(trunc)
    return _dense_series(ws.bessel(t, k), t, trunc, ws.factorials[trunc])


def test_beta_series_values():
    assert beta_series(1) == S({1: Fraction(1, 2)}, 1)
    assert beta_series(3) == S({1: Fraction(1, 2), 3: Fraction(1, 8)}, 3)
    assert beta_series(5).coeff(0) == 0


def test_beta_identity():
    # beta = e/(1+sqrt(1-e^2))
    trunc = 11
    one_plus_sqrt = SeriesE.one(trunc) + sqrt_one_minus_e2(trunc)
    assert beta_series(trunc) * one_plus_sqrt == S({1: 1}, trunc)


def test_bessel_values():
    assert bessel_j_series(0, 0, 4) == SeriesE.one(4)
    assert bessel_j_series(1, 2, 3) == S({1: 1, 3: Fraction(-1, 2)}, 3)
    assert bessel_j_series(0, 2, 4) == S({0: 1, 2: -1, 4: Fraction(1, 4)}, 4)


def test_bessel_constant_term_is_kronecker_delta():
    for t in range(4):
        for k in (0, 1, 3):
            s = bessel_j_series(t, k, 8)
            assert s.coeff(0) == (1 if t == 0 else 0)


# -- evaluation ------------------------------------------------------------------


def test_eval_float_horner():
    s = S({0: 1, 2: Fraction(-1, 2)}, 4)
    assert float(s.eval_exact(0.5)) == pytest.approx(1 - 0.125, abs=1e-15)


def test_eval_exact():
    s = S({0: 1, 1: Fraction(1, 3)}, 2)
    assert s.eval_exact(Fraction(3, 2)) == Fraction(3, 2)


def test_pretty_forms():
    assert S({2: Fraction(5, 2)}, 7).pretty() == "5/2 e^2"
    assert SeriesE.zero(3).pretty() == "0"
    assert S({1: -1}, 2).pretty() == "-e"


# -- bivariate specifics --------------------------------------------------------


def test_series_ae_truncate():
    sq = SeriesAE({(2, 0): 1, (1, 1): 2, (0, 2): 1}, 2, 2)
    assert sq.truncate(1, 1) == SeriesAE({(1, 1): 2}, 1, 1)
    assert sq.truncate(2, 2) is sq
    with pytest.raises(ValueError):
        sq.truncate(3, 2)


def test_series_ae_eval_horner():
    s = SeriesAE({(2, 0): Fraction(-1, 4), (2, 2): Fraction(-3, 8)}, 2, 2)
    assert PolyEval(s).at_point(0.1, 0.0) == pytest.approx(-0.0025, abs=1e-18)


def test_series_ae_derivatives():
    s = SeriesAE({(2, 3): 6}, 3, 3)
    assert s.derivative_a() == SeriesAE({(1, 3): 12}, 3, 3)
    assert s.derivative_e() == SeriesAE({(2, 2): 18}, 3, 3)


@given(series_e(), series_e(), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_truncation_coherence_property(a, b, n):
    n = min(n, a.trunc, b.trunc)
    assert (a * b).truncate(n) == (a.truncate(n) * b.truncate(n)).truncate(n)


@st.composite
def series_ae(draw, max_order=8):
    ta = draw(st.integers(min_value=0, max_value=max_order))
    te = draw(st.integers(min_value=0, max_value=max_order))
    coeffs = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        n = draw(st.integers(min_value=0, max_value=ta))
        q = draw(st.integers(min_value=0, max_value=te))
        coeffs[(n, q)] = Fraction(str(draw(rationals)))
    return SeriesAE(coeffs, ta, te)


@given(
    st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10)),
        st.one_of(st.just(Fraction(0)), rationals),
        max_size=12,
    ),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=150, deadline=None)
def test_series_ae_stores_reduced_integers_property(coeffs, ta, te, ta2, te2):
    # zeros and keys past the orders are dropped; the integers over `den`
    # share no factor, and truncation and the derivatives are the Fraction ones
    s = SeriesAE(coeffs, ta, te)
    want = {(n, q): v for (n, q), v in coeffs.items() if v and n <= ta and q <= te}
    assert s.c == want and all(type(v) is Fraction for v in s.c.values())
    assert s.den > 0 and math.gcd(s.den, *s.num.values()) == 1
    assert all(type(v) is int for v in s.num.values())
    ta2, te2 = min(ta, ta2), min(te, te2)
    assert s.truncate(ta2, te2).c == {(n, q): v for (n, q), v in want.items() if n <= ta2 and q <= te2}
    assert s.derivative_a().c == {(n - 1, q): n * v for (n, q), v in want.items() if n}
    assert s.derivative_e().c == {(n, q - 1): q * v for (n, q), v in want.items() if q}
    for t in (s.truncate(ta2, te2), s.derivative_a(), s.derivative_e()):
        assert t == SeriesAE(t.c, t.trunc_a, t.trunc_e)
        assert math.gcd(t.den, *t.num.values()) == 1


def _term_sum(s, a, e):
    """sum_{n,q} c_nq a^n e^q, term by term in Fraction arithmetic."""
    a, e = Fraction(a), Fraction(e)
    return sum((v * a**n * e**q for (n, q), v in s.c.items()), Fraction(0))


EXACT_POINTS = [
    (0.1877365808308593, 0.8997775438185494),  # dyadic: a float
    (Fraction(1, 3), Fraction(7, 10)),  # non-dyadic
    (0, 0),
    (0, Fraction(7, 10)),
    (Fraction(1, 3), 0),
    (-0.25, Fraction(-7, 10)),  # negative
    (Fraction(-2, 3), 0.5),
]


@pytest.mark.parametrize("a, e", EXACT_POINTS)
def test_series_ae_eval_exact_matches_term_sum(a, e):
    # rows of both parities, mixed parity in one row, denominators 1..9
    s = SeriesAE(
        {
            (0, 0): Fraction(1, 3), (1, 1): Fraction(-5, 7), (1, 4): 2,
            (3, 0): Fraction(11, 6), (3, 2): Fraction(-1, 9), (3, 6): Fraction(3, 5),
            (4, 3): -4, (4, 4): Fraction(1, 8), (6, 5): Fraction(-2, 9),
        },
        6, 6,
    )
    assert s.eval_exact(a, e) == _term_sum(s, a, e)
    assert s.eval_exact(a, e) == _term_sum(s, a, e)  # again, from the kept rows


@pytest.mark.parametrize("a, e", EXACT_POINTS)
def test_fourier_order60_eval_exact_matches_term_sum(a, e):
    from hansenatlas.fourier import Mode, fourier_coefficient

    f = fourier_coefficient(Mode(5, -2), 60, 60)
    assert f.eval_exact(a, e) == _term_sum(f, a, e)


@given(series_ae(), rationals, rationals)
@settings(max_examples=80, deadline=None)
def test_series_ae_eval_exact_property(s, a, e):
    assert s.eval_exact(a, e) == _term_sum(s, a, e)


def test_series_ae_eval_exact_zero_series():
    assert SeriesAE.zero(4, 4).eval_exact(Fraction(1, 3), 0.5) == 0
