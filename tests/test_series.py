"""Truncated-series algebra: arithmetic, ring laws, auxiliary series, text form."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hansenatlas.atlas import PolyEval
from hansenatlas.exact import rational
from hansenatlas.series import (
    SeriesAE,
    SeriesE,
    bessel_j_series,
    beta_series,
    sqrt_one_minus_e2,
)


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
    s = S({0: 1, 2: rational(3, 2)}, 4)
    assert s * s == S({0: 1, 2: 3, 4: rational(9, 4)}, 4)


def test_mixed_orders_take_minimum():
    a = S({0: 1, 1: 1}, 5)
    b = S({0: 1, 1: 1}, 3)
    assert (a * b).trunc == 3
    assert (a + b).trunc == 3


def test_truncation_coherence():
    a = S({0: 1, 1: 2, 2: 3, 3: rational(1, 7)}, 8)
    b = S({0: 5, 2: rational(-2, 3), 4: 1}, 8)
    n = 4
    assert (a * b).truncate(n) == (a.truncate(n) * b.truncate(n)).truncate(n)


def test_no_zero_coefficients_stored():
    s = S({0: 1, 1: 1}, 3) - S({1: 1}, 3)
    assert s.c == {0: rational(1)}
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
        coeffs[q] = rational(str(draw(rationals)))
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


# -- division ------------------------------------------------------------------


def test_inverse_round_trip():
    s = S({0: 2, 1: rational(-1, 2), 3: rational(5, 7)}, 9)
    assert (s * s.inverse()) == SeriesE.one(9)


def test_inverse_requires_constant_term():
    with pytest.raises(ZeroDivisionError):
        S({1: 1}, 4).inverse()


def test_divided_by_e_exactness():
    s = S({1: 3, 3: rational(1, 2)}, 5)
    assert s.divided_by_e() == S({0: 3, 2: rational(1, 2)}, 5)
    with pytest.raises(ValueError):
        S({0: 1}, 2).divided_by_e()


def test_pow_int_negative():
    s = S({0: 1, 2: -1}, 8)
    assert s.pow_int(-2) * s.pow_int(2) == SeriesE.one(8)


# -- auxiliary series ---------------------------------------------------------


def test_sqrt_series_values():
    assert sqrt_one_minus_e2(4) == S({0: 1, 2: rational(-1, 2), 4: rational(-1, 8)}, 4)
    assert sqrt_one_minus_e2(6, p=0) == SeriesE.one(6)
    assert sqrt_one_minus_e2(4, p=2) == S({0: 1, 2: -1}, 4)


def test_sqrt_square_identity():
    s = sqrt_one_minus_e2(12)
    assert s * s == S({0: 1, 2: -1}, 12)


def test_sqrt_negative_power_inverse():
    assert sqrt_one_minus_e2(10, p=-1) * sqrt_one_minus_e2(10, p=1) == SeriesE.one(10)


def test_beta_series_values():
    assert beta_series(1) == S({1: rational(1, 2)}, 1)
    assert beta_series(3) == S({1: rational(1, 2), 3: rational(1, 8)}, 3)
    assert beta_series(5).coeff(0) == 0


def test_beta_identity():
    trunc = 11
    beta = beta_series(trunc)
    one_plus_sqrt = SeriesE.one(trunc) + sqrt_one_minus_e2(trunc)
    assert beta * one_plus_sqrt == SeriesE.monomial(1, 1, trunc)


def test_bessel_values():
    assert bessel_j_series(0, 0, 4) == SeriesE.one(4)
    assert bessel_j_series(1, 2, 3) == S({1: 1, 3: rational(-1, 2)}, 3)
    assert bessel_j_series(-1, 2, 1) == S({1: -1}, 1)


def test_bessel_constant_term_is_kronecker_delta():
    for t in range(-3, 4):
        for k in (0, 1, 3):
            s = bessel_j_series(t, k, 8)
            assert s.coeff(0) == (1 if t == 0 else 0)


# -- evaluation and serialization ---------------------------------------------


def test_eval_float_horner():
    s = S({0: 1, 2: rational(-1, 2)}, 4)
    assert float(s.eval_exact(0.5)) == pytest.approx(1 - 0.125, abs=1e-15)


def test_eval_exact():
    s = S({0: 1, 1: rational(1, 3)}, 2)
    assert s.eval_exact(rational(3, 2)) == rational(3, 2)


def test_series_e_text_round_trip():
    s = S({0: 1, 2: rational(-5, 3), 7: rational(1, 64)}, 9)
    assert SeriesE.from_text(s.to_text(), 9) == s
    assert SeriesE.from_text(SeriesE.zero(4).to_text(), 4) == SeriesE.zero(4)
    assert s.to_text() == "1 * e^0 + -5/3 * e^2 + 1/64 * e^7"


def test_series_ae_text_round_trip():
    s = SeriesAE({(0, 0): -1, (2, 0): rational(-1, 4), (2, 2): rational(-3, 8)}, 4, 4)
    assert SeriesAE.from_text(s.to_text(), 4, 4) == s
    assert s.to_text() == "-1 * a^0 * e^0 + -1/4 * a^2 * e^0 + -3/8 * a^2 * e^2"


def test_pretty_forms():
    assert S({2: rational(5, 2)}, 7).pretty() == "5/2 e^2"
    assert SeriesE.zero(3).pretty() == "0"
    assert S({1: -1}, 2).pretty() == "-e"


# -- bivariate specifics --------------------------------------------------------


def test_series_ae_mul_and_truncate():
    a = SeriesAE({(1, 0): 1, (0, 1): 1}, 2, 2)
    sq = a * a
    assert sq == SeriesAE({(2, 0): 1, (1, 1): 2, (0, 2): 1}, 2, 2)
    assert sq.truncate(1, 1) == SeriesAE({(1, 1): 2}, 1, 1)


def test_series_ae_eval_horner():
    s = SeriesAE({(2, 0): rational(-1, 4), (2, 2): rational(-3, 8)}, 2, 2)
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
        coeffs[(n, q)] = rational(str(draw(rationals)))
    return SeriesAE(coeffs, ta, te)


@given(series_ae(), series_ae(), series_ae())
@settings(max_examples=80, deadline=None)
def test_bivariate_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
