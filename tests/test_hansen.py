"""Hansen coefficient routes: k = 0 forms, operators, Bessel and multiple sums, symmetries."""
import math
from fractions import Fraction
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hansenatlas.exact import binomial_general, binomial_rational
from hansenatlas.hansen import (
    HansenKey,
    NewcombTable,
    hansen,
    hansen_balmino,
    hansen_k0_closed,
    hansen_k0_negative,
    hansen_newcomb,
    hansen_table,
    hansen_wnuk,
    hansen_wnuk_column,
    _workspace,
)
from hansenatlas.series import SeriesE, sqrt_one_minus_e2


def S(coeffs, trunc):
    return SeriesE(coeffs, trunc)


# -- canonical keys -------------------------------------------------------------


def test_canonical_key():
    assert HansenKey(3, 2, -5).canonical() == HansenKey(3, -2, 5)
    assert HansenKey(3, -2, 0).canonical() == HansenKey(3, 2, 0)
    assert HansenKey(3, 2, 5).canonical() == HansenKey(3, 2, 5)
    assert HansenKey(3, 0, 0).canonical() == HansenKey(3, 0, 0)


# -- k = 0 closed form ----------------------------------------------------------


def test_k0_closed_values():
    assert hansen_k0_closed(0, 1, 7) == S({1: -1}, 7)
    assert hansen_k0_closed(2, 0, 7) == S({0: 1, 2: Fraction(3, 2)}, 7)
    assert hansen_k0_closed(5, 1, 7) == S(
        {1: Fraction(-7, 2), 3: Fraction(-35, 4), 5: Fraction(-35, 16)}, 7
    )


def test_k0_closed_negative_m_symmetry():
    assert hansen_k0_closed(4, -2, 9) == hansen_k0_closed(4, 2, 9)


# -- k = 0 closed form against the recursive routes --------------------------------


@pytest.mark.parametrize("n", range(0, 16))
@pytest.mark.parametrize("m", range(0, 4))
def test_k0_recursive_matches_closed(n, m):
    # Newcomb's operator recursions and Wnuk's recursion in n share nothing with
    # the hypergeometric closed form
    closed = hansen_k0_closed(n, m, 7)
    assert hansen_newcomb(n, m, 0, 7) == closed
    assert hansen_wnuk(n, m, 0, 7) == closed


# -- k = 0, negative radius exponents ---------------------------------------------


def test_k0_negative_inverse_sqrt():
    # X_0^{-2,0} = (1-e^2)^{-1/2}
    assert hansen_k0_negative(1, 0, 12) == sqrt_one_minus_e2(12, p=-1)


def test_k0_negative_unit_exponent():
    # (a/r) averages to exactly 1 over one period
    assert hansen_k0_negative(0, 0, 9) == SeriesE.one(9)


def test_k0_negative_n0_beta_powers():
    # X_0^{-1,m} = (-beta)^m with beta (1 + sqrt(1-e^2)) = e
    for trunc in (0, 1, 2, 9, 30):
        minus_beta = hansen_k0_negative(0, 1, trunc)
        assert minus_beta * (SeriesE.one(trunc) + sqrt_one_minus_e2(trunc)) == S({1: -1}, trunc)
        power = SeriesE.one(trunc)
        for m in range(trunc + 3):
            assert hansen_k0_negative(0, m, trunc) == power, (trunc, m)
            power = power * minus_beta


def test_k0_negative_empty_sum_is_zero():
    # for n >= 1 the polynomial factor has degree n-1 in cos f: zero when m > n-1
    assert hansen_k0_negative(1, 1, 10).is_zero()
    assert hansen_k0_negative(2, 2, 10).is_zero()
    assert hansen_k0_negative(3, 4, 10).is_zero()


def test_k0_negative_known_average():
    # X_0^{-4,0} = (1+e^2/2)(1-e^2)^{-5/2}
    expected = sqrt_one_minus_e2(10, p=-5) * S({0: 1, 2: Fraction(1, 2)}, 10)
    assert hansen_k0_negative(3, 0, 10) == expected


def test_k0_negative_matches_the_general_routes():
    # 40 keys X_0^{n,m}, n = -8..-1, m = 0..4, at order 30
    for n in range(-8, 0):
        for m in range(5):
            key = HansenKey(n, m, 0)
            k0 = hansen(key, 30, "k0")
            for method in ("newcomb", "wnuk", "balmino"):
                assert hansen(key, 30, method) == k0, (n, m, method)


# -- Newcomb operators --------------------------------------------------------------


def test_newcomb_seeds():
    tab = NewcombTable()
    assert tab.value(4, 1, 0, 0) == 1
    assert tab.value(4, 1, 1, 0) == Fraction(2 * 1 - 4, 2)
    assert tab.value(4, 1, -1, 2) == 0
    assert tab.value(4, 1, 2, -1) == 0


def test_newcomb_transpose_symmetry():
    tab = NewcombTable()
    for n in range(0, 4):
        for m in range(-2, 3):
            for rho in range(0, 5):
                for sigma in range(rho + 1, 5):
                    assert tab.value(n, m, rho, sigma) == tab.value(n, -m, sigma, rho)


def _chi_reference(j: int) -> Fraction:
    """(-1)^j C(3/2, j), the tail weights of the sigma-recursion."""
    v = binomial_rational(Fraction(3, 2), j)
    if j % 2:
        v = -v
    return v


class _NewcombReference:
    """Memoized Newcomb operators X_{rho,sigma}^{n,m}, by the recursions on Fractions.

    Seeds: X_{0,0}^{n,m} = 1 and zero whenever rho or sigma is negative.
    For sigma = 0:
        4 rho X_{rho,0}^{n,m} = 2(2m-n) X_{rho-1,0}^{n,m+1} + (m-n) X_{rho-2,0}^{n,m+2}
    and for sigma != 0:
        4 sigma X_{rho,sigma}^{n,m} = -2(2m+n) X_{rho,sigma-1}^{n,m-1}
            - (m+n) X_{rho,sigma-2}^{n,m-2}
            - (rho - 5 sigma + 4 + 4m + n) X_{rho-1,sigma-1}^{n,m}
            + 2(rho - sigma + m) sum_{j>=2} (-1)^j C(3/2, j) X_{rho-j,sigma-j}^{n,m}.
    """

    def __init__(self) -> None:
        self.values: Dict[tuple, Fraction] = {}

    def value(self, n: int, m: int, rho: int, sigma: int) -> Fraction:
        if rho < 0 or sigma < 0:
            return Fraction(0)
        key = (n, m, rho, sigma)
        v = self.values.get(key)
        if v is not None:
            return v
        if rho == 0 and sigma == 0:
            v = Fraction(1)
        elif sigma == 0:
            v = (
                2 * (2 * m - n) * self.value(n, m + 1, rho - 1, 0)
                + (m - n) * self.value(n, m + 2, rho - 2, 0)
            ) / (4 * rho)
        else:
            acc = (
                -2 * (2 * m + n) * self.value(n, m - 1, rho, sigma - 1)
                - (m + n) * self.value(n, m - 2, rho, sigma - 2)
                - (rho - 5 * sigma + 4 + 4 * m + n)
                * self.value(n, m, rho - 1, sigma - 1)
            )
            factor = 2 * (rho - sigma + m)
            if factor:
                tail = Fraction(0)
                for j in range(2, min(rho, sigma) + 1):
                    term = self.value(n, m, rho - j, sigma - j)
                    if term:
                        tail += _chi_reference(j) * term
                acc += factor * tail
            v = acc / (4 * sigma)
        self.values[key] = v
        return v


_newcomb_reference = _NewcombReference().value


def _assert_newcomb_is_reference(tab, n, m, rho, sigma):
    got = tab.value(n, m, rho, sigma)
    ref = _newcomb_reference(n, m, rho, sigma)
    assert got == ref and type(got) is Fraction, (n, m, rho, sigma)
    scale = 4 ** (rho + sigma) * math.factorial(rho) * math.factorial(sigma)
    y = tab.values[(n, m, rho, sigma)]
    assert type(y) is int and y == scale * ref, (n, m, rho, sigma)


def test_newcomb_equals_fraction_recursion_reference():
    tab = NewcombTable()
    for n in range(-3, 9):
        for m in range(-4, 5):
            for rho in range(13):
                for sigma in range(13):
                    _assert_newcomb_is_reference(tab, n, m, rho, sigma)


@settings(max_examples=60, deadline=None)
@given(st.integers(-8, 16), st.integers(-8, 8), st.integers(0, 24), st.integers(0, 24))
def test_newcomb_equals_fraction_recursion_reference_property(n, m, rho, sigma):
    _assert_newcomb_is_reference(NewcombTable(), n, m, rho, sigma)


def test_newcomb_hansen_examples():
    assert hansen_newcomb(1, 0, 1, 7) == S(
        {1: Fraction(-1, 2), 3: Fraction(3, 16), 5: Fraction(-5, 384), 7: Fraction(7, 18432)},
        7,
    )
    assert hansen_newcomb(0, 1, 1, 6) == S(
        {0: 1, 2: -1, 4: Fraction(7, 64), 6: Fraction(-5, 288)}, 6
    )
    assert hansen_newcomb(2, 1, 1, 6) == S(
        {0: 1, 2: Fraction(1, 2), 4: Fraction(-25, 64), 6: Fraction(-23, 1152)}, 6
    )


# -- Wnuk's route ----------------------------------------------------------------------


def test_wnuk_examples():
    assert hansen_wnuk(1, 2, 4, 6) == S(
        {2: 2, 4: Fraction(-19, 3), 6: Fraction(55, 8)}, 6
    )
    assert hansen_wnuk(1, 0, 8, 10) == S(
        {8: Fraction(-64, 315), 10: Fraction(256, 567)}, 10
    )
    assert hansen_wnuk(2, 0, 10, 12) == S(
        {10: Fraction(-15625, 290304), 12: Fraction(390625, 3193344)}, 12
    )


def test_wnuk_zero_for_n0_m0():
    # (r/a)^0 e^{i0f} = 1 has a single Fourier mode in the mean anomaly
    for k in (1, 2, 5, 10):
        assert hansen_wnuk(0, 0, k, 14).is_zero()


def _dmul_reference(a, b, length):
    out = [0] * length
    for i, ca in enumerate(a[:length]):
        if ca:
            for j, cb in enumerate(b[: length - i], i):
                out[j] += ca * cb
    return out


def _one_plus_beta2_pow(ws, p):
    """(1+beta^2)^p as an even dense list in u = e/2, for p of either sign."""
    # beta^2 = C(u^2) - 1 with Catalan's C(x), and 1/C(x) = 1 - x C(x)
    base = [1] + (ws.beta_pows[2] if ws.trunc >= 2 else [])
    if p < 0:
        base = [1] + [-c for c in base[:-1]]
    out = [1]
    for _ in range(abs(p)):
        out = _dmul_reference(out, base, ws.trunc // 2 + 1)
    return out


def _wnuk_e_factor(ws, n, m, d):
    """E_d^{n,m} as a dense list with lo = |d|, in u.

    E_d = (-beta)^{d} sum_s C(n-m+1, d+s) C(n+m+1, s) beta^{2s}        (d >= 0)
        = (-beta)^{-d} sum_s C(n+m+1, -d+s) C(n-m+1, s) beta^{2s}      (d < 0)
    """
    ad = abs(d)
    trunc = ws.trunc
    if ad > trunc:
        return []
    length = (trunc - ad) // 2 + 1
    out = [0] * length
    beta_pows = ws.beta_pows
    for s in range(length):
        if d >= 0:
            c = binomial_general(n - m + 1, d + s) * binomial_general(n + m + 1, s)
        else:
            c = binomial_general(n + m + 1, -d + s) * binomial_general(n - m + 1, s)
        if not c:
            continue
        if ad % 2:
            c = -c
        for i, v in enumerate(beta_pows[ad + 2 * s][: length - s], s):
            out[i] += c * v
    return out


def _wnuk_reference(n, m, k, trunc):
    """X_k^{n,m} = (1+beta^2)^{-(n+1)} sum_t E_{k-t-m}^{n,m} J_t(k e), one t at a time."""
    ws = _workspace(trunc)
    d0 = k - m
    ad0 = abs(d0)
    if ad0 > trunc:
        return SeriesE.zero(trunc)
    if k == 0:
        t_values = [0]
    else:
        spread = (trunc - ad0) // 2
        t_values = list(range(min(0, d0) - spread, max(0, d0) + spread + 1))
    acc_len = (trunc - ad0) // 2 + 1
    acc = [0] * acc_len
    for t in t_values:
        d = d0 - t
        order0 = abs(d) + abs(t)
        if order0 > trunc:
            continue
        jt = ws.bessel(abs(t), k)
        if not jt:
            continue
        e_fac = _wnuk_e_factor(ws, n, m, d)
        if not e_fac:
            continue
        prod = _dmul_reference(e_fac, jt, (trunc - order0) // 2 + 1)
        if t < 0 and t % 2:
            prod = [-v for v in prod]
        for i, v in enumerate(prod, (order0 - ad0) // 2):
            acc[i] += v
    result = _dmul_reference(acc, _one_plus_beta2_pow(ws, -(n + 1)), acc_len)
    scale = ws.factorials[trunc]
    coeffs = {
        ad0 + 2 * i: Fraction(v, scale << (ad0 + 2 * i)) for i, v in enumerate(result) if v
    }
    return SeriesE(coeffs, trunc, _raw=True)


def _assert_wnuk_is_reference(n, m, k, trunc):
    got = hansen_wnuk(n, m, k, trunc)
    ref = _wnuk_reference(n, m, k, trunc)
    assert got == ref, (n, m, k, trunc)
    assert got.c == ref.c and all(type(v) is Fraction for v in got.c.values())


@pytest.mark.parametrize("trunc", [0, 1, 5, 12, 20])
def test_wnuk_equals_t_sum_reference(trunc):
    # the box holds k = 0, negative k and n, and a = n-|m|+1 < 0 (downward steps)
    for n in range(-4, 9):
        for m in range(-4, 5):
            for k in range(-7, 8):
                _assert_wnuk_is_reference(n, m, k, trunc)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-6, 14), st.integers(-6, 6), st.integers(-12, 12), st.integers(0, 24)
)
def test_wnuk_equals_t_sum_reference_property(n, m, k, trunc):
    _assert_wnuk_is_reference(n, m, k, trunc)


def test_wnuk_column_equals_per_n_calls():
    # unsorted, with repeats, and with n on both sides of |m|-1 (a < 0 and a >= 0)
    ns = [7, -3, 2, 7, 0, -3, 11, 4, 1]
    for m, k in [(4, 3), (-4, 3), (2, -5), (-1, 1), (0, 6), (3, 0)]:
        for trunc in (0, 5, 16):
            column = hansen_wnuk_column(ns, m, k, trunc)
            assert len(column) == len(ns)
            for n, series in zip(ns, column):
                assert series == hansen_wnuk(n, m, k, trunc), (n, m, k, trunc)
                assert series == _wnuk_reference(n, m, k, trunc), (n, m, k, trunc)
    assert hansen_wnuk_column([], 2, 3, 10) == []
    assert hansen_wnuk_column(ns, 0, 30, 12) == [SeriesE.zero(12)] * len(ns)


def test_wnuk_equals_newcomb_at_order_60():
    # every canonical key of f_{5,-2}, f_{10,-4} and f_{15,-6} at order 60
    keys = [
        HansenKey(n, 5 * j, -2 * j).canonical()
        for j in (1, 2, 3)
        for n in range(5 * j, 61, 2)
    ]
    assert len(keys) == 77
    for key in keys:
        wnuk = hansen_wnuk(key.n, key.m, key.k, 60)
        assert wnuk == hansen_newcomb(key.n, key.m, key.k, 60), key
        assert hansen_balmino(key.n, key.m, key.k, 60) == wnuk, key


# -- Balmino's route ---------------------------------------------------------------------


def test_balmino_examples():
    assert hansen_balmino(2, 2, 2, 0) == SeriesE.one(0)
    assert hansen_balmino(0, 1, 1, 6) == S(
        {0: 1, 2: -1, 4: Fraction(7, 64), 6: Fraction(-5, 288)}, 6
    )
    assert hansen_balmino(0, 3, 8, 9) == S(
        {5: Fraction(2611, 80), 7: Fraction(-87599, 480), 9: Fraction(155981, 384)}, 9
    )


def _balmino_reference(n: int, m: int, k: int, trunc: int) -> SeriesE:
    """X_{m+s}^{n,m} for s = k-m >= 0 by the closed multiple sum.

    X = (-1)^s (e/2)^s sum_t { sum_{j<=t} sum_{p<=j} C(n+m+1, j-p) k^p/p!
        sum_{q<=s+j} C(n-m+1, s+j-q) (-1)^q k^q/q!
        [ 2 C(2t-n+s-p-q-2, t-j) - C(2t-n+s-p-q-1, t-j) ] } (e/2)^{2t},
    negative upper binomial indices following the signed convention.  Keys with
    s < 0 are served through X_k^{n,m} = X_{-k}^{n,-m}.
    """
    s = k - m
    if s < 0:
        return _balmino_reference(n, -m, -k, trunc)
    if s > trunc:
        return SeriesE.zero(trunc)
    kp = [Fraction(k**p, math.factorial(p)) for p in range(s + trunc + 2)]
    sign_s = 1 if s % 2 == 0 else -1
    coeffs: Dict[int, Fraction] = {}
    for t in range((trunc - s) // 2 + 1):
        total = Fraction(0)
        for j in range(t + 1):
            for p in range(j + 1):
                b1 = binomial_general(n + m + 1, j - p)
                if not b1:
                    continue
                outer = b1 * kp[p]
                if outer == 0:
                    continue
                inner = Fraction(0)
                for q in range(s + j + 1):
                    b2 = binomial_general(n - m + 1, s + j - q)
                    if not b2:
                        continue
                    kq = kp[q]
                    if kq == 0:
                        continue
                    bracket = 2 * binomial_general(
                        2 * t - n + s - p - q - 2, t - j
                    ) - binomial_general(2 * t - n + s - p - q - 1, t - j)
                    if not bracket:
                        continue
                    term = b2 * bracket * kq
                    inner += term if q % 2 == 0 else -term
                if inner:
                    total += outer * inner
        if total:
            coeffs[s + 2 * t] = sign_s * total / 2 ** (s + 2 * t)
    return SeriesE(coeffs, trunc, _raw=True)


def _assert_balmino_is_reference(n, m, k, trunc):
    got = hansen_balmino(n, m, k, trunc)
    ref = _balmino_reference(n, m, k, trunc)
    assert got == ref, (n, m, k, trunc)
    assert got.c == ref.c and all(type(v) is Fraction for v in got.c.values())


@pytest.mark.parametrize("trunc", [0, 1, 7, 12, 16])
def test_balmino_equals_quadruple_sum_reference(trunc):
    # the box holds k = 0, s = k-m < 0 (reflected) and s > trunc (zero)
    for n in range(-3, 9):
        for m in range(-3, 4):
            for k in range(-10, 11):
                _assert_balmino_is_reference(n, m, k, trunc)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-6, 14), st.integers(-6, 6), st.integers(-14, 14), st.integers(0, 20)
)
def test_balmino_equals_quadruple_sum_reference_property(n, m, k, trunc):
    _assert_balmino_is_reference(n, m, k, trunc)


def test_balmino_reflects_negative_s():
    # s = k-m < 0 is served through X_k^{n,m} = X_{-k}^{n,-m}
    assert hansen_balmino(3, 2, -1, 8) == hansen_newcomb(3, 2, -1, 8)


# -- dispatcher, symmetry, properties -----------------------------------------------------


def test_dispatcher_examples():
    assert hansen(HansenKey(3, 0, 4), 7) == S({4: Fraction(1, 16), 6: Fraction(-3, 20)}, 7)
    assert hansen(HansenKey(0, 1, 10), 11) == S(
        {9: Fraction(390625, 72576), 11: Fraction(-5078125, 290304)}, 11
    )
    assert hansen(HansenKey(5, -1, -1), 7) == hansen(HansenKey(5, 1, 1), 7)


def test_dispatcher_negative_exponent_route():
    assert hansen(HansenKey(-2, 0, 0), 8) == hansen_k0_negative(1, 0, 8)
    assert hansen(HansenKey(-1, 3, 0), 9) == hansen_k0_negative(0, 3, 9)


def test_dispatcher_rejects_bad_combination():
    with pytest.raises(ValueError):
        hansen(HansenKey(2, 1, 3), 6, method="k0")
    with pytest.raises(ValueError):
        hansen(HansenKey(2, 1, 3), 6, method="nope")


def test_lower_orders_are_truncations():
    full = hansen(HansenKey(4, 2, 6), 12)
    sliced = hansen(HansenKey(4, 2, 6), 8)
    assert sliced == full.truncate(8)


def test_symmetry_exact():
    for (n, m, k) in [(0, 1, 3), (2, -1, 4), (5, 2, -7), (3, -3, -2)]:
        assert hansen(HansenKey(n, m, k), 9) == hansen(HansenKey(n, -m, -k), 9)


# keys whose order-|k-m| coefficient happens to vanish (verified against the
# defining-integral quadrature: the value scales like e^lowest, not e^|k-m|)
DALEMBERT_EXCEPTIONS = {
    (0, -3, 6): 11, (0, 3, -6): 11,
    (2, -1, -2): 3, (2, 1, 2): 3,
    (3, -2, -6): 6, (3, 2, 6): 6,
    (3, 0, -2): 4, (3, 0, 2): 4,
    (4, -2, -3): 3, (4, 2, 3): 3,
    (6, -3, -4): 3, (6, 3, 4): 3,
}


@pytest.mark.parametrize("n", range(0, 7))
@pytest.mark.parametrize("m", range(-3, 4))
@pytest.mark.parametrize("k", range(-6, 7))
def test_dalembert_leading_power_and_delta(n, m, k):
    series = hansen(HansenKey(n, m, k), 12)
    if n == 0 and m == 0 and k != 0:
        assert series.is_zero()
        return
    if abs(k - m) <= 12:
        expected = DALEMBERT_EXCEPTIONS.get((n, m, k), abs(k - m))
        assert series.lowest_exponent() == expected
    assert series.coeff(0) == (1 if k == m else 0)


def test_dalembert_exception_confirmed_by_quadrature():
    # X_6^{3,2} starts at e^6 with coefficient 63/80: the integral shrinks like
    # e^6, two orders faster than the generic e^{|k-m|} = e^4 law
    from hansenatlas.oracle import oracle_hansen

    series = hansen(HansenKey(3, 2, 6), 12)
    assert series.lowest_exponent() == 6
    assert series.coeff(6) == Fraction(63, 80)
    for e in (0.05, 0.1):
        assert oracle_hansen(3, 2, 6, e, 4096) == pytest.approx(
            rational_float(63, 80) * e**6, rel=0.05
        )


def rational_float(num, den):
    return num / den


# -- table generator ---------------------------------------------------------------


def test_table_text_layout():
    text = hansen_table([0, 1, 2], [0, 1], 0, 7)
    lines = text.splitlines()
    assert lines[0].split()[0] == "n"
    assert lines[1].startswith("0")
    assert "-e" in lines[1]
    assert "1 + 3/2 e^2" in lines[3]


@pytest.mark.parametrize(
    "method,k", [("wnuk", 3), ("wnuk", -2), ("wnuk", 0), ("wnuk", -4)]
)
def test_table_on_wnuk_route_is_one_column_call_per_m(monkeypatch, method, k):
    import importlib

    hansen_module = importlib.import_module("hansenatlas.hansen")
    real = hansen_module.hansen_wnuk_column
    calls = []

    def counted(ns, m, kk, trunc):
        calls.append((list(ns), m, kk))
        return real(ns, m, kk, trunc)

    monkeypatch.setattr(hansen_module, "hansen_wnuk_column", counted)
    n_values, m_values = [-2, 0, 1, 4, 7], [-3, -1, 0, 2]
    text = hansen_table(n_values, m_values, k, 9, method)
    assert len(calls) == len(m_values)
    assert all(ns == n_values for ns, _, _ in calls)
    assert all(kk > 0 or (kk == 0 and m >= 0) for _, m, kk in calls)  # canonical
    # the table is the one a per-key route gives
    assert text == hansen_table(n_values, m_values, k, 9, "newcomb")


def test_newcomb_table_tracks_order_bound():
    tab = NewcombTable()
    tab.value(2, 1, 3, 2)
    assert (2, 1, 3, 2) in tab.values


def test_clear_caches_empties_every_route_memo():
    import importlib

    hansen_module = importlib.import_module("hansenatlas.hansen")
    hansen_newcomb(2, 1, 3, 12)
    hansen_wnuk(2, 1, 3, 12)
    assert hansen_module._CHI_CACHE
    assert hansen_module._NEWCOMB.values
    assert hansen_module._WNUK_WORKSPACES
    hansen_module.clear_caches()
    assert not hansen_module._CHI_CACHE
    assert not hansen_module._NEWCOMB.values
    assert not hansen_module._WNUK_WORKSPACES


def test_negative_radius_exponent_with_nonzero_k():
    # the dispatcher accepts these; all three general routes must agree
    from hansenatlas.oracle import oracle_hansen

    for (n, m, k) in [(-1, 0, 1), (-2, 1, 1), (-3, 1, 2), (-2, 2, 4)]:
        w = hansen_wnuk(n, m, k, 20)
        assert w == hansen_newcomb(n, m, k, 20)
        assert w == hansen_balmino(n, m, k, 20)
        assert float(w.eval_exact(0.15)) == pytest.approx(
            oracle_hansen(n, m, k, 0.15, 8192), abs=1e-12
        )
