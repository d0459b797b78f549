"""Hansen coefficient routes: closed forms, recursions, operators, symmetries."""
import logging

import pytest

from hansenatlas.exact import rational
from hansenatlas.hansen import (
    HansenKey,
    NewcombTable,
    hansen,
    hansen_balmino,
    hansen_k0_closed,
    hansen_k0_negative,
    hansen_k0_recursive,
    hansen_newcomb,
    hansen_nmk,
    hansen_table,
    hansen_wnuk,
)
from hansenatlas.series import SeriesE, beta_series, sqrt_one_minus_e2


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
    assert hansen_k0_closed(2, 0, 7) == S({0: 1, 2: rational(3, 2)}, 7)
    assert hansen_k0_closed(5, 1, 7) == S(
        {1: rational(-7, 2), 3: rational(-35, 4), 5: rational(-35, 16)}, 7
    )


def test_k0_closed_negative_m_symmetry():
    assert hansen_k0_closed(4, -2, 9) == hansen_k0_closed(4, 2, 9)


# -- k = 0 recursions -------------------------------------------------------------


def test_k0_recursive_examples():
    assert hansen_k0_recursive(3, 3, 7) == S({3: rational(-35, 8)}, 7)
    assert hansen_k0_recursive(2, 2, 7) == S({2: rational(5, 2)}, 7)
    assert hansen_k0_recursive(0, 0, 7) == SeriesE.one(7)


@pytest.mark.parametrize("n", range(0, 16))
@pytest.mark.parametrize("m", range(0, 4))
def test_k0_recursive_matches_closed(n, m):
    assert hansen_k0_recursive(n, m, 7) == hansen_k0_closed(n, m, 7)


def test_k0_recursive_fallback_is_flagged(caplog):
    # reaching m = n+2 crosses the vanishing divisor n-m+1 = 0
    with caplog.at_level(logging.WARNING, logger="hansenatlas.hansen"):
        series = hansen_k0_recursive(0, 2, 7)
    assert series == hansen_k0_closed(0, 2, 7)
    assert any("closed form fallback" in r.message for r in caplog.records)


# -- k = 0, negative radius exponents ---------------------------------------------


def test_k0_negative_inverse_sqrt():
    # X_0^{-2,0} = (1-e^2)^{-1/2}
    assert hansen_k0_negative(1, 0, 12) == sqrt_one_minus_e2(12, p=-1)


def test_k0_negative_unit_exponent():
    # (a/r) averages to exactly 1 over one period
    assert hansen_k0_negative(0, 0, 9) == SeriesE.one(9)


def test_k0_negative_n0_beta_powers():
    # X_0^{-1,m} = (-beta)^m
    beta = beta_series(9)
    assert hansen_k0_negative(0, 1, 9) == -beta
    assert hansen_k0_negative(0, 2, 9) == beta * beta


def test_k0_negative_empty_sum_is_zero():
    # for n >= 1 the polynomial factor has degree n-1 in cos f: zero when m > n-1
    assert hansen_k0_negative(1, 1, 10).is_zero()
    assert hansen_k0_negative(2, 2, 10).is_zero()
    assert hansen_k0_negative(3, 4, 10).is_zero()


def test_k0_negative_known_average():
    # X_0^{-4,0} = (1+e^2/2)(1-e^2)^{-5/2}
    expected = sqrt_one_minus_e2(10, p=-5) * S({0: 1, 2: rational(1, 2)}, 10)
    assert hansen_k0_negative(3, 0, 10) == expected


# -- Newcomb operators --------------------------------------------------------------


def test_newcomb_seeds():
    tab = NewcombTable()
    assert tab.value(4, 1, 0, 0) == 1
    assert tab.value(4, 1, 1, 0) == rational(2 * 1 - 4, 2)
    assert tab.value(4, 1, -1, 2) == 0
    assert tab.value(4, 1, 2, -1) == 0


def test_newcomb_transpose_symmetry():
    tab = NewcombTable()
    for n in range(0, 4):
        for m in range(-2, 3):
            for rho in range(0, 5):
                for sigma in range(rho + 1, 5):
                    assert tab.value(n, m, rho, sigma) == tab.value(n, -m, sigma, rho)


def test_newcomb_hansen_examples():
    assert hansen_newcomb(1, 0, 1, 7) == S(
        {1: rational(-1, 2), 3: rational(3, 16), 5: rational(-5, 384), 7: rational(7, 18432)},
        7,
    )
    assert hansen_newcomb(0, 1, 1, 6) == S(
        {0: 1, 2: -1, 4: rational(7, 64), 6: rational(-5, 288)}, 6
    )
    assert hansen_newcomb(2, 1, 1, 6) == S(
        {0: 1, 2: rational(1, 2), 4: rational(-25, 64), 6: rational(-23, 1152)}, 6
    )


# -- Wnuk's route ----------------------------------------------------------------------


def test_wnuk_examples():
    assert hansen_wnuk(1, 2, 4, 6) == S(
        {2: 2, 4: rational(-19, 3), 6: rational(55, 8)}, 6
    )
    assert hansen_wnuk(1, 0, 8, 10) == S(
        {8: rational(-64, 315), 10: rational(256, 567)}, 10
    )
    assert hansen_wnuk(2, 0, 10, 12) == S(
        {10: rational(-15625, 290304), 12: rational(390625, 3193344)}, 12
    )


def test_wnuk_zero_for_n0_m0():
    # (r/a)^0 e^{i0f} = 1 has a single Fourier mode in the mean anomaly
    for k in (1, 2, 5, 10):
        assert hansen_wnuk(0, 0, k, 14).is_zero()


# -- Balmino's route ---------------------------------------------------------------------


def test_balmino_examples():
    assert hansen_balmino(2, 2, 2, 0) == SeriesE.one(0)
    assert hansen_balmino(0, 1, 1, 6) == S(
        {0: 1, 2: -1, 4: rational(7, 64), 6: rational(-5, 288)}, 6
    )
    assert hansen_balmino(0, 3, 8, 9) == S(
        {5: rational(2611, 80), 7: rational(-87599, 480), 9: rational(155981, 384)}, 9
    )


def test_balmino_reflects_negative_s():
    # s = k-m < 0 is served through X_k^{n,m} = X_{-k}^{n,-m}
    assert hansen_balmino(3, 2, -1, 8) == hansen_newcomb(3, 2, -1, 8)


# -- dispatcher, symmetry, properties -----------------------------------------------------


def test_dispatcher_examples():
    assert hansen_nmk(3, 0, 4, 7) == S({4: rational(1, 16), 6: rational(-3, 20)}, 7)
    assert hansen_nmk(0, 1, 10, 11) == S(
        {9: rational(390625, 72576), 11: rational(-5078125, 290304)}, 11
    )
    assert hansen_nmk(5, -1, -1, 7) == hansen_nmk(5, 1, 1, 7)


def test_dispatcher_negative_exponent_route():
    assert hansen_nmk(-2, 0, 0, 8) == hansen_k0_negative(1, 0, 8)
    assert hansen_nmk(-1, 3, 0, 9) == hansen_k0_negative(0, 3, 9)


def test_dispatcher_rejects_bad_combination():
    with pytest.raises(ValueError):
        hansen_nmk(2, 1, 3, 6, method="k0")
    with pytest.raises(ValueError):
        hansen_nmk(2, 1, 3, 6, method="nope")


def test_lower_orders_are_truncations():
    full = hansen_nmk(4, 2, 6, 12)
    sliced = hansen_nmk(4, 2, 6, 8)
    assert sliced == full.truncate(8)


def test_symmetry_exact():
    for (n, m, k) in [(0, 1, 3), (2, -1, 4), (5, 2, -7), (3, -3, -2)]:
        assert hansen_nmk(n, m, k, 9) == hansen_nmk(n, -m, -k, 9)


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
    series = hansen_nmk(n, m, k, 12)
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

    series = hansen_nmk(3, 2, 6, 12)
    assert series.lowest_exponent() == 6
    assert series.coeff(6) == rational(63, 80)
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


def test_table_csv_round_layout():
    text = hansen_table([2], [2], 0, 7, fmt="csv")
    assert text.splitlines()[1] == "2,5/2 e^2"


def test_newcomb_table_tracks_order_bound():
    tab = NewcombTable()
    tab.value(2, 1, 3, 2)
    assert (2, 1, 3, 2) in tab.values


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
