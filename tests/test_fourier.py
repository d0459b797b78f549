"""Fourier-coefficient assembly, asymptotic coefficients, and their exact identity."""
import logging
import math

import pytest

from hansenatlas.exact import rational
from hansenatlas.fourier import (
    Mode,
    asymptotic_consistency,
    clear_fourier_cache,
    coefficient_csv,
    coefficient_json_obj,
    fourier_coefficient,
    g2_modes,
    legendre_weight,
    t_mk,
)
from hansenatlas.series import SeriesAE


# -- modes -----------------------------------------------------------------


def test_mode_membership():
    assert Mode(0, 1).in_g2
    assert not Mode(0, -1).in_g2
    assert Mode(1, -5).in_g2
    assert not Mode(2, 4).in_g2
    assert not Mode(0, 0).in_g2
    assert not Mode(-1, 3).in_g2
    assert Mode(5, -2).in_g2


def test_mode_mstar():
    assert Mode(0, 3).m_star == 2
    assert Mode(1, 1).m_star == 3
    assert Mode(2, 7).m_star == 2
    assert Mode(9, 1).m_star == 9


def test_g2_enumeration():
    modes = g2_modes(3)
    assert Mode(0, 1) in modes
    assert Mode(1, -2) in modes
    assert Mode(3, 0) not in modes  # gcd 3
    assert Mode(0, 2) not in modes  # gcd 2
    assert all(md.in_g2 and abs(md.m) + abs(md.k) <= 3 for md in modes)


# -- Legendre weights ----------------------------------------------------------


def test_legendre_weight_values():
    assert legendre_weight(2, 0) == rational(1, 4)
    assert legendre_weight(2, 2) == rational(3, 8)
    assert legendre_weight(3, 1) == rational(3, 16)
    assert legendre_weight(0, 0) == 1
    assert legendre_weight(4, -2) == legendre_weight(4, 2)


def test_legendre_weight_parity_errors():
    with pytest.raises(ValueError):
        legendre_weight(2, 1)
    with pytest.raises(ValueError):
        legendre_weight(2, 4)


# -- assembly ---------------------------------------------------------------------


def test_f00_low_order():
    f = fourier_coefficient(Mode(0, 0), 2, 2)
    assert f == SeriesAE(
        {(0, 0): -1, (2, 0): rational(-1, 4), (2, 2): rational(-3, 8)}, 2, 2
    )


def test_f22_leading():
    assert fourier_coefficient(Mode(2, 2), 2, 0) == SeriesAE(
        {(2, 0): rational(-3, 4)}, 2, 0
    )


def test_f11_leading():
    assert fourier_coefficient(Mode(1, 1), 3, 0) == SeriesAE(
        {(3, 0): rational(-3, 8)}, 3, 0
    )


def test_invisible_mode_warns_and_is_zero(caplog):
    clear_fourier_cache()
    with caplog.at_level(logging.WARNING, logger="hansenatlas.fourier"):
        f = fourier_coefficient(Mode(1, 1), 2, 4)
    assert f.is_zero()
    assert any("invisible" in r.message for r in caplog.records)


def test_negative_m_rejected():
    with pytest.raises(ValueError):
        fourier_coefficient(Mode(-1, 2), 6, 6)


def test_m0_negative_k_folded():
    assert fourier_coefficient(Mode(0, -3), 8, 8) == fourier_coefficient(Mode(0, 3), 8, 8)


def test_support_parity_and_dalembert():
    for mode in (Mode(0, 0), Mode(0, 2), Mode(1, 3), Mode(2, 5), Mode(3, 4), Mode(4, 1)):
        f = fourier_coefficient(mode, 14, 14)
        lead_e = abs(mode.m - mode.k)
        min_e = min(q for (_, q) in f.c)
        for (n, q) in f.c:
            if (mode.m, mode.k) == (0, 0) and n == 0:
                continue
            assert n >= mode.m_star
            assert (n - mode.m) % 2 == 0
        assert min_e == lead_e
        assert (mode.m_star, lead_e) in f.c


def test_f00_a2_cross_check():
    # at e = 0 the a^2 coefficient of f_{0,0} is exactly -1/4
    f = fourier_coefficient(Mode(0, 0), 6, 0)
    assert f.coeff(2, 0) == rational(-1, 4)


def test_cache_slicing_consistency():
    full = fourier_coefficient(Mode(2, 3), 12, 12)
    small = fourier_coefficient(Mode(2, 3), 7, 5)
    assert small == full.truncate(7, 5)
    clear_fourier_cache()
    assert fourier_coefficient(Mode(2, 3), 12, 12) == full


# -- asymptotic coefficients --------------------------------------------------------


def test_tmk_values_and_cases():
    cases = {
        (2, 2): (rational(-3, 8), "A="),
        (0, 0): (rational(-1, 4), "B="),
        (2, 3): (rational(-3, 8), "A-"),
        (0, 1): (rational(1, 4), "B-"),
        (1, 4): (rational(7, 128), "B-"),
        (1, 0): (rational(15, 32), "B+"),
        (3, 2): (rational(45, 32), "A+"),
    }
    for (m, k), (value, label) in cases.items():
        got = t_mk(Mode(m, k))
        assert got.t_value == value, (m, k)
        assert got.case_label == label, (m, k)
        assert got.leading_e_power == abs(m - k)
        assert got.leading_a_power == Mode(m, k).m_star


def test_tmk_rejects_negative_m():
    with pytest.raises(ValueError):
        t_mk(Mode(-2, 1))


def test_asymptotic_consistency_examples():
    for (m, k) in [(2, 2), (0, 0), (1, 4)]:
        rep = asymptotic_consistency(Mode(m, k))
        assert rep.passed, (m, k, rep)
    rep = asymptotic_consistency(Mode(2, 2))
    assert rep.series_coefficient == rational(-3, 4)
    assert rep.expected == rational(-3, 4)


def test_asymptotic_consistency_order_guard():
    with pytest.raises(ValueError):
        asymptotic_consistency(Mode(2, 5), trunc_a=2, trunc_e=1)


def test_evaluation_symmetry_m0():
    f_pos = fourier_coefficient(Mode(0, 4), 10, 10)
    f_neg = fourier_coefficient(Mode(0, -4), 10, 10)
    assert f_pos == f_neg


# -- exports --------------------------------------------------------------------------


def test_coefficient_csv_layout():
    f = fourier_coefficient(Mode(0, 0), 2, 2)
    lines = coefficient_csv(f).splitlines()
    assert lines[0] == "a_exp\\e_exp,0,1,2"
    assert lines[1] == "0,-1,0,0"
    assert lines[3] == "2,-1/4,0,-3/8"


def test_coefficient_json_exact_strings():
    f = fourier_coefficient(Mode(2, 2), 2, 0)
    obj = coefficient_json_obj(Mode(2, 2), f)
    assert obj["terms"] == [{"a_exp": 2, "e_exp": 0, "value": "-3/4"}]


def test_order15_matrices_regenerate():
    # the five standard example modes at order 15 in a and e
    expectations = {
        (0, 0): ((0, 0), rational(-1)),
        (1, 0): ((3, 1), rational(15, 16)),   # -2 C_{3,1} X_0^{3,1} leading -5e/2
        (1, 1): ((3, 0), rational(-3, 8)),
        (2, 5): ((2, 3), None),
        (3, 4): ((3, 1), None),
    }
    for (m, k), ((n, q), value) in expectations.items():
        series = fourier_coefficient(Mode(m, k), 15, 15)
        assert not series.is_zero()
        assert (n, q) in series.c, (m, k)
        if value is not None:
            assert series.coeff(n, q) == value, (m, k)
        assert series.trunc_a == 15 and series.trunc_e == 15
        assert all(nn <= 15 and qq <= 15 for (nn, qq) in series.c)


def test_f00_below_visibility_keeps_constant(caplog):
    # the mode sum is empty below a-order 2, but f_{0,0} keeps its -1 term
    clear_fourier_cache()
    with caplog.at_level(logging.WARNING, logger="hansenatlas.fourier"):
        f = fourier_coefficient(Mode(0, 0), 1, 4)
    assert f == SeriesAE({(0, 0): -1}, 1, 4)
    assert any("invisible" in r.message for r in caplog.records)
