"""Fourier-coefficient assembly, asymptotic coefficients, and their exact identity."""
import importlib
import logging
import math
from fractions import Fraction

import pytest

from hansenatlas import fourier
from hansenatlas.fourier import (
    Mode,
    asymptotic_consistency,
    clear_fourier_cache,
    coefficient_csv,
    fourier_coefficient,
    g2_modes,
    legendre_weight,
    t_mk,
)
from hansenatlas.hansen import HansenKey, hansen, hansen_wnuk_column
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
    assert legendre_weight(2, 0) == Fraction(1, 4)
    assert legendre_weight(2, 2) == Fraction(3, 8)
    assert legendre_weight(3, 1) == Fraction(3, 16)
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
        {(0, 0): -1, (2, 0): Fraction(-1, 4), (2, 2): Fraction(-3, 8)}, 2, 2
    )


def test_f22_leading():
    assert fourier_coefficient(Mode(2, 2), 2, 0) == SeriesAE(
        {(2, 0): Fraction(-3, 4)}, 2, 0
    )


def test_f11_leading():
    assert fourier_coefficient(Mode(1, 1), 3, 0) == SeriesAE(
        {(3, 0): Fraction(-3, 8)}, 3, 0
    )


def test_invisible_mode_warns_and_is_zero(caplog):
    clear_fourier_cache()
    with caplog.at_level(logging.WARNING, logger="hansenatlas.fourier"):
        f = fourier_coefficient(Mode(1, 1), 2, 4)
    assert f.is_zero()
    assert any("invisible" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "mode,messages",
    [
        # visible at a-order 5, but the lowest e-power is e^7
        (Mode(1, 8), ["mode (1,8) invisible at e-order 5 (needs 7)"]),
        (Mode(6, 0), ["mode (6,0) invisible at a-order 5 (needs 6)",
                      "mode (6,0) invisible at e-order 5 (needs 6)"]),
    ],
    ids=["e", "a-and-e"],
)
def test_invisible_mode_warns_once_per_order_too_low(caplog, mode, messages):
    clear_fourier_cache()
    with caplog.at_level(logging.WARNING, logger="hansenatlas.fourier"):
        f = fourier_coefficient(mode, 5, 5)
    assert f.is_zero()
    assert [r.getMessage() for r in caplog.records] == messages


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
    assert f.coeff(2, 0) == Fraction(-1, 4)


def test_cache_slicing_consistency():
    full = fourier_coefficient(Mode(2, 3), 12, 12)
    small = fourier_coefficient(Mode(2, 3), 7, 5)
    assert small == full.truncate(7, 5)
    clear_fourier_cache()
    assert fourier_coefficient(Mode(2, 3), 12, 12) == full


def test_cache_serves_crossed_orders(monkeypatch):
    from hansenatlas import fourier

    fresh = fourier._assemble
    assembled = []

    def counting(mode, trunc_a, trunc_e):
        assembled.append((trunc_a, trunc_e))
        return fresh(mode, trunc_a, trunc_e)

    monkeypatch.setattr(fourier, "_assemble", counting)
    clear_fourier_cache()
    mode = Mode(2, 3)
    for orders in [(12, 6), (6, 12), (12, 6), (6, 12)]:
        assert fourier_coefficient(mode, *orders) == fresh(mode, *orders)
    assert len(assembled) <= 2
    clear_fourier_cache()


def test_assemble_makes_one_column_call_per_mode(monkeypatch):
    hansen_module = importlib.import_module("hansenatlas.hansen")
    column = fourier.wnuk_scaled_column
    columns, others = [], []

    def counting_column(ns, m, k, trunc):
        columns.append((tuple(ns), m, k, trunc))
        return column(ns, m, k, trunc)

    def recording(name):
        fn = getattr(hansen_module, name)

        def wrapper(*args, **kwargs):
            others.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fourier, "wnuk_scaled_column", counting_column)
    for name in ("hansen", "hansen_k0_closed", "hansen_wnuk_column"):
        monkeypatch.setattr(hansen_module, name, recording(name))
    for j in (1, 2, 3):
        fourier._assemble(Mode(5 * j, -2 * j), 60, 60)
    # canonical keys X_{2j}^{n,-5j}: one column of n = 5j, 5j+2, ... per mode
    assert columns == [(tuple(range(5 * j, 61, 2)), -5 * j, 2 * j, 60) for j in (1, 2, 3)]
    columns.clear()
    # k = 0 takes the same single column, (0,0) included
    fourier._assemble(Mode(2, 0), 60, 60)
    fourier._assemble(Mode(0, 0), 60, 60)
    assert columns == [(tuple(range(2, 61, 2)), m, 0, 60) for m in (2, 0)]
    assert others == []
    assert not hasattr(fourier, "hansen")


def _assemble_reference(mode, trunc_a, trunc_e):
    """The `Fraction` assembly, the reference for `fourier._assemble`: the
    per-key k = 0 closed forms (`hansen`'s `k0` route) for k = 0, one Wnuk
    column otherwise, `legendre_weight` weights."""
    m, k = mode.m, mode.k
    mstar = mode.m_star
    terms = {}
    if (m, k) == (0, 0):
        terms[(0, 0)] = Fraction(-1)
        scale = -1
    else:
        scale = -2
    ns = range(mstar, trunc_a + 1, 2)
    key = HansenKey(mstar, m, k).canonical()
    if key.k:
        # one column for every n; canonicalizing flips m and k alike for every n
        column = hansen_wnuk_column(ns, key.m, key.k, trunc_e)
    else:
        column = [hansen(HansenKey(n, m, k), trunc_e, "k0") for n in ns]
    for n, x in zip(ns, column):
        weight = scale * legendre_weight(n, m)
        for q, v in x.c.items():
            terms[(n, q)] = weight * v
    return SeriesAE(terms, trunc_a, trunc_e)


REFERENCE_MODES = [Mode(0, 0), Mode(0, 1), Mode(1, 0), Mode(2, 0), Mode(3, 0)]
REFERENCE_MODES += [Mode(5 * j, -2 * j) for j in (1, 2, 3)]
REFERENCE_MODES += [Mode(3, 4), Mode(1, -7), Mode(2, -5)]


@pytest.mark.parametrize("orders", [(20, 20), (60, 60), (12, 30), (30, 12)], ids=str)
@pytest.mark.parametrize("mode", REFERENCE_MODES, ids=str)
def test_assemble_equals_fraction_reference(mode, orders):
    got, want = fourier._assemble(mode, *orders), _assemble_reference(mode, *orders)
    assert got == want
    assert got.c == want.c and all(type(v) is Fraction for v in got.c.values())


@pytest.mark.parametrize(
    "mode, orders", [(Mode(15, -6), (12, 20)), (Mode(0, 0), (1, 4)), (Mode(1, 1), (2, 4))], ids=str
)
def test_assemble_equals_fraction_reference_below_visibility(mode, orders):
    # a-order below m*: the mode sum is empty
    got = fourier._assemble(mode, *orders)
    assert got == _assemble_reference(mode, *orders)
    assert got.is_zero() == ((mode.m, mode.k) != (0, 0))


# -- asymptotic coefficients --------------------------------------------------------


def test_tmk_values_and_cases():
    cases = {
        (2, 2): (Fraction(-3, 8), "A="),
        (0, 0): (Fraction(-1, 4), "B="),
        (2, 3): (Fraction(-3, 8), "A-"),
        (0, 1): (Fraction(1, 4), "B-"),
        (1, 4): (Fraction(7, 128), "B-"),
        (1, 0): (Fraction(15, 32), "B+"),
        (3, 2): (Fraction(45, 32), "A+"),
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
    assert rep.series_coefficient == Fraction(-3, 4)
    assert rep.expected == Fraction(-3, 4)


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


def test_order15_matrices_regenerate():
    # the five standard example modes at order 15 in a and e
    expectations = {
        (0, 0): ((0, 0), Fraction(-1)),
        (1, 0): ((3, 1), Fraction(15, 16)),   # -2 C_{3,1} X_0^{3,1} leading -5e/2
        (1, 1): ((3, 0), Fraction(-3, 8)),
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
    # the mode sum is empty below a-order 2, but f_{0,0} keeps its -1 term, so
    # it is never invisible and nothing is logged
    clear_fourier_cache()
    with caplog.at_level(logging.WARNING, logger="hansenatlas.fourier"):
        assert fourier_coefficient(Mode(0, 0), 1, 1) == SeriesAE({(0, 0): -1}, 1, 1)
        assert fourier_coefficient(Mode(0, 0), 1, 4) == SeriesAE({(0, 0): -1}, 1, 4)
    assert caplog.records == []
