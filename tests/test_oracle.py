"""Kepler geometry and the quadrature reference values."""
import math

import numpy as np
import pytest

from hansenatlas.atlas import PolyEval
from hansenatlas.fourier import Mode, fourier_coefficient
from hansenatlas.hansen import hansen_k0_negative, hansen_nmk
from hansenatlas.oracle import (
    DomainError,
    kepler_grid,
    oracle_F,
    oracle_fourier,
    oracle_hansen,
    solve_kepler,
)


# -- Kepler solver ---------------------------------------------------------


def test_perihelion():
    pt = solve_kepler(0.0, 0.5)
    assert pt.u == 0.0 and pt.f == 0.0
    assert pt.r_over_a == pytest.approx(0.5, abs=1e-15)


def test_aphelion():
    pt = solve_kepler(math.pi, 0.7)
    assert pt.u == pytest.approx(math.pi, abs=1e-14)
    assert pt.r_over_a == pytest.approx(1.7, abs=1e-14)
    assert abs(pt.f) == pytest.approx(math.pi, abs=1e-12)


def test_mid_anomaly():
    pt = solve_kepler(1.0, 0.3)
    assert pt.kepler_residual <= 1e-13
    assert pt.u == pytest.approx(1.2880913132, abs=1e-9)


def test_kepler_residual_battery():
    rng = np.random.default_rng(20240811)
    for _ in range(10000):
        ell = float(rng.uniform(-12.0, 12.0))
        e = float(rng.uniform(0.0, 0.95))
        assert solve_kepler(ell, e).kepler_residual <= 1e-13


def test_kepler_rejects_hyperbolic():
    with pytest.raises(DomainError):
        solve_kepler(0.3, 1.0)


def test_kepler_grid_consistency():
    ell, u, r = kepler_grid(0.4, 128)
    assert np.max(np.abs(u - 0.4 * np.sin(u) - ell)) <= 1e-13
    assert np.all((r >= 0.6 - 1e-15) & (r <= 1.4 + 1e-15))


# -- Hansen quadrature ------------------------------------------------------------


def test_oracle_hansen_trivial():
    assert oracle_hansen(0, 0, 0, 0.37) == pytest.approx(1.0, abs=1e-14)


def test_oracle_hansen_terminating_series():
    # X_0^{2,0} = 1 + 3 e^2 / 2 exactly
    assert oracle_hansen(2, 0, 0, 0.2) == pytest.approx(1.06, abs=1e-12)


def test_oracle_hansen_vs_series():
    value = oracle_hansen(1, 2, 4, 0.1)
    series = float(hansen_nmk(1, 2, 4, 40).eval_exact(0.1))
    assert value == pytest.approx(series, abs=1e-12)


@pytest.mark.parametrize(
    "n,m", [(1, 0), (0, 0), (0, 1), (0, 2), (2, 1), (3, 0), (5, 0), (4, 2), (2, 2)]
)
def test_negative_exponent_series_vs_quadrature(n, m):
    e = 0.2
    series = float(hansen_k0_negative(n, m, 40).eval_exact(e))
    value = oracle_hansen(-(n + 1), m, 0, e)
    assert series == pytest.approx(value, abs=1e-10)


# -- perturbing function ------------------------------------------------------------


def test_oracle_f_hand_value():
    assert oracle_F(0.1, 0.0, 0.0, 0.0) == pytest.approx(0.1 - 1.0 / 0.9, abs=1e-15)


def test_oracle_f_small_a_limit():
    assert oracle_F(1e-12, 0.0, 0.7, 1.3) == pytest.approx(-1.0, abs=1e-9)


def test_oracle_f_determinism():
    vals = {oracle_F(0.2, 0.1, math.pi / 3, 1.0) for _ in range(5)}
    assert len(vals) == 1


def test_oracle_f_domain_error():
    with pytest.raises(DomainError):
        oracle_F(0.6, 0.7, 0.0, 0.0)


# -- Fourier quadrature ----------------------------------------------------------------


def test_normalization_lock_at_small_point():
    # fixes the 1/(2 pi^2) and 1/(4 pi^2) constants against the exact series
    for (m, k) in [(0, 0), (2, 2)]:
        oracle = oracle_fourier(m, k, 0.05, 0.02, samples=256)
        series = PolyEval(fourier_coefficient(Mode(m, k), 20, 20)).at_point(0.05, 0.02)
        assert oracle == pytest.approx(series, abs=1e-12), (m, k)


def test_normalization_reproduces_at_random_small_points():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = float(rng.uniform(0.02, 0.12))
        e = float(rng.uniform(0.0, 0.1))
        m = int(rng.integers(0, 4))
        k = int(rng.integers(-3, 4))
        oracle = oracle_fourier(m, k, a, e, samples=256)
        series = PolyEval(fourier_coefficient(Mode(m, k), 24, 24)).at_point(a, e)
        assert oracle == pytest.approx(series, abs=1e-7), (m, k, a, e)


def test_oracle_fourier_examples():
    assert oracle_fourier(0, 0, 0.1, 0.0, 256) == pytest.approx(
        -1.0 - 0.25 * 0.01, abs=1e-4
    )
    # the leading monomial -3/4 a^2 misses the a^4 stratum (-2 C_{4,2} a^4 ~ -3.1e-5)
    assert oracle_fourier(2, 2, 0.1, 0.0, 256) == pytest.approx(-0.0075, abs=4e-5)
    series22 = PolyEval(fourier_coefficient(Mode(2, 2), 24, 24)).at_point(0.1, 0.0)
    assert oracle_fourier(2, 2, 0.1, 0.0, 256) == pytest.approx(series22, abs=1e-10)
    series = PolyEval(fourier_coefficient(Mode(1, 0), 20, 20)).at_point(0.1, 0.05)
    assert oracle_fourier(1, 0, 0.1, 0.05, 512) == pytest.approx(series, abs=1e-8)


def test_quadrature_sample_doubling_converged():
    a = oracle_fourier(2, 2, 0.1, 0.1, 256)
    b = oracle_fourier(2, 2, 0.1, 0.1, 512)
    assert abs(a - b) <= 1e-12


def test_oracle_fourier_domain_error():
    with pytest.raises(DomainError):
        oracle_fourier(1, 1, 0.9, 0.2, 64)
