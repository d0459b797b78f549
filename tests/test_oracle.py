"""Kepler geometry and the quadrature reference values."""
import math

import numpy as np
import pytest

from hansenatlas.atlas import PolyEval
from hansenatlas.fourier import Mode, fourier_coefficient
from hansenatlas.hansen import HansenKey, hansen, hansen_k0_negative
from hansenatlas.oracle import (
    DomainError,
    _kepler,
    kepler_grid,
    oracle_fourier,
    oracle_hansen,
    perturbing_grid,
    true_anomaly,
)


# -- Kepler solver ---------------------------------------------------------


def test_perihelion():
    ell, u, r = kepler_grid(0.5, 64)
    assert ell[0] == 0.0 and u[0] == 0.0 and true_anomaly(u, 0.5)[0] == 0.0
    assert r[0] == pytest.approx(0.5, abs=1e-15)


def test_aphelion():
    # index samples/2 is l = pi exactly for a power-of-two sample count
    ell, u, r = kepler_grid(0.7, 64)
    assert ell[32] == math.pi
    assert u[32] == pytest.approx(math.pi, abs=1e-14)
    assert r[32] == pytest.approx(1.7, abs=1e-14)
    assert abs(true_anomaly(u, 0.7)[32]) == pytest.approx(math.pi, abs=1e-12)


def test_mid_anomaly():
    u = float(_kepler(np.array([1.0]), 0.3)[0])
    assert abs(u - 0.3 * math.sin(u) - 1.0) <= 1e-13
    assert u == pytest.approx(1.2880913132, abs=1e-9)


def test_kepler_residual_battery():
    # 10,240 points: 40 random eccentricities e <= 0.95 on a 256-point grid each
    rng = np.random.default_rng(20240811)
    for e in rng.uniform(0.0, 0.95, 40):
        ell, u, _ = kepler_grid(float(e), 256)
        assert np.max(np.abs(u - e * np.sin(u) - ell)) <= 1e-13, e


def test_kepler_rejects_hyperbolic():
    with pytest.raises(DomainError):
        kepler_grid(1.0, 8)


@pytest.mark.parametrize("e", [0.99, 0.999])
def test_kepler_grid_converges_at_high_eccentricity(e):
    # Newton from u0 = ell diverges at some of these points; bisection finishes them
    ell, u, _ = kepler_grid(e, 4096)
    assert np.max(np.abs(u - e * np.sin(u) - ell)) <= 1e-13


def test_kepler_grid_rejects_no_samples():
    with pytest.raises(ValueError, match="samples"):
        kepler_grid(0.5, 0)


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
    series = float(hansen(HansenKey(1, 2, 4), 40).eval_exact(0.1))
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
    # at e = 0 the grid starts at l = g = 0, where F = a - 1/(1-a)
    _, _, F = perturbing_grid(0.1, 0.0, 16)
    assert F[0, 0] == pytest.approx(0.1 - 1.0 / 0.9, abs=1e-15)


def test_oracle_f_small_a_limit():
    _, _, F = perturbing_grid(1e-12, 0.0, 16)
    assert np.max(np.abs(F + 1.0)) <= 1e-9


def test_oracle_f_determinism():
    grids = {perturbing_grid(0.2, 0.1, 32)[2].tobytes() for _ in range(5)}
    assert len(grids) == 1


def test_oracle_f_domain_error():
    with pytest.raises(DomainError):
        perturbing_grid(0.6, 0.7, 8)


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
