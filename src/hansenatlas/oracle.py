"""Series-free floating-point reference values.

Everything here works directly with the two-body geometry: Kepler's equation
l = u - e sin u, the radius r/a = 1 - e cos u, the true anomaly from
cos f = (cos u - e)/(1 - e cos u), sin f = sqrt(1-e^2) sin u/(1 - e cos u),
and the perturbing function

    F = r cos(f+g) - 1 / sqrt(1 + r^2 - 2 r cos(f+g)),      r = a (1 - e cos u).

Hansen coefficients are recovered from (1/2pi) int (r/a)^n cos(m f - k l) dl
and Fourier coefficients from the double angle average of F; the integrands
are analytic and 2pi-periodic, so the uniform trapezoid rule (an equal-weight
mean over the grid) converges geometrically.

The Fourier normalization (1/(2 pi^2) for (m,k) != (0,0), 1/(4 pi^2) for
(0,0)) is not taken on trust: tests pin it against the exact series at small
(a,e) before the oracle is used as a referee.
"""
from __future__ import annotations

import math

import numpy as np

KEPLER_TOL = 1e-13


class DomainError(ValueError):
    """Numerical-domain violation (e out of [0,1) or a(1+e) >= 1)."""


def _kepler(ell: np.ndarray, e: float) -> np.ndarray:
    """u with u - e sin u = ell elementwise: Newton from u0 = ell until every
    residual is at most KEPLER_TOL or 80 steps are taken, then bisection on
    [ell-e, ell+e], which brackets the root, for the points Newton left above
    it (it can diverge at high e)."""
    u = ell.copy()
    for _ in range(80):
        g = u - e * np.sin(u) - ell
        if np.max(np.abs(g)) <= KEPLER_TOL:
            return u
        u -= g / (1.0 - e * np.cos(u))
    stalled = ~(np.abs(u - e * np.sin(u) - ell) <= KEPLER_TOL)
    ell_s = ell[stalled]
    lo, hi = ell_s - e, ell_s + e
    glo = lo - e * np.sin(lo) - ell_s
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = mid - e * np.sin(mid) - ell_s
        if np.max(np.abs(gm)) <= KEPLER_TOL:
            break
        left = (gm < 0) == (glo < 0)
        lo = np.where(left, mid, lo)
        glo = np.where(left, gm, glo)
        hi = np.where(left, hi, mid)
    u[stalled] = mid
    return u


def kepler_grid(e: float, samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Kepler solve on the uniform mean-anomaly grid.

    Returns (ell, u, r_over_a) arrays of length `samples` over [0, 2pi).
    """
    if not 0.0 <= e < 1.0:
        raise DomainError(f"eccentricity must lie in [0,1), got {e}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    ell = np.arange(samples) * (2.0 * math.pi / samples)
    u = _kepler(ell, e)
    r_over_a = 1.0 - e * np.cos(u)
    return ell, u, r_over_a


def true_anomaly(u: np.ndarray, e: float) -> np.ndarray:
    r_over_a = 1.0 - e * np.cos(u)
    return np.arctan2(
        math.sqrt(1.0 - e * e) * np.sin(u) / r_over_a, (np.cos(u) - e) / r_over_a
    )


def oracle_hansen(n: int, m: int, k: int, e: float, samples: int = 4096) -> float:
    """(1/2pi) int_0^{2pi} (r/a)^n cos(m f - k l) dl by the periodic trapezoid rule."""
    ell, u, r_over_a = kepler_grid(e, samples)
    f = true_anomaly(u, e)
    integrand = r_over_a**n * np.cos(m * f - k * ell)
    return float(np.mean(integrand))


def perturbing_grid(a: float, e: float, samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F on the uniform (l, g) product grid; returns (ell, g, F[i_ell, j_g])."""
    if not 0.0 <= e < 1.0:
        raise DomainError(f"eccentricity must lie in [0,1), got {e}")
    if a * (1.0 + e) >= 1.0:
        raise DomainError(f"a(1+e) = {a*(1.0+e)} >= 1: outside the singularity-free region")
    ell, u, r_over_a = kepler_grid(e, samples)
    f = true_anomaly(u, e)
    g = np.arange(samples) * (2.0 * math.pi / samples)
    r = a * r_over_a
    phase = f[:, None] + g[None, :]
    cosp = np.cos(phase)
    rcol = r[:, None]
    F = rcol * cosp - 1.0 / np.sqrt(1.0 + rcol * rcol - 2.0 * rcol * cosp)
    return ell, g, F


def oracle_fourier(
    m: int, k: int, a: float, e: float, samples: int = 512
) -> float:
    """Trapezoid double average of F cos(m g + k l).

    Normalization: 1/(2 pi^2) for (m,k) != (0,0) and 1/(4 pi^2) for (0,0),
    i.e. 2x (resp. 1x) the plain double mean.
    """
    if m < 0:
        raise ValueError(f"oracle_fourier needs m >= 0, got {m}")
    ell, g, F = perturbing_grid(a, e, samples)
    weight = np.cos(m * g[None, :] + k * ell[:, None])
    mean = float(np.mean(F * weight))
    return mean if (m, k) == (0, 0) else 2.0 * mean
