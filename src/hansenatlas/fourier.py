"""Fourier coefficients f_{m,k}(a,e) of the perturbing function and their
asymptotic leading coefficients t_{m,k}.

The assembly is
    f_{0,0} = -1 - sum_{n>=2, n even} C_{n,0} X_0^{n,0}(e) a^n,
    f_{m,k} = -2  sum_{n>=m*, n=m mod 2} C_{n,m} X_k^{n,m}(e) a^n   ((m,k) != (0,0)),
with the Legendre weight C_{n,m} = (m+n)!(n-m)! / (2^{2n} ((m+n)/2)!^2 ((n-m)/2)!^2)
and m* = m+2 for m in {0,1}, m otherwise.  Every assembled series therefore has
a-exponents n >= m* of the parity of m, each Hansen factor truncated at the
requested e-order.  Every mode, k = 0 and (0,0) included, takes its Hansen
factors from one walk of Wnuk's route and is assembled on integers.

The leading coefficient of e^{|m-k|} a^{m*} equals 2 t_{m,k} exactly, with
t_{m,k} given in closed form below (case A for m >= 2, case B for m in {0,1});
`asymptotic_consistency` checks that identity coefficient-against-coefficient.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exact import binomial_general
from .hansen import HansenKey, wnuk_scaled_column
from .series import SeriesAE

log = logging.getLogger("hansenatlas.fourier")


@dataclass(frozen=True, order=True)
class Mode:
    """A Fourier mode (m, k) of the angle combination m g + k l."""

    m: int
    k: int

    @property
    def in_g2(self) -> bool:
        """Coprime with strictly positive first non-null component."""
        m, k = self.m, self.k
        if m == 0 and k == 0:
            return False
        first = m if m != 0 else k
        return first > 0 and math.gcd(m, k) == 1

    @property
    def m_star(self) -> int:
        """Lowest a-exponent of f_{m,k}: m+2 for m in {0,1}, m otherwise."""
        return self.m + 2 if self.m in (0, 1) else self.m

    def multiple(self, j: int) -> "Mode":
        return Mode(j * self.m, j * self.k)

    def __str__(self) -> str:
        return f"({self.m},{self.k})"


def g2_modes(max_abs_sum: int) -> List[Mode]:
    """All modes of the coprime positive-first set with |m|+|k| <= max_abs_sum."""
    out = []
    for m in range(0, max_abs_sum + 1):
        k_lo = 1 if m == 0 else -(max_abs_sum - m)
        for k in range(k_lo, max_abs_sum - m + 1):
            mode = Mode(m, k)
            if mode.in_g2:
                out.append(mode)
    return sorted(out)


def legendre_weight(n: int, m: int) -> Fraction:
    """C_{n,m} for n >= 0, |m| <= n, n = m (mod 2); exact and positive."""
    if n < 0 or abs(m) > n or (n - m) % 2 != 0:
        raise ValueError(f"legendre_weight needs |m| <= n and n = m mod 2, got ({n},{m})")
    return Fraction(
        math.factorial(m + n) * math.factorial(n - m),
        (4**n) * math.factorial((m + n) // 2) ** 2 * math.factorial((n - m) // 2) ** 2,
    )


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

_FOURIER_CACHE: Dict[Tuple[int, int], Tuple[int, int, SeriesAE]] = {}


def _assemble(mode: Mode, trunc_a: int, trunc_e: int) -> SeriesAE:
    """f_{m,k} on integers over D = N! 2^(2 Na + N) (Na = trunc_a, N = trunc_e): one
    Wnuk walk gives every X_k^{n,m} as integers over N! 2^q, and C_{n,m} 4^n =
    C(n+m, (n+m)/2) C(n-m, (n-m)/2) is an integer; `SeriesAE` reduces once."""
    m, k = mode.m, mode.k
    ns = range(mode.m_star, trunc_a + 1, 2)
    # canonicalizing flips m and k alike for every n
    key = HansenKey(mode.m_star, m, k).canonical()
    den = math.factorial(trunc_e) << (2 * trunc_a + trunc_e)
    num = {(0, 0): -den} if (m, k) == (0, 0) else {}
    scale = -1 if (m, k) == (0, 0) else -2
    qs = range(abs(k - m), trunc_e + 1, 2)
    for n, xs in zip(ns, wnuk_scaled_column(ns, key.m, key.k, trunc_e)):
        weight = scale * math.comb(n + m, (n + m) // 2) * math.comb(n - m, (n - m) // 2)
        for q, x in zip(qs, xs):
            if x:
                num[(n, q)] = weight * x << (2 * (trunc_a - n) + trunc_e - q)
    return SeriesAE(num, trunc_a, trunc_e, den=den)


def fourier_coefficient(mode: Mode, trunc_a: int, trunc_e: int) -> SeriesAE:
    """Exact truncated f_{m,k}(a,e); requires m >= 0 and orders >= 0.

    Modes with m = 0 and k < 0 are folded onto f_{0,-k} = f_{0,k}.  When
    trunc_a < m* or trunc_e < |m-k| the mode is invisible at these orders: the
    series is identically zero and a warning is logged for each order that is
    too low; (0,0) keeps its -1 and logs nothing.  Each mode is cached once,
    assembled at the largest a-order and the largest e-order requested so far,
    and every request is served by truncation; `clear_fourier_cache()` empties
    the cache.
    """
    if mode.m < 0:
        raise ValueError(
            f"fourier_coefficient needs m >= 0, got {mode}: coprime-set representatives "
            "have a positive first non-null component (use f_{m,k} = f_{-m,-k})"
        )
    if trunc_a < 0 or trunc_e < 0:
        raise ValueError(f"truncation orders must be non-negative, got ({trunc_a}, {trunc_e})")
    if mode.m == 0 and mode.k < 0:
        mode = Mode(0, -mode.k)
    mk = (mode.m, mode.k)
    for var, trunc, needs in (("a", trunc_a, mode.m_star), ("e", trunc_e, abs(mode.m - mode.k))):
        if trunc < needs and mk != (0, 0):
            log.warning("mode %s invisible at %s-order %d (needs %d)", mode, var, trunc, needs)
    entry = _FOURIER_CACHE.get(mk, (-1, -1, None))
    if entry[0] < trunc_a or entry[1] < trunc_e:
        top_a, top_e = max(entry[0], trunc_a), max(entry[1], trunc_e)
        entry = _FOURIER_CACHE[mk] = (top_a, top_e, _assemble(mode, top_a, top_e))
    return entry[2].truncate(trunc_a, trunc_e)


def clear_fourier_cache() -> None:
    _FOURIER_CACHE.clear()


# ---------------------------------------------------------------------------
# Asymptotic leading coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticCoefficient:
    """Leading coefficient t of f_{m,k} ~ 2 t e^{|m-k|} a^{m*} (t a^2 for (0,0))."""

    mode: Mode
    t_value: Fraction
    case_label: str
    leading_e_power: int
    leading_a_power: int


def _t_case_a(m: int, k: int) -> Tuple[Fraction, str]:
    lead = Fraction(math.factorial(2 * m), (4**m) * math.factorial(m) ** 2)
    if k == m:
        return -lead, "A="
    if k > m:
        value = (
            -lead
            * Fraction(m * k ** (k - m), k * math.factorial(k - m))
            / 2 ** (k - m)
        )
        return value, "A-"
    acc = Fraction(0)
    for p in range(m - k + 1):
        acc += binomial_general(2 * m + 1, m - k - p) * Fraction(
            k**p, math.factorial(p)
        )
    sign = 1 if (k - m + 1) % 2 == 0 else -1
    return sign * lead * acc / 2 ** (m - k), "A+"


def _t_case_b(m: int, k: int) -> Tuple[Fraction, str]:
    lead = Fraction(
        math.factorial(2 * m + 2), 2 ** (2 * m + 3) * math.factorial(m + 1) ** 2
    )
    if k == m:
        return -lead, "B="
    if k > m:
        acc = Fraction(0)
        for q in range(max(0, k - m - 3), k - m + 1):
            term = binomial_general(3, k - m - q) * Fraction(k**q, math.factorial(q))
            acc += term if q % 2 == 0 else -term
        sign = 1 if (k - m) % 2 == 0 else -1
        return -sign * lead * acc / 2 ** (k - m), "B-"
    acc = Fraction(0)
    for p in range(m - k + 1):
        acc += binomial_general(2 * m + 3, m - k - p) * Fraction(
            k**p, math.factorial(p)
        )
    sign = 1 if (k - m + 1) % 2 == 0 else -1
    return sign * lead * acc / 2 ** (m - k), "B+"


def t_mk(mode: Mode) -> AsymptoticCoefficient:
    """Exact t_{m,k} with its case label; m >= 0.

    Case A applies for m >= 2 and case B for m in {0,1}; within each case the
    label records k > m (-), k < m (+) or k = m (=).  In case B with k > m the
    summation index is clamped at q = 0 (1/q! = 0 for q < 0).  A vanishing t
    would void the leading-order normal form, so it is reported loudly.
    """
    if mode.m < 0:
        raise ValueError(f"t_mk needs m >= 0, got {mode}")
    if mode.m >= 2:
        value, label = _t_case_a(mode.m, mode.k)
    else:
        value, label = _t_case_b(mode.m, mode.k)
    if value == 0:
        log.error("t_%s = 0: asymptotic leading order is void for this mode", mode)
    return AsymptoticCoefficient(
        mode=mode,
        t_value=value,
        case_label=label,
        leading_e_power=abs(mode.m - mode.k),
        leading_a_power=mode.m_star,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the series-vs-asymptotics identity for one mode."""

    mode: Mode
    series_coefficient: Fraction
    expected: Fraction
    passed: bool


def asymptotic_consistency(
    mode: Mode, trunc_a: Optional[int] = None, trunc_e: Optional[int] = None
) -> ConsistencyReport:
    """Check [e^{|m-k|} a^{m*}] f_{m,k} = 2 t_{m,k} exactly.

    For (0,0) the identity is that the a^2 e^0 coefficient of f_{0,0} + 1
    equals t_{0,0}.  Orders default to the smallest that expose the leading
    monomial.
    """
    t = t_mk(mode)
    na = t.leading_a_power if trunc_a is None else trunc_a
    ne = t.leading_e_power if trunc_e is None else trunc_e
    if na < t.leading_a_power or ne < t.leading_e_power:
        raise ValueError("orders too small to expose the leading monomial")
    series = fourier_coefficient(mode, na, ne)
    got = series.coeff(t.leading_a_power, t.leading_e_power)
    expected = t.t_value if (mode.m, mode.k) == (0, 0) else 2 * t.t_value
    return ConsistencyReport(mode, got, expected, got == expected)


# ---------------------------------------------------------------------------
# Matrix layout for stdout (rows = a-exponent, columns = e-exponent)
# ---------------------------------------------------------------------------


def coefficient_csv(series: SeriesAE) -> str:
    """Dense matrix of "num/den" strings, row n from 0..trunc_a, column q from 0..trunc_e."""
    columns = range(series.trunc_e + 1)
    lines = ["a_exp\\e_exp," + ",".join(str(q) for q in columns)]
    for n in range(series.trunc_a + 1):
        lines.append(f"{n}," + ",".join(str(series.coeff(n, q)) for q in columns))
    return "\n".join(lines) + "\n"
