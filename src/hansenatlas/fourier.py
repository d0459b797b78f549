"""Fourier coefficients f_{m,k}(a,e) of the perturbing function and their
asymptotic leading coefficients t_{m,k}.

The assembly is
    f_{0,0} = -1 - sum_{n>=2, n even} C_{n,0} X_0^{n,0}(e) a^n,
    f_{m,k} = -2  sum_{n>=m*, n=m mod 2} C_{n,m} X_k^{n,m}(e) a^n   ((m,k) != (0,0)),
with the Legendre weight C_{n,m} = (m+n)!(n-m)! / (2^{2n} ((m+n)/2)!^2 ((n-m)/2)!^2)
and m* = m+2 for m in {0,1}, m otherwise.  Every assembled series therefore has
a-exponents n >= m* of the parity of m, each Hansen factor truncated at the
requested e-order.

The leading coefficient of e^{|m-k|} a^{m*} equals 2 t_{m,k} exactly, with
t_{m,k} given in closed form below (case A for m >= 2, case B for m in {0,1});
`asymptotic_consistency` checks that identity coefficient-against-coefficient.
"""
from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .exact import Rational, binomial_general, rational, rational_str
from .hansen import HansenKey, hansen
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


def legendre_weight(n: int, m: int) -> Rational:
    """C_{n,m} for n >= 0, |m| <= n, n = m (mod 2); exact and positive."""
    if n < 0 or abs(m) > n or (n - m) % 2 != 0:
        raise ValueError(f"legendre_weight needs |m| <= n and n = m mod 2, got ({n},{m})")
    return rational(
        math.factorial(m + n) * math.factorial(n - m),
        (4**n) * math.factorial((m + n) // 2) ** 2 * math.factorial((n - m) // 2) ** 2,
    )


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

_FOURIER_CACHE: Dict[Tuple[int, int], Tuple[int, int, SeriesAE]] = {}
_FC_LOCK = threading.Lock()


def _assemble(mode: Mode, trunc_a: int, trunc_e: int) -> SeriesAE:
    m, k = mode.m, mode.k
    mstar = mode.m_star
    terms: Dict[Tuple[int, int], Rational] = {}
    if (m, k) == (0, 0):
        terms[(0, 0)] = rational(-1)
        scale = -1
    else:
        scale = -2
    for n in range(mstar, trunc_a + 1, 2):
        weight = scale * legendre_weight(n, m)
        x = hansen(HansenKey(n, m, k), trunc_e)
        for q, v in x.c.items():
            terms[(n, q)] = weight * v
    return SeriesAE(terms, trunc_a, trunc_e)


def fourier_coefficient(mode: Mode, trunc_a: int, trunc_e: int) -> SeriesAE:
    """Exact truncated f_{m,k}(a,e); requires m >= 0.

    Modes with m = 0 and k < 0 are folded onto f_{0,-k} = f_{0,k}.  When
    trunc_a < m* the mode is invisible at this order: the sum is empty (an
    identically-zero series unless (m,k) = (0,0), which keeps its -1) and a
    warning is logged.  Results are cached per mode at the largest orders
    assembled so far and lower orders are served by truncation;
    `clear_fourier_cache()` empties the cache.
    """
    if mode.m < 0:
        raise ValueError(
            f"fourier_coefficient needs m >= 0 (coprime-set convention), got {mode}"
        )
    if mode.m == 0 and mode.k < 0:
        mode = Mode(0, -mode.k)
    if trunc_a < mode.m_star:
        log.warning(
            "mode %s invisible at a-order %d (needs %d)", mode, trunc_a, mode.m_star
        )
    mk = (mode.m, mode.k)
    entry = _FOURIER_CACHE.get(mk)
    if entry is not None and entry[0] >= trunc_a and entry[1] >= trunc_e:
        return entry[2].truncate(trunc_a, trunc_e)
    series = _assemble(mode, trunc_a, trunc_e)
    with _FC_LOCK:
        entry = _FOURIER_CACHE.get(mk)
        if entry is None or (entry[0], entry[1]) < (trunc_a, trunc_e):
            _FOURIER_CACHE[mk] = (trunc_a, trunc_e, series)
    return series


def clear_fourier_cache() -> None:
    with _FC_LOCK:
        _FOURIER_CACHE.clear()


# ---------------------------------------------------------------------------
# Asymptotic leading coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticCoefficient:
    """Leading coefficient t of f_{m,k} ~ 2 t e^{|m-k|} a^{m*} (t a^2 for (0,0))."""

    mode: Mode
    t_value: Rational
    case_label: str
    leading_e_power: int
    leading_a_power: int


def _t_case_a(m: int, k: int) -> Tuple[Rational, str]:
    lead = rational(math.factorial(2 * m), (4**m) * math.factorial(m) ** 2)
    if k == m:
        return -lead, "A="
    if k > m:
        value = (
            -lead
            * rational(m * k ** (k - m), k * math.factorial(k - m))
            / 2 ** (k - m)
        )
        return value, "A-"
    acc = rational(0)
    for p in range(m - k + 1):
        acc += binomial_general(2 * m + 1, m - k - p) * rational(
            k**p, math.factorial(p)
        )
    sign = 1 if (k - m + 1) % 2 == 0 else -1
    return sign * lead * acc / 2 ** (m - k), "A+"


def _t_case_b(m: int, k: int) -> Tuple[Rational, str]:
    lead = rational(
        math.factorial(2 * m + 2), 2 ** (2 * m + 3) * math.factorial(m + 1) ** 2
    )
    if k == m:
        return -lead, "B="
    if k > m:
        acc = rational(0)
        for q in range(max(0, k - m - 3), k - m + 1):
            term = binomial_general(3, k - m - q) * rational(k**q, math.factorial(q))
            acc += term if q % 2 == 0 else -term
        sign = 1 if (k - m) % 2 == 0 else -1
        return -sign * lead * acc / 2 ** (k - m), "B-"
    acc = rational(0)
    for p in range(m - k + 1):
        acc += binomial_general(2 * m + 3, m - k - p) * rational(
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
    series_coefficient: Rational
    expected: Rational
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
# Matrix export (rows = a-exponent, columns = e-exponent)
# ---------------------------------------------------------------------------


def coefficient_rows(series: SeriesAE) -> List[List[str]]:
    """Dense matrix of "num/den" strings, row n from 0..trunc_a, column q from 0..trunc_e."""
    out = []
    for n in range(series.trunc_a + 1):
        out.append(
            [rational_str(series.coeff(n, q)) for q in range(series.trunc_e + 1)]
        )
    return out


def coefficient_csv(series: SeriesAE) -> str:
    lines = ["a_exp\\e_exp," + ",".join(str(q) for q in range(series.trunc_e + 1))]
    for n, row in enumerate(coefficient_rows(series)):
        lines.append(f"{n}," + ",".join(row))
    return "\n".join(lines) + "\n"


def coefficient_json_obj(mode: Mode, series: SeriesAE) -> dict:
    return {
        "mode": {"m": mode.m, "k": mode.k},
        "order_a": series.trunc_a,
        "order_e": series.trunc_e,
        "terms": [
            {"a_exp": n, "e_exp": q, "value": rational_str(v)}
            for (n, q), v in series.terms()
        ],
    }
