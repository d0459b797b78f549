"""Hansen coefficients X_k^{n,m}(e) as exact truncated series, by four routes.

The four routes are fully independent and must agree bit-exactly:

* a hypergeometric closed form for k = 0 (plus the negative-exponent family
  X_0^{-(n+1),m} and the recursions seeded from the closed form),
* diagonal sums of Newcomb operators,
* a Bessel-function expansion in beta = e/(1+sqrt(1-e^2)) (Wnuk's route,
  the default for bulk work with k != 0),
* a closed multiple-sum expansion in powers of e/2 (Balmino's route, valid
  for k - m >= 0; other keys are reached through the X_k^{n,m} = X_{-k}^{n,-m}
  symmetry).

`hansen()` computes every series afresh; there is no result cache.  The routes
keep their own memos (the Newcomb operator table and Wnuk's per-order
workspaces), which `clear_caches()` empties.  Everything here is pure, and the
memos tolerate concurrent recomputation (values are deterministic).
"""
from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .exact import (
    Rational,
    binomial_general,
    binomial_rational,
    pochhammer,
    rational,
)
from .series import SeriesE, bessel_j_series, beta_series, sqrt_one_minus_e2

log = logging.getLogger("hansenatlas.hansen")

METHODS = ("auto", "k0", "k0rec", "newcomb", "wnuk", "balmino")


@dataclass(frozen=True, order=True)
class HansenKey:
    """Index triple of X_k^{n,m}: radius exponent n, true-anomaly multiple m, mean-anomaly multiple k."""

    n: int
    m: int
    k: int

    def canonical(self) -> "HansenKey":
        """Representative under X_k^{n,m} = X_{-k}^{n,-m}: k > 0, or k = 0 and m >= 0."""
        if self.k < 0 or (self.k == 0 and self.m < 0):
            return HansenKey(self.n, -self.m, -self.k)
        return self


# ---------------------------------------------------------------------------
# k = 0: closed forms and recursions
# ---------------------------------------------------------------------------


def hansen_k0_closed(n: int, m: int, trunc: int) -> SeriesE:
    """X_0^{n,m} = (-e/2)^m C(n+m+1, m) F((m-n-1)/2, (m-n)/2; m+1; e^2), n >= 0.

    The hypergeometric factor is expanded term by term in e^2; X_0^{n,-m} = X_0^{n,m}.
    """
    if n < 0:
        raise ValueError(f"closed form requires n >= 0, got {n}")
    m = abs(m)
    if m > trunc:
        return SeriesE.zero(trunc)
    alpha = rational(m - n - 1, 2)
    beta = rational(m - n, 2)
    gamma = m + 1
    lead = rational((-1) ** m * binomial_general(n + m + 1, m), 2**m)
    coeffs: Dict[int, Rational] = {}
    for s in range((trunc - m) // 2 + 1):
        c = (
            pochhammer(alpha, s)
            * pochhammer(beta, s)
            / (pochhammer(gamma, s) * math.factorial(s))
        )
        if c != 0:
            coeffs[m + 2 * s] = lead * c
    return SeriesE(coeffs, trunc)


def hansen_k0_recursive(n: int, m: int, trunc: int) -> SeriesE:
    """X_0^{n,m} through the ascending recursions, seeded from the closed form.

    Seeds X_0^{0,mu} and X_0^{1,mu} for mu in {0,1} come from the closed form;
    the n-recursion
        X_0^{n+1,m} = (2n+3)/(n+2) X_0^{n,m}
                      - (n+1-m)(n+1+m)/((n+1)(n+2)) (1-e^2) X_0^{n-1,m}
    ascends to the target n, and the m-recursion
        e X_0^{n,mu+1} = (e (n+mu+1) X_0^{n,mu-1} + 2 mu X_0^{n,mu}) / (n-mu+1)
    ascends to the target m (the left side divides by e exactly).  A step with
    n - mu + 1 = 0 falls back to the closed form and is logged.
    """
    if n < 0 or m < 0:
        raise ValueError("recursive route requires n >= 0 and m >= 0")
    guard = trunc + m + 2
    one_minus_e2 = sqrt_one_minus_e2(guard, p=2)

    def ascend_n(target_n: int, mu: int) -> SeriesE:
        prev = hansen_k0_closed(0, mu, guard)
        if target_n == 0:
            return prev
        cur = hansen_k0_closed(1, mu, guard)
        for nn in range(1, target_n):
            nxt = cur.scaled(rational(2 * nn + 3, nn + 2)) - (
                one_minus_e2 * prev
            ).scaled(rational((nn + 1 - mu) * (nn + 1 + mu), (nn + 1) * (nn + 2)))
            prev, cur = cur, nxt
        return cur

    if m <= 1:
        return ascend_n(n, m).truncate(trunc)
    two_back = ascend_n(n, 0)
    one_back = ascend_n(n, 1)
    for mu in range(1, m):
        if n - mu + 1 == 0:
            log.warning(
                "m-recursion for X_0^{%d,%d} hits n-m+1=0; closed form fallback",
                n,
                mu + 1,
            )
            nxt = hansen_k0_closed(n, mu + 1, guard)
        else:
            rhs = two_back.shifted(1).scaled(n + mu + 1) + one_back.scaled(2 * mu)
            nxt = rhs.scaled(rational(1, n - mu + 1)).divided_by_e()
        two_back, one_back = one_back, nxt
    return one_back.truncate(trunc)


def hansen_k0_negative(n: int, m: int, trunc: int) -> SeriesE:
    """X_0^{-(n+1),m} for n >= 0, 0 <= m.

    For n >= 1:
        (1-e^2)^{-(2n-1)/2} sum_{j=0}^{[(n-m-1)/2]} C(n-1, 2j+m) C(2j+m, j) (e/2)^{2j+m},
    an exactly-zero series when m > n-1.  For n = 0 the radius power is a/r and
    X_0^{-1,m} = (-beta)^m with beta = e/(1+sqrt(1-e^2)), in particular 1 for m = 0.
    Validated against the quadrature oracle only.
    """
    if n < 0 or m < 0:
        raise ValueError("negative-exponent route requires n >= 0 and m >= 0")
    if n == 0:
        b = beta_series(trunc).pow_int(m) if m else SeriesE.one(trunc)
        return b if m % 2 == 0 else -b
    top = (n - m - 1) // 2
    if top < 0:
        return SeriesE.zero(trunc)
    coeffs: Dict[int, Rational] = {}
    for j in range(top + 1):
        q = 2 * j + m
        if q > trunc:
            break
        c = binomial_general(n - 1, q) * binomial_general(q, j)
        if c:
            coeffs[q] = rational(c, 2**q)
    poly = SeriesE(coeffs, trunc)
    return sqrt_one_minus_e2(trunc, p=-(2 * n - 1)) * poly


# ---------------------------------------------------------------------------
# Newcomb operators
# ---------------------------------------------------------------------------

_CHI_CACHE: Dict[int, Rational] = {}


def _chi(j: int) -> Rational:
    """(-1)^j C(3/2, j), the tail weights of the sigma-recursion."""
    v = _CHI_CACHE.get(j)
    if v is None:
        v = binomial_rational(rational(3, 2), j)
        if j % 2:
            v = -v
        _CHI_CACHE[j] = v
    return v


class NewcombTable:
    """Memoized Newcomb operators X_{rho,sigma}^{n,m}.

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
        self.values: Dict[Tuple[int, int, int, int], Rational] = {}

    def value(self, n: int, m: int, rho: int, sigma: int) -> Rational:
        if rho < 0 or sigma < 0:
            return rational(0)
        key = (n, m, rho, sigma)
        v = self.values.get(key)
        if v is not None:
            return v
        if rho == 0 and sigma == 0:
            v = rational(1)
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
                tail = rational(0)
                for j in range(2, min(rho, sigma) + 1):
                    term = self.value(n, m, rho - j, sigma - j)
                    if term:
                        tail += _chi(j) * term
                acc += factor * tail
            v = acc / (4 * sigma)
        self.values[key] = v
        return v


_NEWCOMB = NewcombTable()


def hansen_newcomb(n: int, m: int, k: int, trunc: int) -> SeriesE:
    """X_k^{n,m} = sum over rho - sigma = k - m of X_{rho,sigma}^{n,m} e^{rho+sigma}."""
    d = k - m
    coeffs: Dict[int, Rational] = {}
    for q in range(abs(d), trunc + 1, 2):
        rho = (q + d) // 2
        sigma = (q - d) // 2
        v = _NEWCOMB.value(n, m, rho, sigma)
        if v != 0:
            coeffs[q] = v
    return SeriesE(coeffs, trunc, _raw=True)


# ---------------------------------------------------------------------------
# Wnuk's route (Bessel functions of k e and powers of beta)
# ---------------------------------------------------------------------------
#
# Internals use dense half-index lists: (lo, [c_0, c_1, ...]) stands for
# sum_i c_i e^{lo+2i}.  Every quantity in this route has fixed parity
# (beta^j, J_t(ke), the E-factors and the result itself), which makes the
# dense representation both compact and fast.


def _dmul(a: List, b: List, length: int) -> List:
    out = [0] * length
    for i, ca in enumerate(a):
        if not ca or i >= length:
            continue
        jmax = min(len(b), length - i)
        for j in range(jmax):
            cb = b[j]
            if cb:
                out[i + j] += ca * cb
    return out


def _dinv(a: List, length: int) -> List:
    inv0 = 1 / a[0]
    out = [inv0] + [0] * (length - 1)
    for i in range(1, length):
        s = 0
        for j in range(1, min(i, len(a) - 1) + 1):
            aj = a[j]
            if aj:
                s += aj * out[i - j]
        out[i] = -inv0 * s if s else 0
    return out


class _WnukWorkspace:
    """Shared per-order scratch: powers of beta, of (1+beta^2)^{-1}, Bessel series."""

    def __init__(self, trunc: int) -> None:
        self.trunc = trunc
        half = trunc // 2 + 1
        beta = beta_series(trunc)
        b1 = [beta.coeff(1 + 2 * i) for i in range((trunc - 1) // 2 + 1)] if trunc >= 1 else []
        pows: List[List] = [[rational(1)] + [0] * (half - 1), b1]
        for j in range(2, trunc + 1):
            length = (trunc - j) // 2 + 1
            pows.append(_dmul(pows[j - 1], b1, length))
        self.beta_pows = pows
        one_plus_b2 = [rational(1)] + [0] * (half - 1)
        if trunc >= 2:
            b2 = pows[2]
            for i, v in enumerate(b2):
                if v:
                    one_plus_b2[i + 1] += v
        self._base = one_plus_b2
        self._inv = _dinv(one_plus_b2, half)
        self._pow_cache: Dict[int, List] = {0: [rational(1)] + [0] * (half - 1)}
        self._bessel: Dict[Tuple[int, int], List] = {}

    def one_plus_beta2_pow(self, p: int) -> List:
        """(1 + beta^2)^p as an even dense list."""
        v = self._pow_cache.get(p)
        if v is None:
            half = self.trunc // 2 + 1
            step = self._base if p > 0 else self._inv
            prev = self.one_plus_beta2_pow(p - 1 if p > 0 else p + 1)
            v = _dmul(prev, step, half)
            self._pow_cache[p] = v
        return v

    def bessel(self, t: int, k: int) -> Tuple[int, List]:
        """J_t(k e) with t >= 0 as (lo, dense list over (q - t)/2)."""
        key = (t, k)
        v = self._bessel.get(key)
        if v is None:
            series = bessel_j_series(t, k, self.trunc)
            length = (self.trunc - t) // 2 + 1 if self.trunc >= t else 0
            v = [0] * length
            for q, c in series.c.items():
                v[(q - t) // 2] = c
            while v and not v[-1]:
                v.pop()
            self._bessel[key] = v
        return t, v


_WNUK_WORKSPACES: Dict[int, _WnukWorkspace] = {}
_WS_LOCK = threading.Lock()


def _workspace(trunc: int) -> _WnukWorkspace:
    ws = _WNUK_WORKSPACES.get(trunc)
    if ws is None:
        with _WS_LOCK:
            ws = _WNUK_WORKSPACES.get(trunc)
            if ws is None:
                ws = _WnukWorkspace(trunc)
                _WNUK_WORKSPACES[trunc] = ws
    return ws


def _wnuk_e_factor(ws: _WnukWorkspace, n: int, m: int, d: int) -> List:
    """E_d^{n,m} as a dense list with lo = |d|.

    E_d = (-beta)^{d} sum_s C(n-m+1, d+s) C(n+m+1, s) beta^{2s}        (d >= 0)
        = (-beta)^{-d} sum_s C(n+m+1, -d+s) C(n-m+1, s) beta^{2s}      (d < 0)
    """
    ad = abs(d)
    trunc = ws.trunc
    if ad > trunc:
        return []
    length = (trunc - ad) // 2 + 1
    out: List = [0] * length
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
        bp = beta_pows[ad + 2 * s]
        top = min(len(bp), length - s)
        for i in range(top):
            v = bp[i]
            if v:
                out[s + i] += c * v
    return out


def hansen_wnuk(n: int, m: int, k: int, trunc: int) -> SeriesE:
    """X_k^{n,m} = (1+beta^2)^{-(n+1)} sum_t E_{k-t-m}^{n,m} J_t(k e)."""
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
    acc: List = [0] * acc_len
    for t in t_values:
        d = d0 - t
        order0 = abs(d) + abs(t)
        if order0 > trunc:
            continue
        jt_lo, jt = ws.bessel(abs(t), k) if t >= 0 else ws.bessel(-t, k)
        if not jt:
            continue
        neg_t = t < 0 and t % 2 != 0
        e_fac = _wnuk_e_factor(ws, n, m, d)
        if not e_fac:
            continue
        length = (trunc - order0) // 2 + 1
        prod = _dmul(e_fac, jt, length)
        offset = (order0 - ad0) // 2
        for i, v in enumerate(prod):
            if v:
                acc[offset + i] += -v if neg_t else v
    power = ws.one_plus_beta2_pow(-(n + 1))
    result = _dmul(acc, power, acc_len)
    coeffs = {ad0 + 2 * i: v for i, v in enumerate(result) if v}
    return SeriesE(coeffs, trunc, _raw=True)


# ---------------------------------------------------------------------------
# Balmino's route (multiple sum in powers of e/2, for s = k - m >= 0)
# ---------------------------------------------------------------------------


def hansen_balmino(n: int, m: int, k: int, trunc: int) -> SeriesE:
    """X_{m+s}^{n,m} for s = k-m >= 0 by the closed multiple sum.

    X = (-1)^s (e/2)^s sum_t { sum_{j<=t} sum_{p<=j} C(n+m+1, j-p) k^p/p!
        sum_{q<=s+j} C(n-m+1, s+j-q) (-1)^q k^q/q!
        [ 2 C(2t-n+s-p-q-2, t-j) - C(2t-n+s-p-q-1, t-j) ] } (e/2)^{2t},
    negative upper binomial indices following the signed convention.  Keys with
    s < 0 are served through X_k^{n,m} = X_{-k}^{n,-m}.
    """
    s = k - m
    if s < 0:
        return hansen_balmino(n, -m, -k, trunc)
    if s > trunc:
        return SeriesE.zero(trunc)
    kp = [rational(k**p, math.factorial(p)) for p in range(s + trunc + 2)]
    sign_s = 1 if s % 2 == 0 else -1
    coeffs: Dict[int, Rational] = {}
    for t in range((trunc - s) // 2 + 1):
        total = rational(0)
        for j in range(t + 1):
            for p in range(j + 1):
                b1 = binomial_general(n + m + 1, j - p)
                if not b1:
                    continue
                outer = b1 * kp[p]
                if outer == 0:
                    continue
                inner = rational(0)
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


# ---------------------------------------------------------------------------
# Dispatcher, tables
# ---------------------------------------------------------------------------


def hansen(key: HansenKey, trunc: int, method: str = "auto") -> SeriesE:
    """Dispatch on method with the key canonicalized; every call computes afresh.

    `auto` runs `k0` for k = 0 and Wnuk's route otherwise.  `k0` is the closed
    form for n >= 0 and the negative-exponent form for n < 0; `k0rec` is the
    k = 0 recursion.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    ck = key.canonical()
    if method == "auto":
        method = "k0" if ck.k == 0 else "wnuk"
    if method in ("k0", "k0rec"):
        if ck.k != 0:
            raise ValueError(f"method {method!r} needs k = 0, got key {key}")
        if method == "k0rec":
            return hansen_k0_recursive(ck.n, ck.m, trunc)
        if ck.n >= 0:
            return hansen_k0_closed(ck.n, ck.m, trunc)
        return hansen_k0_negative(-ck.n - 1, abs(ck.m), trunc)
    if method == "newcomb":
        return hansen_newcomb(ck.n, ck.m, ck.k, trunc)
    if method == "wnuk":
        return hansen_wnuk(ck.n, ck.m, ck.k, trunc)
    return hansen_balmino(ck.n, ck.m, ck.k, trunc)


def hansen_nmk(n: int, m: int, k: int, trunc: int, method: str = "auto") -> SeriesE:
    return hansen(HansenKey(n, m, k), trunc, method)


def clear_caches() -> None:
    """Empty the route memos, so the next call of each route starts cold."""
    with _WS_LOCK:
        _WNUK_WORKSPACES.clear()
    _NEWCOMB.values.clear()


def hansen_table(
    n_values: List[int],
    m_values: List[int],
    k: int,
    trunc: int,
    method: str = "auto",
    fmt: str = "text",
) -> str:
    """Rows n, columns m table of X_k^{n,m} at one truncation order.

    `fmt` is "text" (aligned columns) or "csv"; coefficients stay exact.
    """
    header = ["n"] + [f"X^(n,{m})_{k}" for m in m_values]
    rows = [
        [str(n)]
        + [hansen(HansenKey(n, m, k), trunc, method).pretty() for m in m_values]
        for n in n_values
    ]
    if fmt == "csv":
        import csv as _csv
        import io as _io

        buf = _io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in [header] + rows
    ]
    return "\n".join(lines) + "\n"
