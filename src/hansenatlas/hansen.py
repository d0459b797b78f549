"""Hansen coefficients X_k^{n,m}(e) as exact truncated series, by four routes.

The four routes are fully independent and must agree bit-exactly; `hansen()`
and `METHODS` name them:

* `wnuk`, the default for every key: a Bessel-function expansion in
  beta = e/(1+sqrt(1-e^2)) (Wnuk's route), computed a column at a time:
  `wnuk_scaled_column` returns X_k^{n,m} for many n at fixed (m, k) from one
  walk of a three-term recursion in n, as integers over trunc! 2^q;
  `hansen_wnuk_column` is its `Fraction` form, `hansen_wnuk` the one-n form,
  and `fourier` assembles every mode from it,
* `k0`, for k = 0 only: a hypergeometric closed form for n >= 0, with the
  negative-exponent form X_0^{-(n+1),m} for n < 0, kept as a cross-check,
* `newcomb`: diagonal sums of Newcomb operators,
* `balmino`: a closed multiple-sum expansion in powers of e/2 (Balmino's
  route, valid for k - m >= 0; other keys are reached through the
  X_k^{n,m} = X_{-k}^{n,-m} symmetry).

`hansen()` computes every series afresh; there is no result cache.  The routes
keep their own memos (the Newcomb operator table with its tail weights and
Wnuk's per-order workspaces), which `clear_caches()` empties.  Every function
here is pure apart from those memos; the package runs in one thread per
process.  Newcomb's, Wnuk's and Balmino's routes compute on Python ints over
common denominators and build each `Fraction` coefficient once.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .exact import binomial_general, pochhammer
from .series import SeriesE, sqrt_one_minus_e2

METHODS = ("k0", "newcomb", "wnuk", "balmino")


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
# k = 0: the closed form and the negative-exponent form
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
    alpha = Fraction(m - n - 1, 2)
    beta = Fraction(m - n, 2)
    gamma = m + 1
    lead = Fraction((-1) ** m * binomial_general(n + m + 1, m), 2**m)
    coeffs: Dict[int, Fraction] = {}
    for s in range((trunc - m) // 2 + 1):
        c = (
            pochhammer(alpha, s)
            * pochhammer(beta, s)
            / (pochhammer(gamma, s) * math.factorial(s))
        )
        if c != 0:
            coeffs[m + 2 * s] = lead * c
    return SeriesE(coeffs, trunc)


def hansen_k0_negative(n: int, m: int, trunc: int) -> SeriesE:
    """X_0^{-(n+1),m} for n >= 0, 0 <= m.

    For n >= 1:
        (1-e^2)^{-(2n-1)/2} sum_{j=0}^{[(n-m-1)/2]} C(n-1, 2j+m) C(2j+m, j) (e/2)^{2j+m},
    an exactly-zero series when m > n-1.  For n = 0 the radius power is a/r and
    X_0^{-1,m} = (-beta)^m with beta = e/(1+sqrt(1-e^2)), in particular 1 for m = 0;
    its powers come from Wnuk's workspace, beta^m = sum_i P_i (e/2)^{m+2i} with
    integer P_i.  Agrees bit for bit with Newcomb's, Wnuk's and Balmino's routes.
    """
    if n < 0 or m < 0:
        raise ValueError("negative-exponent route requires n >= 0 and m >= 0")
    if n == 0:
        if m > trunc:
            return SeriesE.zero(trunc)
        sign = -1 if m % 2 else 1
        coeffs = {
            m + 2 * i: Fraction(sign * p, 1 << (m + 2 * i))
            for i, p in enumerate(_workspace(trunc).beta_pows[m])
            if p
        }
        return SeriesE(coeffs, trunc, _raw=True)
    top = (n - m - 1) // 2
    if top < 0:
        return SeriesE.zero(trunc)
    coeffs: Dict[int, Fraction] = {}
    for j in range(top + 1):
        q = 2 * j + m
        if q > trunc:
            break
        c = binomial_general(n - 1, q) * binomial_general(q, j)
        if c:
            coeffs[q] = Fraction(c, 2**q)
    poly = SeriesE(coeffs, trunc)
    return sqrt_one_minus_e2(trunc, p=-(2 * n - 1)) * poly


# ---------------------------------------------------------------------------
# Newcomb operators
# ---------------------------------------------------------------------------

_CHI_CACHE: Dict[Tuple[int, int], List[int]] = {}


def _tail_weights(rho: int, sigma: int) -> List[int]:
    """w_j for j = 2..min(rho, sigma), the integer tail weights of the sigma-recursion."""
    w = _CHI_CACHE.get((rho, sigma))
    if w is None:
        w, c = [], -6  # c = (-1)^j prod_{i<j} (3-2i) 2^(3j-2), from j = 1
        for j in range(2, min(rho, sigma) + 1):
            c *= 8 * (2 * j - 5)
            w.append(c * math.comb(rho, j) * math.perm(sigma - 1, j - 1))
        _CHI_CACHE[(rho, sigma)] = w
    return w


class NewcombTable:
    """Memoized Newcomb operators X_{rho,sigma}^{n,m}, held as the integers
    Y_{rho,sigma}^{n,m} = 4^(rho+sigma) rho! sigma! X_{rho,sigma}^{n,m}.

    Seeds: Y_{0,0}^{n,m} = 1 and zero whenever rho or sigma is negative.  With
    the superscript n left implicit, for sigma = 0
        Y_{rho,0}^m = 2(2m-n) Y_{rho-1,0}^{m+1} + 4(rho-1)(m-n) Y_{rho-2,0}^{m+2},
    and for sigma != 0
        Y_{rho,sigma}^m = -2(2m+n) Y_{rho,sigma-1}^{m-1} - 4(sigma-1)(m+n) Y_{rho,sigma-2}^{m-2}
            - 4 rho (rho - 5 sigma + 4 + 4m + n) Y_{rho-1,sigma-1}^m
            + 2(rho - sigma + m) sum_{j>=2} w_j Y_{rho-j,sigma-j}^m.
    These are Newcomb's recursions for 4 rho X_{rho,0} and 4 sigma X_{rho,sigma}
    times 4^(rho+sigma-1) (rho-1)! and 4^(rho+sigma-1) rho! (sigma-1)!.  Their
    tail weight is chi_j = (-1)^j C(3/2, j) = (-1)^j prod_{i<j} (3-2i) / (2^j j!), so
        w_j = chi_j 4^(2j-1) rho!/(rho-j)! (sigma-1)!/(sigma-j)!
            = (-1)^j prod_{i<j} (3-2i) 2^(3j-2) C(rho, j) (sigma-1)!/(sigma-j)!
    is an integer.  `values` memoizes Y; `value` returns X.
    """

    def __init__(self) -> None:
        self.values: Dict[Tuple[int, int, int, int], int] = {}

    def scaled(self, n: int, m: int, rho: int, sigma: int) -> int:
        """Y_{rho,sigma}^{n,m} = 4^(rho+sigma) rho! sigma! X_{rho,sigma}^{n,m}."""
        if rho < 0 or sigma < 0:
            return 0
        key = (n, m, rho, sigma)
        v = self.values.get(key)
        if v is not None:
            return v
        y = self.scaled
        if sigma == 0:
            v = 1 if rho == 0 else (
                2 * (2 * m - n) * y(n, m + 1, rho - 1, 0)
                + 4 * (rho - 1) * (m - n) * y(n, m + 2, rho - 2, 0)
            )
        else:
            v = (
                -2 * (2 * m + n) * y(n, m - 1, rho, sigma - 1)
                - 4 * (sigma - 1) * (m + n) * y(n, m - 2, rho, sigma - 2)
                - 4 * rho * (rho - 5 * sigma + 4 + 4 * m + n) * y(n, m, rho - 1, sigma - 1)
            )
            factor = 2 * (rho - sigma + m)
            if factor:
                v += factor * sum(
                    w * y(n, m, rho - j, sigma - j)
                    for j, w in enumerate(_tail_weights(rho, sigma), 2)
                )
        self.values[key] = v
        return v

    def value(self, n: int, m: int, rho: int, sigma: int) -> Fraction:
        """The Newcomb operator X_{rho,sigma}^{n,m}."""
        if rho < 0 or sigma < 0:
            return Fraction(0)
        scale = math.factorial(rho) * math.factorial(sigma) << 2 * (rho + sigma)
        return Fraction(self.scaled(n, m, rho, sigma), scale)


_NEWCOMB = NewcombTable()


def hansen_newcomb(n: int, m: int, k: int, trunc: int) -> SeriesE:
    """X_k^{n,m} = sum over rho - sigma = k - m of X_{rho,sigma}^{n,m} e^{rho+sigma}."""
    d = k - m
    coeffs: Dict[int, Fraction] = {}
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
# Wnuk's expansion is
#     X_k^{n,m} = (1+beta^2)^{-(n+1)} [z^{k-m}] (1-beta z)^{n-m+1} (1-beta/z)^{n+m+1} J(z),
# with J(z) = sum_t J_t(k e) z^t.  Since u = e/2 = beta/(1+beta^2),
# (1-beta z)(1-beta/z) = (1+beta^2)(1-u(z+1/z)), and with p = |m|, s = sgn(m)
# and a = n-p+1 the expansion becomes
#     X_k^{n,m} = (1+beta^2)^{-p} sum_{j=0}^{2p} C(2p, j) (-beta)^j R^{(a)}_{k-m+s j},
#     R^{(a)}(z) = (1 - u(z+1/z))^a J(z).
# R^{(0)}_d = J_d(k e), with J_{-d} = (-1)^d J_d, and one step up in a is
#     R^{(a+1)}_d = R^{(a)}_d - u (R^{(a)}_{d-1} + R^{(a)}_{d+1}),
# a three-term recursion in n at fixed (m, k), so `wnuk_scaled_column` walks
# it once for a whole column of n.  Going up, it keeps only the d within reach
# of the 2p+1 indices it extracts at the top a, a window that narrows by one
# on each side per step.  For a < 0 (n < p-1) the step runs downward,
#     R^{(a-1)}_d = R^{(a)}_d + u (R^{(a-1)}_{d-1} + R^{(a-1)}_{d+1}),
# solved on |d| <= trunc entry by entry.
#
# Internals run on Python ints in u, as dense half-index lists:
# [c_0, c_1, ...] stands for sum_i c_i u^{lo+2i}, with lo fixed by context.
# Each u-power in R^{(a)}_d is at least |d| and of the parity of d, so its list
# has lo = |d|: in a step, the neighbour nearer d = 0 shares R_d's index and
# the farther one enters one index later.  With Catalan's C(x) = sum_i Cat_i x^i,
# beta = u C(u^2) and 1 + beta^2 = C(u^2), so (1+beta^2)^{-1} = 1 - u^2 C(u^2):
# their powers have integer coefficients.  J_t(ke) = sum_s (-1)^s k^{t+2s}
# u^{t+2s} / (s!(t+s)!) is held times N!, N the order, since s!(t+s)! divides
# (t+2s)!, which divides N!.  Every list is therefore an integer list, and the
# e^q coefficient of a result is its u^q entry over N! 2^q.


def _dmul(a: List[int], b: List[int], length: int) -> List[int]:
    out = [0] * length
    for i, ca in enumerate(a[:length]):
        if ca:
            for j, cb in enumerate(b[: length - i], i):
                out[j] += ca * cb
    return out


class _WnukWorkspace:
    """Shared per-order scratch: powers of beta, of (1+beta^2)^{-1}, Bessel series."""

    def __init__(self, trunc: int) -> None:
        self.trunc = trunc
        half = trunc // 2 + 1
        catalan = [1]
        for i in range(half - 1):
            catalan.append(catalan[-1] * 2 * (2 * i + 1) // (i + 2))
        self.factorials = [math.factorial(i) for i in range(trunc + 1)]
        b1 = catalan[: (trunc - 1) // 2 + 1] if trunc >= 1 else []
        pows: List[List[int]] = [[1], b1]
        for j in range(2, trunc + 1):
            pows.append(_dmul(pows[j - 1], b1, (trunc - j) // 2 + 1))
        self.beta_pows = pows
        self._inv = [1] + [-c for c in catalan[:-1]]
        self._inv_pows: List[List[int]] = [[1]]
        self._bessel: Dict[Tuple[int, int], List[int]] = {}

    def inv_pow(self, p: int) -> List[int]:
        """(1 + beta^2)^{-p} for p >= 0 as an even dense list."""
        pows = self._inv_pows
        while len(pows) <= p:
            pows.append(_dmul(pows[-1], self._inv, self.trunc // 2 + 1))
        return pows[p]

    def bessel(self, t: int, k: int) -> List[int]:
        """N! J_t(k e) with t >= 0 as a dense list over (q - t)/2, in u."""
        key = (t, k)
        v = self._bessel.get(key)
        if v is None:
            fact = self.factorials
            top = fact[self.trunc]
            v = [
                (-1) ** s * k ** (t + 2 * s) * (top // (fact[s] * fact[t + s]))
                for s in range((self.trunc - t) // 2 + 1)
            ]
            while v and not v[-1]:
                v.pop()
            self._bessel[key] = v
        return v


_WNUK_WORKSPACES: Dict[int, _WnukWorkspace] = {}


def _workspace(trunc: int) -> _WnukWorkspace:
    ws = _WNUK_WORKSPACES.get(trunc)
    if ws is None:
        ws = _WNUK_WORKSPACES[trunc] = _WnukWorkspace(trunc)
    return ws


def _wnuk_step_up(rows: Dict[int, List[int]], lo: int, hi: int) -> Dict[int, List[int]]:
    """R^{(a+1)}_d = R_d - u (R_{d-1} + R_{d+1}) for lo <= d <= hi.

    `rows` holds R^{(a)} on lo-1..hi+1 wherever |d| <= trunc; a row past the
    truncation is zero, and it is missing only beside a row of length 1.
    """
    out = {}
    for d in range(lo, hi + 1):
        cur = rows[d]
        if d:
            step = 1 if d > 0 else -1
            near, far = rows[d - step], rows.get(d + step, ())
            out[d] = [cur[0] - near[0]] + [c - b - f for c, b, f in zip(cur[1:], near[1:], far)]
        else:  # both neighbours lie farther from 0
            left, right = rows.get(-1, ()), rows.get(1, ())
            out[d] = [cur[0]] + [c - b - f for c, b, f in zip(cur[1:], left, right)]
    return out


def _wnuk_step_down(rows: Dict[int, List[int]], trunc: int) -> Dict[int, List[int]]:
    """R^{(a-1)} from R^{(a)} = `rows` on |d| <= trunc, by
    R^{(a-1)}_d = R_d + u (R^{(a-1)}_{d-1} + R^{(a-1)}_{d+1}).

    Entries are solved in order of index, then of |d|: the neighbour nearer
    d = 0 enters at the same index and the farther one at the index below, so
    both are known when an entry is solved.
    """
    out = {d: list(rows[d]) for d in range(-trunc, trunc + 1)}
    by_distance = sorted(out, key=abs)
    for i in range(trunc // 2 + 1):
        for d in by_distance:
            row = out[d]
            if i >= len(row):
                break
            if d:
                step = 1 if d > 0 else -1
                row[i] += out[d - step][i]
                if i:
                    row[i] += out[d + step][i - 1]
            elif i:
                row[i] += out[-1][i - 1] + out[1][i - 1]
    return out


def _wnuk_extract(ws: _WnukWorkspace, rows: Dict[int, List[int]], m: int, k: int) -> List[int]:
    """(1+beta^2)^{-|m|} sum_j C(2|m|, j) (-beta)^j R_{k-m+sgn(m) j} as a dense
    list over (q - |k-m|)/2: entry i is the e^q coefficient times N! 2^q."""
    trunc = ws.trunc
    p = abs(m)
    step = -1 if m < 0 else 1
    d0 = k - m
    ad0 = abs(d0)
    size = (trunc - ad0) // 2 + 1
    acc = [0] * size
    for j in range(2 * p + 1):
        d = d0 + step * j
        order0 = j + abs(d)
        if order0 > trunc:
            break  # order0 never decreases with j
        c = -math.comb(2 * p, j) if j % 2 else math.comb(2 * p, j)
        row = _dmul(ws.beta_pows[j], rows[d], (trunc - order0) // 2 + 1) if j else rows[d]
        for i, v in enumerate(row, (order0 - ad0) // 2):
            acc[i] += c * v
    return _dmul(acc, ws.inv_pow(p), size) if p else acc


def _wnuk_bessel_rows(ws: _WnukWorkspace, k: int, lo: int, hi: int) -> Dict[int, List[int]]:
    """R^{(0)}_d = N! J_d(k e) for lo <= d <= hi and |d| <= trunc, each at its full length."""
    trunc = ws.trunc
    rows = {}
    for d in range(max(lo, -trunc), min(hi, trunc) + 1):
        row = ws.bessel(abs(d), k)
        row = row + [0] * ((trunc - abs(d)) // 2 + 1 - len(row))
        rows[d] = [-v for v in row] if d < 0 and d % 2 else row
    return rows


def wnuk_scaled_column(ns: Sequence[int], m: int, k: int, trunc: int) -> List[List[int]]:
    """X_k^{n,m} for every n of `ns`, in its order, from one walk of the recursion
    in n, as integer lists: entry i is the coefficient of e^q, q = |k-m| + 2i,
    times trunc! 2^q.

    `ns` may be unsorted and hold repeats and any integers; a repeated n gets
    the same list object.
    """
    ws = _workspace(trunc)
    if abs(k - m) > trunc:
        return [[] for _ in ns]
    p = abs(m)
    wanted = {n - p + 1 for n in ns}
    if not wanted:
        return []
    found: Dict[int, List[int]] = {}
    bottom, top = min(wanted), max(max(wanted), 0)
    if bottom < 0:
        rows = _wnuk_bessel_rows(ws, k, -trunc, trunc)
        for a in range(-1, bottom - 1, -1):
            rows = _wnuk_step_down(rows, trunc)
            if a in wanted:
                found[a] = _wnuk_extract(ws, rows, m, k)
    # from a = 0 up to top, R_d is needed within top - a of the extracted k-p..k+p
    rows = _wnuk_bessel_rows(ws, k, k - p - top, k + p + top)
    for a in range(top + 1):
        if a:
            reach = top - a
            rows = _wnuk_step_up(rows, max(k - p - reach, -trunc), min(k + p + reach, trunc))
        if a in wanted:
            found[a] = _wnuk_extract(ws, rows, m, k)
    return [found[n - p + 1] for n in ns]


def hansen_wnuk_column(ns: Sequence[int], m: int, k: int, trunc: int) -> List[SeriesE]:
    """X_k^{n,m} for every n of `ns` as exact series: `wnuk_scaled_column` over trunc! 2^q."""
    scale, qs = math.factorial(trunc), range(abs(k - m), trunc + 1, 2)
    return [
        SeriesE({q: Fraction(v, scale << q) for q, v in zip(qs, xs) if v}, trunc, _raw=True)
        for xs in wnuk_scaled_column(ns, m, k, trunc)
    ]


def hansen_wnuk(n: int, m: int, k: int, trunc: int) -> SeriesE:
    """X_k^{n,m} by Wnuk's route: the one-n form of `hansen_wnuk_column`."""
    return hansen_wnuk_column([n], m, k, trunc)[0]


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

    The sum is regrouped by r = p + q.  The bracket depends on p and q only
    through r, and k^p/p! k^q/q! = (k^r/r!) C(r, p), so
        sum_{j<=t} sum_{r<=s+2j} bracket(t, j, r) (k^r/r!) a_j(r),
        a_j(r) = sum_p (-1)^(r-p) C(r, p) C(n+m+1, j-p) C(n-m+1, s+j-r+p),
    where the integer rows a_j do not depend on t and are computed once per
    key.  They are held times k^r R!/r!, R = s + 2 floor((trunc-s)/2) the
    largest r reached, and the bracket is a function of t-j and s+2j-r alone,
    so each e^(s+2t) coefficient is (-1)^s C_t / (R! 2^(s+2t)) with C_t a sum
    of integer dot products.
    """
    s = k - m
    if s < 0:
        return hansen_balmino(n, -m, -k, trunc)
    if s > trunc:
        return SeriesE.zero(trunc)
    top_t = (trunc - s) // 2
    big_r = s + 2 * top_t
    c_plus = [binomial_general(n + m + 1, i) for i in range(top_t + 1)]
    c_minus = [binomial_general(n - m + 1, i) for i in range(big_r + 1)]
    scale = math.factorial(big_r)
    weights = [k**r * (scale // math.factorial(r)) for r in range(big_r + 1)]
    rows: List[List[int]] = []
    for j in range(top_t + 1):
        row = []
        for r in range(s + 2 * j + 1):
            a = 0
            if weights[r]:
                for p in range(max(0, r - s - j), min(j, r) + 1):
                    term = math.comb(r, p) * c_plus[j - p] * c_minus[s + j - r + p]
                    a += -term if (r - p) % 2 else term
            row.append(a * weights[r])
        rows.append(row)
    # bracket(t, j, r) = brackets[t-j][s+2j-r]
    brackets = [
        [
            2 * binomial_general(2 * d - n - 2 + i, d) - binomial_general(2 * d - n - 1 + i, d)
            for i in range(s + 2 * (top_t - d) + 1)
        ]
        for d in range(top_t + 1)
    ]
    sign_s = 1 if s % 2 == 0 else -1
    coeffs: Dict[int, Fraction] = {}
    for t in range(top_t + 1):
        total = sum(
            sum(map(operator.mul, rows[j], reversed(brackets[t - j][: s + 2 * j + 1])))
            for j in range(t + 1)
        )
        if total:
            coeffs[s + 2 * t] = Fraction(sign_s * total, scale << (s + 2 * t))
    return SeriesE(coeffs, trunc, _raw=True)


# ---------------------------------------------------------------------------
# Dispatcher, tables
# ---------------------------------------------------------------------------


def hansen(key: HansenKey, trunc: int, method: str = "wnuk") -> SeriesE:
    """Dispatch on method with the key canonicalized; every call computes afresh.

    Wnuk's route, the default, serves every key.  `k0` serves k = 0 only: the
    closed form for n >= 0 and the negative-exponent form for n < 0.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    ck = key.canonical()
    if method == "k0":
        if ck.k != 0:
            raise ValueError(f"method {method!r} needs k = 0, got key {key}")
        if ck.n >= 0:
            return hansen_k0_closed(ck.n, ck.m, trunc)
        return hansen_k0_negative(-ck.n - 1, abs(ck.m), trunc)
    if method == "newcomb":
        return hansen_newcomb(ck.n, ck.m, ck.k, trunc)
    if method == "wnuk":
        return hansen_wnuk(ck.n, ck.m, ck.k, trunc)
    return hansen_balmino(ck.n, ck.m, ck.k, trunc)


def clear_caches() -> None:
    """Empty the route memos, so the next call of each route starts cold."""
    _WNUK_WORKSPACES.clear()
    _NEWCOMB.values.clear()
    _CHI_CACHE.clear()


def hansen_table(
    n_values: List[int],
    m_values: List[int],
    k: int,
    trunc: int,
    method: str = "wnuk",
) -> str:
    """Rows n, columns m table of X_k^{n,m} at one truncation order, in aligned
    text columns of exact coefficients; Wnuk's route, the default, computes a
    column per call.
    """
    header = ["n"] + [f"X^(n,{m})_{k}" for m in m_values]
    columns = []
    for m in m_values:
        if method == "wnuk":
            ck = HansenKey(0, m, k).canonical()
            columns.append(hansen_wnuk_column(n_values, ck.m, ck.k, trunc))
        else:
            columns.append([hansen(HansenKey(n, m, k), trunc, method) for n in n_values])
    rows = [[str(n)] + [column[i].pretty() for column in columns] for i, n in enumerate(n_values)]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in [header] + rows
    ]
    return "\n".join(lines) + "\n"
