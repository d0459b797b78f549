"""Truncated power series over exact rationals.

SeriesE is a univariate series in the eccentricity e, SeriesAE a bivariate
series in the semimajor axis a and e.  Both are sparse (no zero coefficient is
ever stored), keep every exponent within their per-variable truncation bound,
and are immutable after construction: all arithmetic returns new values, so
they are safe to share across threads and processes.

Products are exact truncated products; a mixed-order product takes the
minimum of each truncation bound.  Division requires a divisor with non-zero
constant term and proceeds by long division on the truncated coefficients.
Evaluation here is exact; double-precision values come from `atlas.PolyEval`.
"""
from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .exact import Rational, RationalLike, ZERO, binomial_rational, rational, rational_str

_TERM_SEP = " + "


def _clean(coeffs: Dict) -> None:
    for key in [k for k, v in coeffs.items() if v == 0]:
        del coeffs[key]


class SeriesE:
    """Truncated power series sum_q c_q e^q with exact rational c_q, q <= trunc."""

    __slots__ = ("c", "trunc")

    def __init__(self, coeffs: Mapping[int, RationalLike], trunc: int, _raw: bool = False):
        if trunc < 0:
            raise ValueError(f"truncation order must be non-negative, got {trunc}")
        if _raw:
            self.c: Dict[int, Rational] = coeffs  # type: ignore[assignment]
        else:
            self.c = {}
            for q, v in coeffs.items():
                if q < 0:
                    raise ValueError(f"negative exponent {q}")
                r = rational(v)
                if q <= trunc and r != 0:
                    self.c[q] = r
        self.trunc = trunc

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc: int) -> "SeriesE":
        return SeriesE({}, trunc, _raw=True)

    @staticmethod
    def one(trunc: int) -> "SeriesE":
        return SeriesE({0: rational(1)}, trunc)

    @staticmethod
    def monomial(coeff: RationalLike, q: int, trunc: int) -> "SeriesE":
        return SeriesE({q: coeff}, trunc)

    # -- inspection --------------------------------------------------------

    def coeff(self, q: int) -> Rational:
        return self.c.get(q, ZERO)

    def is_zero(self) -> bool:
        return not self.c

    def lowest_exponent(self) -> Optional[int]:
        """Smallest exponent with non-zero coefficient, or None for the zero series."""
        return min(self.c) if self.c else None

    def terms(self) -> Iterable[Tuple[int, Rational]]:
        return sorted(self.c.items())

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "SeriesE":
        return SeriesE({q: -v for q, v in self.c.items()}, self.trunc, _raw=True)

    def __add__(self, other: "SeriesE") -> "SeriesE":
        if not isinstance(other, SeriesE):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        out = {q: v for q, v in self.c.items() if q <= trunc}
        for q, v in other.c.items():
            if q <= trunc:
                s = out.get(q, 0) + v
                if s == 0:
                    out.pop(q, None)
                else:
                    out[q] = s
        return SeriesE(out, trunc, _raw=True)

    def __sub__(self, other: "SeriesE") -> "SeriesE":
        if not isinstance(other, SeriesE):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SeriesE):
            trunc = min(self.trunc, other.trunc)
            out: Dict[int, Rational] = {}
            for q1, c1 in self.c.items():
                if q1 > trunc:
                    continue
                for q2, c2 in other.c.items():
                    q = q1 + q2
                    if q <= trunc:
                        out[q] = out.get(q, 0) + c1 * c2
            _clean(out)
            return SeriesE(out, trunc, _raw=True)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, scalar: RationalLike) -> "SeriesE":
        s = rational(scalar)
        if s == 0:
            return SeriesE.zero(self.trunc)
        return SeriesE({q: v * s for q, v in self.c.items()}, self.trunc, _raw=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesE):
            return NotImplemented
        return self.trunc == other.trunc and self.c == other.c

    def __hash__(self):
        return hash((self.trunc, tuple(sorted(self.c.items()))))

    # -- truncation and shifts ----------------------------------------------

    def truncate(self, trunc: int) -> "SeriesE":
        if trunc >= self.trunc:
            if trunc == self.trunc:
                return self
            raise ValueError(
                f"cannot extend truncation order {self.trunc} to {trunc}"
            )
        return SeriesE({q: v for q, v in self.c.items() if q <= trunc}, trunc, _raw=True)

    def shifted(self, d: int) -> "SeriesE":
        """Multiply by e^d (d may be negative when every exponent allows it)."""
        if d < 0 and any(q + d < 0 for q in self.c):
            raise ValueError("shift would create a negative exponent")
        return SeriesE(
            {q + d: v for q, v in self.c.items() if q + d <= self.trunc},
            self.trunc,
            _raw=True,
        )

    def divided_by_e(self) -> "SeriesE":
        """Exact division by e; the constant term must vanish."""
        if 0 in self.c:
            raise ValueError("series is not divisible by e")
        return self.shifted(-1)

    # -- division ------------------------------------------------------------

    def inverse(self) -> "SeriesE":
        """Multiplicative inverse by long division; needs a non-zero constant term."""
        a0 = self.c.get(0)
        if not a0:
            raise ZeroDivisionError("series inverse requires a non-zero constant term")
        inv0 = 1 / a0
        out: Dict[int, Rational] = {0: inv0}
        for q in range(1, self.trunc + 1):
            s = 0
            for j, aj in self.c.items():
                if 0 < j <= q:
                    bk = out.get(q - j)
                    if bk is not None:
                        s += aj * bk
            if s != 0:
                out[q] = -inv0 * s
        return SeriesE(out, self.trunc, _raw=True)

    def __truediv__(self, other):
        if isinstance(other, SeriesE):
            return self * other.inverse()
        return self.scaled(1 / rational(other))

    def pow_int(self, p: int) -> "SeriesE":
        """Integer power; negative p inverts first."""
        base = self.inverse() if p < 0 else self
        p = abs(p)
        result = SeriesE.one(self.trunc)
        while p:
            if p & 1:
                result = result * base
            base = base * base if p > 1 else base
            p >>= 1
        return result

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, e: RationalLike) -> Rational:
        ex = rational(e)
        acc = rational(0)
        for q in range(self.trunc, -1, -1):
            acc = acc * ex
            v = self.c.get(q)
            if v is not None:
                acc += v
        return acc

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: terms sorted by exponent, each `num/den * e^q`."""
        if not self.c:
            return "0"
        return _TERM_SEP.join(
            f"{rational_str(v)} * e^{q}" for q, v in sorted(self.c.items())
        )

    @staticmethod
    def from_text(text: str, trunc: int) -> "SeriesE":
        text = text.strip()
        if text == "0":
            return SeriesE.zero(trunc)
        coeffs: Dict[int, Rational] = {}
        for term in text.split(_TERM_SEP):
            num, _, power = term.partition(" * e^")
            coeffs[int(power)] = rational(num.strip())
        return SeriesE(coeffs, trunc)

    def pretty(self, var: str = "e") -> str:
        """Human form, e.g. "5/2 e^2" or "-e + 1/8 e^3"."""
        if not self.c:
            return "0"
        parts = []
        for q, v in sorted(self.c.items()):
            mag = rational_str(abs(v))
            if q == 0:
                body = mag
            else:
                power = var if q == 1 else f"{var}^{q}"
                body = power if mag == "1" else f"{mag} {power}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SeriesE({self.pretty()}; order {self.trunc})"


class SeriesAE:
    """Truncated bivariate series sum c_{n,q} a^n e^q with n <= trunc_a, q <= trunc_e."""

    __slots__ = ("c", "trunc_a", "trunc_e")

    def __init__(
        self,
        coeffs: Mapping[Tuple[int, int], RationalLike],
        trunc_a: int,
        trunc_e: int,
        _raw: bool = False,
    ):
        if trunc_a < 0 or trunc_e < 0:
            raise ValueError("truncation orders must be non-negative")
        if _raw:
            self.c: Dict[Tuple[int, int], Rational] = coeffs  # type: ignore[assignment]
        else:
            self.c = {}
            for (n, q), v in coeffs.items():
                if n < 0 or q < 0:
                    raise ValueError(f"negative exponent ({n},{q})")
                r = rational(v)
                if n <= trunc_a and q <= trunc_e and r != 0:
                    self.c[(n, q)] = r
        self.trunc_a = trunc_a
        self.trunc_e = trunc_e

    @staticmethod
    def zero(trunc_a: int, trunc_e: int) -> "SeriesAE":
        return SeriesAE({}, trunc_a, trunc_e, _raw=True)

    def coeff(self, n: int, q: int) -> Rational:
        return self.c.get((n, q), ZERO)

    def is_zero(self) -> bool:
        return not self.c

    def terms(self) -> Iterable[Tuple[Tuple[int, int], Rational]]:
        return sorted(self.c.items())

    def __neg__(self) -> "SeriesAE":
        return SeriesAE(
            {k: -v for k, v in self.c.items()}, self.trunc_a, self.trunc_e, _raw=True
        )

    def __add__(self, other: "SeriesAE") -> "SeriesAE":
        if not isinstance(other, SeriesAE):
            return NotImplemented
        ta = min(self.trunc_a, other.trunc_a)
        te = min(self.trunc_e, other.trunc_e)
        out = {k: v for k, v in self.c.items() if k[0] <= ta and k[1] <= te}
        for k, v in other.c.items():
            if k[0] <= ta and k[1] <= te:
                s = out.get(k, 0) + v
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return SeriesAE(out, ta, te, _raw=True)

    def __sub__(self, other: "SeriesAE") -> "SeriesAE":
        if not isinstance(other, SeriesAE):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SeriesAE):
            ta = min(self.trunc_a, other.trunc_a)
            te = min(self.trunc_e, other.trunc_e)
            out: Dict[Tuple[int, int], Rational] = {}
            for (n1, q1), c1 in self.c.items():
                for (n2, q2), c2 in other.c.items():
                    n, q = n1 + n2, q1 + q2
                    if n <= ta and q <= te:
                        out[(n, q)] = out.get((n, q), 0) + c1 * c2
            _clean(out)
            return SeriesAE(out, ta, te, _raw=True)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, scalar: RationalLike) -> "SeriesAE":
        s = rational(scalar)
        if s == 0:
            return SeriesAE.zero(self.trunc_a, self.trunc_e)
        return SeriesAE(
            {k: v * s for k, v in self.c.items()}, self.trunc_a, self.trunc_e, _raw=True
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesAE):
            return NotImplemented
        return (
            self.trunc_a == other.trunc_a
            and self.trunc_e == other.trunc_e
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.trunc_a, self.trunc_e, tuple(sorted(self.c.items()))))

    def truncate(self, trunc_a: int, trunc_e: int) -> "SeriesAE":
        if trunc_a > self.trunc_a or trunc_e > self.trunc_e:
            raise ValueError("cannot extend truncation orders")
        if (trunc_a, trunc_e) == (self.trunc_a, self.trunc_e):
            return self
        return SeriesAE(
            {k: v for k, v in self.c.items() if k[0] <= trunc_a and k[1] <= trunc_e},
            trunc_a,
            trunc_e,
            _raw=True,
        )

    def derivative_a(self) -> "SeriesAE":
        return SeriesAE(
            {(n - 1, q): n * v for (n, q), v in self.c.items() if n >= 1},
            self.trunc_a,
            self.trunc_e,
            _raw=True,
        )

    def derivative_e(self) -> "SeriesAE":
        return SeriesAE(
            {(n, q - 1): q * v for (n, q), v in self.c.items() if q >= 1},
            self.trunc_a,
            self.trunc_e,
            _raw=True,
        )

    def eval_exact(self, a: RationalLike, e: RationalLike) -> Rational:
        ar, er = rational(a), rational(e)
        rows: Dict[int, Dict[int, Rational]] = {}
        for (n, q), v in self.c.items():
            rows.setdefault(n, {})[q] = v
        acc = rational(0)
        for n in range(self.trunc_a, -1, -1):
            acc = acc * ar
            row = rows.get(n)
            if row:
                inner = rational(0)
                for q in range(self.trunc_e, -1, -1):
                    inner = inner * er
                    v = row.get(q)
                    if v is not None:
                        inner += v
                acc += inner
        return acc

    def to_text(self) -> str:
        """Canonical text: terms sorted by (n, q), each `num/den * a^n * e^q`."""
        if not self.c:
            return "0"
        return _TERM_SEP.join(
            f"{rational_str(v)} * a^{n} * e^{q}" for (n, q), v in sorted(self.c.items())
        )

    @staticmethod
    def from_text(text: str, trunc_a: int, trunc_e: int) -> "SeriesAE":
        text = text.strip()
        if text == "0":
            return SeriesAE.zero(trunc_a, trunc_e)
        coeffs: Dict[Tuple[int, int], Rational] = {}
        for term in text.split(_TERM_SEP):
            num, _, powers = term.partition(" * a^")
            a_pow, _, e_pow = powers.partition(" * e^")
            coeffs[(int(a_pow), int(e_pow))] = rational(num.strip())
        return SeriesAE(coeffs, trunc_a, trunc_e)

    def __repr__(self) -> str:
        if not self.c:
            return f"SeriesAE(0; orders ({self.trunc_a},{self.trunc_e}))"
        parts = []
        for (n, q), v in sorted(self.c.items()):
            factors = [rational_str(v)]
            if n:
                factors.append("a" if n == 1 else f"a^{n}")
            if q:
                factors.append("e" if q == 1 else f"e^{q}")
            parts.append(" ".join(factors))
        return f"SeriesAE({' + '.join(parts)}; orders ({self.trunc_a},{self.trunc_e}))"


# -- standard auxiliary series ------------------------------------------------


def sqrt_one_minus_e2(trunc: int, p: int = 1) -> SeriesE:
    """(1-e^2)^(p/2) for any integer p, as a truncated binomial series."""
    half_p = rational(p, 2)
    coeffs: Dict[int, Rational] = {}
    for j in range(trunc // 2 + 1):
        c = binomial_rational(half_p, j)
        if c != 0:
            coeffs[2 * j] = c if j % 2 == 0 else -c
    return SeriesE(coeffs, trunc, _raw=True)


def beta_series(trunc: int) -> SeriesE:
    """beta(e) = e / (1 + sqrt(1-e^2)); starts at e/2, odd powers only."""
    denom = SeriesE.one(trunc) + sqrt_one_minus_e2(trunc)
    return SeriesE.monomial(1, 1, trunc) * denom.inverse()


def bessel_j_series(t: int, k: int, trunc: int) -> SeriesE:
    """Bessel J_t(k e) as a series in e; J_{-t}(ke) = (-1)^t J_t(ke)."""
    if t < 0:
        s = bessel_j_series(-t, k, trunc)
        return s if t % 2 == 0 else -s
    coeffs: Dict[int, Rational] = {}
    for s_idx in range((trunc - t) // 2 + 1 if trunc >= t else 0):
        q = t + 2 * s_idx
        num = k**q
        if num == 0 and q > 0:
            continue
        den = (2**q) * math.factorial(s_idx) * math.factorial(t + s_idx)
        c = rational(num, den)
        coeffs[q] = c if s_idx % 2 == 0 else -c
    return SeriesE(coeffs, trunc)
