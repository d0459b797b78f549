"""Truncated power series over exact rationals.

SeriesE is a univariate series in the eccentricity e, SeriesAE a bivariate
series in the semimajor axis a and e.  Both are sparse (no zero coefficient is
ever stored), keep every exponent within their per-variable truncation bound,
and are immutable after construction: all arithmetic returns new values.
Both are built from mappings of `fractions.Fraction` (ints are accepted).
SeriesE stores `Fraction`s; SeriesAE stores integers over one denominator and
builds `Fraction`s only when asked for them (`c`, `coeff`, `terms`).

SeriesE has +, - and * between series; the negative-exponent k = 0 form
multiplies by (1-e^2)^{-(2n-1)/2} with *, and a mixed-order sum or product
takes the minimum of each truncation bound.  SeriesAE has no arithmetic: it
is built whole by `fourier`, truncated and differentiated.
Evaluation here is exact; double-precision values come from `atlas.PolyEval`,
which reads the same integer Horner rows (`SeriesAE.horner_rows`, built once
per series) as `eval_exact`.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .exact import binomial_rational


def _clean(coeffs: Dict) -> None:
    for key in [k for k, v in coeffs.items() if v == 0]:
        del coeffs[key]


class SeriesE:
    """Truncated power series sum_q c_q e^q with exact rational c_q, q <= trunc."""

    __slots__ = ("c", "trunc")

    def __init__(
        self, coeffs: Mapping[int, Union[int, Fraction]], trunc: int, _raw: bool = False
    ):
        if trunc < 0:
            raise ValueError(f"truncation order must be non-negative, got {trunc}")
        if _raw:
            self.c: Dict[int, Fraction] = coeffs  # type: ignore[assignment]
        else:
            self.c = {}
            for q, v in coeffs.items():
                if q < 0:
                    raise ValueError(f"negative exponent {q}")
                r = Fraction(v)
                if q <= trunc and r != 0:
                    self.c[q] = r
        self.trunc = trunc

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc: int) -> "SeriesE":
        return SeriesE({}, trunc, _raw=True)

    @staticmethod
    def one(trunc: int) -> "SeriesE":
        return SeriesE({0: Fraction(1)}, trunc)

    # -- inspection --------------------------------------------------------

    def coeff(self, q: int) -> Fraction:
        return self.c.get(q, Fraction(0))

    def is_zero(self) -> bool:
        return not self.c

    def lowest_exponent(self) -> Optional[int]:
        """Smallest exponent with non-zero coefficient, or None for the zero series."""
        return min(self.c) if self.c else None

    def terms(self) -> Iterable[Tuple[int, Fraction]]:
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

    def __mul__(self, other: "SeriesE") -> "SeriesE":
        if not isinstance(other, SeriesE):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        out: Dict[int, Fraction] = {}
        for q1, c1 in self.c.items():
            if q1 > trunc:
                continue
            for q2, c2 in other.c.items():
                q = q1 + q2
                if q <= trunc:
                    out[q] = out.get(q, 0) + c1 * c2
        _clean(out)
        return SeriesE(out, trunc, _raw=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesE):
            return NotImplemented
        return self.trunc == other.trunc and self.c == other.c

    # -- truncation ----------------------------------------------------------

    def truncate(self, trunc: int) -> "SeriesE":
        if trunc >= self.trunc:
            if trunc == self.trunc:
                return self
            raise ValueError(
                f"cannot extend truncation order {self.trunc} to {trunc}"
            )
        return SeriesE({q: v for q, v in self.c.items() if q <= trunc}, trunc, _raw=True)

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, e: Union[int, Fraction]) -> Fraction:
        ex = Fraction(e)
        acc = Fraction(0)
        for q in range(self.trunc, -1, -1):
            acc = acc * ex
            v = self.c.get(q)
            if v is not None:
                acc += v
        return acc

    def pretty(self) -> str:
        """Human form, e.g. "5/2 e^2" or "-e + 1/8 e^3"."""
        if not self.c:
            return "0"
        parts = []
        for q, v in sorted(self.c.items()):
            mag = str(abs(v))
            if q == 0:
                body = mag
            else:
                power = "e" if q == 1 else f"e^{q}"
                body = power if mag == "1" else f"{mag} {power}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SeriesE({self.pretty()}; order {self.trunc})"


class SeriesAE:
    """Truncated bivariate series sum c_{n,q} a^n e^q with n <= trunc_a, q <= trunc_e,
    stored as c_{n,q} = num[(n, q)] / den with gcd(den, every num) = 1, so equal
    series store equal integers.  `coeffs` maps (n, q) to rationals, or to
    integers over `den` when that is given."""

    __slots__ = ("num", "den", "trunc_a", "trunc_e", "_int_rows")

    def __init__(
        self,
        coeffs: Mapping[Tuple[int, int], Union[int, Fraction]],
        trunc_a: int,
        trunc_e: int,
        den: Optional[int] = None,
    ):
        if trunc_a < 0 or trunc_e < 0:
            raise ValueError("truncation orders must be non-negative")
        if den is None:
            den = math.lcm(*(Fraction(v).denominator for v in coeffs.values()))
            coeffs = {key: int(Fraction(v) * den) for key, v in coeffs.items()}
        num: Dict[Tuple[int, int], int] = {}
        for (n, q), v in coeffs.items():
            if n < 0 or q < 0:
                raise ValueError(f"negative exponent ({n},{q})")
            if n <= trunc_a and q <= trunc_e and v:
                num[(n, q)] = v
        g = math.gcd(den, *num.values())
        for key in num:  # in place: a second dict would raise the assembly's memory peak
            num[key] //= g
        self.num = num
        self.den = den // g
        self.trunc_a = trunc_a
        self.trunc_e = trunc_e
        self._int_rows = None

    @staticmethod
    def zero(trunc_a: int, trunc_e: int) -> "SeriesAE":
        return SeriesAE({}, trunc_a, trunc_e, den=1)

    @property
    def c(self) -> Dict[Tuple[int, int], Fraction]:
        """The coefficients as a fresh mapping of rationals."""
        return {key: Fraction(v, self.den) for key, v in self.num.items()}

    def coeff(self, n: int, q: int) -> Fraction:
        return Fraction(self.num.get((n, q), 0), self.den)

    def is_zero(self) -> bool:
        return not self.num

    def terms(self) -> Iterable[Tuple[Tuple[int, int], Fraction]]:
        return sorted(self.c.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesAE):
            return NotImplemented
        return (self.trunc_a, self.trunc_e, self.den, self.num) == (
            other.trunc_a, other.trunc_e, other.den, other.num
        )

    def truncate(self, trunc_a: int, trunc_e: int) -> "SeriesAE":
        if trunc_a > self.trunc_a or trunc_e > self.trunc_e:
            raise ValueError("cannot extend truncation orders")
        if (trunc_a, trunc_e) == (self.trunc_a, self.trunc_e):
            return self
        return SeriesAE(self.num, trunc_a, trunc_e, den=self.den)

    def derivative_a(self) -> "SeriesAE":
        num = {(n - 1, q): n * v for (n, q), v in self.num.items() if n}
        return SeriesAE(num, self.trunc_a, self.trunc_e, den=self.den)

    def derivative_e(self) -> "SeriesAE":
        num = {(n, q - 1): q * v for (n, q), v in self.num.items() if q}
        return SeriesAE(num, self.trunc_a, self.trunc_e, den=self.den)

    def eval_exact(self, a: Union[int, Fraction], e: Union[int, Fraction]) -> Fraction:
        """Exact value at (a, e), by Horner on Python ints.

        With c = C/D (D = `den`), a = A/Da and e = E/De,
            D Da^Na De^Ne f(a, e) = sum_n A^n Da^(Na-n) sum_q C_nq E^q De^(Ne-q)
        is an integer (Na, Ne the largest exponents present); a row whose
        exponents share a parity runs in e^2.
        """
        ar, er = Fraction(a), Fraction(e)
        rows = self.horner_rows()
        if not rows:
            return Fraction(0)
        A, Da = ar.numerator, ar.denominator
        E, De = er.numerator, er.denominator
        E2, De2 = E * E, De * De
        ne = max(hi for _, _, hi, _, _ in rows)
        n_top = prev_n = rows[0][0]
        acc = 0
        for n, lo, hi, step2, coeffs in rows:
            x, dx = (E2, De2) if step2 else (E, De)
            h = 0
            dpow = 1
            for c in coeffs:
                h = h * x + c * dpow
                dpow *= dx
            inner = h * E**lo * De ** (ne - hi)
            acc = acc * A ** (prev_n - n) + inner * Da ** (n_top - n)
            prev_n = n
        return Fraction(acc * A**prev_n, self.den * Da**n_top * De**ne)

    def horner_rows(self) -> List[Tuple[int, int, int, bool, List[int]]]:
        """Per a-exponent n present, descending: (n, lowest q, highest q,
        step-2 flag, integer coefficients over `den` from the highest q down,
        0 in the gaps).  A row whose exponents share a parity steps by 2, to
        run in e^2.  Built once per series and kept on it."""
        if self._int_rows is None:
            by_n: Dict[int, Dict[int, int]] = {}
            for (n, q), v in self.num.items():
                by_n.setdefault(n, {})[q] = v
            rows = []
            for n in sorted(by_n, reverse=True):
                row = by_n[n]
                lo, hi = min(row), max(row)
                step2 = all((q - lo) % 2 == 0 for q in row)
                coeffs = [row.get(q, 0) for q in range(hi, lo - 1, -2 if step2 else -1)]
                rows.append((n, lo, hi, step2, coeffs))
            self._int_rows = rows
        return self._int_rows

    def __repr__(self) -> str:
        if not self.num:
            return f"SeriesAE(0; orders ({self.trunc_a},{self.trunc_e}))"
        parts = []
        for (n, q), v in self.terms():
            factors = [str(v)]
            if n:
                factors.append("a" if n == 1 else f"a^{n}")
            if q:
                factors.append("e" if q == 1 else f"e^{q}")
            parts.append(" ".join(factors))
        return f"SeriesAE({' + '.join(parts)}; orders ({self.trunc_a},{self.trunc_e}))"


# -- standard auxiliary series ------------------------------------------------


def sqrt_one_minus_e2(trunc: int, p: int = 1) -> SeriesE:
    """(1-e^2)^(p/2) for any integer p, as a truncated binomial series."""
    half_p = Fraction(p, 2)
    coeffs: Dict[int, Fraction] = {}
    for j in range(trunc // 2 + 1):
        c = binomial_rational(half_p, j)
        if c != 0:
            coeffs[2 * j] = c if j % 2 == 0 else -c
    return SeriesE(coeffs, trunc, _raw=True)
