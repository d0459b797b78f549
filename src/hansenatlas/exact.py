"""Binomial conventions used by the series engines.

Every coefficient at the API of this package is a `fractions.Fraction`, called
by that name wherever one is built; `str` gives its "num/den" text.  The hot
exact kernels (Newcomb's, Wnuk's and Balmino's routes, the Fourier assembly
`fourier._assemble` and `SeriesAE.eval_exact`) run on Python ints over common
denominators, `SeriesAE` stores its coefficients so, and a `Fraction` is built
only at the public `SeriesE`/`SeriesAE` boundary.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

# the one rational type; perfbench records this name
RATIONAL_BACKEND = "fractions"


def binomial_general(top: int, p: int) -> int:
    """Binomial coefficient C(top, p) for integer top of either sign.

    For top >= 0 this is the standard coefficient (zero when p > top).
    For top < 0 the signed convention C(-u, p) = (-1)^p C(u+p-1, p) applies.
    """
    if p < 0:
        raise ValueError(f"lower binomial index must be non-negative, got {p}")
    if top >= 0:
        return math.comb(top, p)
    c = math.comb(-top + p - 1, p)
    return -c if p & 1 else c


def binomial_rational(top: Union[int, Fraction], p: int) -> Fraction:
    """C(top, p) = top (top-1) ... (top-p+1) / p! for rational top."""
    if p < 0:
        raise ValueError(f"lower binomial index must be non-negative, got {p}")
    num = Fraction(1)
    t = Fraction(top)
    for i in range(p):
        num *= t - i
    return num / math.factorial(p)


def pochhammer(x: Union[int, Fraction], s: int) -> Fraction:
    """Rising factorial x (x+1) ... (x+s-1)."""
    if s < 0:
        raise ValueError(f"pochhammer length must be non-negative, got {s}")
    out = Fraction(1)
    q = Fraction(x)
    for i in range(s):
        out *= q + i
    return out
