"""Certified bounds of a truncated coefficient on boxes of the unit square.

Every term of f_{m,k} has n >= m* and q >= |m-k|, so f = a^{m*} e^{|m-k|} g
exactly, with g(0,0) = 2 t_{m,k} != 0: g has the zeros of f in (0,1]^2
without the forced zeros on the axes.  `Enclosure` divides a series by its
lowest a- and e-exponents present, which are m* and |m-k| for a mode, so it
serves any SeriesAE.

Bulk tier, a monotone split in double (Martin, Shou, Voiculescu, Bowyer &
Wang, "Comparison of interval methods for plotting algebraic curves",
Computer Aided Geometric Design 19, 2002): g = g+ - g- with g+ the terms of
positive and g- those of negative coefficient, negated.  Both increase in a
and in e on [0,1]^2, so on a box [lo, hi] inside it

    g+(lo) - g-(hi) <= g <= g+(hi) - g-(lo),

and g+ and g- sum nonnegative terms, whose float error is relative, with no
cancellation.  The tracer reads these bounds on boxes of BOX x BOX grid cells.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from .series import SeriesAE

BOX = 16  # grid cells per side of the tracer's boxes

_U = 2.0**-53  # unit roundoff
_TINY = np.finfo(float).tiny  # 2^-1022, the smallest normal double


def box_corners(n: int) -> np.ndarray:
    """The node indices of the box corners on an axis of n >= 2 nodes:
    0, BOX, 2 BOX, ... and n - 1, so the last box may be narrower."""
    return np.append(np.arange(0, n - 1, BOX), n - 1)


class Enclosure:
    """Bounds of g = series / (a^n0 e^q0) on the boxes of a tensor grid, with
    n0 and q0 the lowest a- and e-exponents of the series."""

    def __init__(self, series: SeriesAE):
        keys = np.array(list(series.num), dtype=int).reshape(-1, 2)
        if len(keys):
            keys -= keys.min(axis=0)
        top_a, top_e = keys.max(axis=0, initial=0)
        C = np.zeros((top_a + 1, top_e + 1))
        # int / int rounds correctly
        C[keys[:, 0], keys[:, 1]] = [v / series.den for v in series.num.values()]
        # g+ and g- side by side, for one a-Horner
        self.parts = np.hstack([np.maximum(C, 0.0), np.maximum(-C, 0.0)])
        k = 2 * (top_a + top_e + 1)
        self.rho = (2 * k + 8) * _U / (1.0 - (2 * k + 8) * _U)

    def bounds(self, a: np.ndarray, e: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(lower, upper), each of shape (len(a) - 1, len(e) - 1): lower[i, j]
        <= g <= upper[i, j] on the box [a[i], a[i+1]] x [e[j], e[j+1]], for
        nondecreasing axes with values in [0, 1]; NaN where an evaluation
        overflowed, which bounds nothing.

        With P and N the computed g+(lo) and g-(hi) (for `upper`, g+(hi) and
        g-(lo)), lower = (P - N) - T and upper = (P - N) + T, with
        T = rho (P + N) + mu, in double.

        Why (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        ch. 2, 3 and 5; u = 2^-53, lambda = 2^-1022, gamma_k = ku/(1-ku)).
        g+ at a node is R @ E: R the a-Horner of the columns of g+'s
        coefficients, E[q, j] = e_j^q by repeated products.  With N_a, N_e
        the top exponents of g, a term c a^n e^q picks up at most
        k = 2N_a + 2N_e + 2 rounding factors (1 + delta): 1 rounding c to
        double, 2N_a in the a-Horner, N_e in the power and N_e + 1 in the
        product and sum of the columns, in any order, fused or not.  Every
        term is nonnegative, so P = g+ (1 + theta) with |theta| <= gamma_k,
        and likewise N.  P - N adds one factor, and rounding (P - N) - T
        adds at most u (|P - N| + T): one more factor on each term of P - N,
        and T (1 - u) for T.  So lower is at most g+(lo) - g-(hi) +
        gamma_{k+2} M - T (1 - u), M = g+(lo) + g-(hi).  T sums nonnegative
        terms with at most k + 4 factors (the sum, rho's own rounding, the
        product, the addition of mu), so T (1 - u) is at least
        (1 - gamma_{k+5}) rho M, and rho = gamma_{2k+8} makes that at least
        gamma_{k+2} M while (k+5)u <= 1/4.  `upper` is the mirror image.

        Underflow: a product that lands below lambda adds an absolute error
        of at most u lambda (a sum that does is exact).  An error in a power
        e^q stays below 2 N_e u lambda <= lambda/2, as every later factor is
        e <= 1, and reaches the sum times R[i, q]: at most
        lambda sum_q R[i, q] in all.  Every other such error is only
        multiplied by factors a, e^q <= 1 afterwards, and fewer than 2^50 of
        them reach one value, which stays below lambda/4.  So
        mu = lambda (4 + 4 sum_q (R+ + R-)[-1, q]) covers both parts, the
        rounding of the float row sum and of the bounds included: the last
        row, at the largest a, is the largest, as a float Horner on
        nonnegative coefficients is nondecreasing in a.  mu is inf when R
        overflows, and then every bound is infinite or NaN.
        """
        a = np.asarray(a, dtype=float)
        e = np.asarray(e, dtype=float)
        m = self.parts.shape[1] // 2
        powers = np.empty((m, len(e)))
        powers[0] = 1.0
        for q in range(1, m):
            np.multiply(powers[q - 1], e, out=powers[q])
        # an overflow makes a bound infinite or NaN, which decides no box
        with np.errstate(over="ignore", invalid="ignore"):
            R = np.empty((len(a), 2 * m))
            R[...] = self.parts[-1]
            for row in self.parts[-2::-1]:
                R *= a[:, None]
                R += row
            P, N = R[:, :m] @ powers, R[:, m:] @ powers
            mu = _TINY * (4.0 + 4.0 * R[-1].sum())
            lower = (P[:-1, :-1] - N[1:, 1:]) - (self.rho * (P[:-1, :-1] + N[1:, 1:]) + mu)
            upper = (P[1:, 1:] - N[:-1, :-1]) + (self.rho * (P[1:, 1:] + N[:-1, :-1]) + mu)
        return lower, upper

    def signs(self, a: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Per box of `bounds`: 1 where g > 0 on the whole box, -1 where
        g < 0, 0 where the bounds decide nothing (the box is open)."""
        lower, upper = self.bounds(a, e)
        return (lower > 0.0).astype(np.int8) - (upper < 0.0)

