"""Certified bounds of a truncated coefficient on a tensor grid of the unit
square: on its boxes, and the exact sign at its nodes.

Every term of f_{m,k} has n >= m* and q >= |m-k|, so f = a^{m*} e^{|m-k|} g
exactly, with g(0,0) = 2 t_{m,k} != 0: g has the zeros of f in (0,1]^2
without the forced zeros on the axes.  `Enclosure` divides a series by its
lowest a- and e-exponents present, which are m* and |m-k| for a mode, so it
serves any SeriesAE.

Monotone split, in double (Martin, Shou, Voiculescu, Bowyer & Wang,
"Comparison of interval methods for plotting algebraic curves", Computer
Aided Geometric Design 19, 2002): g = g+ - g- with g+ the terms of positive
and g- those of negative coefficient, negated.  Both increase in a and in e
on [0,1]^2, so on a box [lo, hi] inside it

    g+(lo) - g-(hi) <= g <= g+(hi) - g-(lo),

and g+ and g- sum nonnegative terms, whose float error is relative, with no
cancellation.  A grid node x is the box [x, x]: where its bounds have one
sign, that is the sign of g, and so of f on (0,1]^2; elsewhere the sign is
taken from the exact value.  The tracer reads the bounds on boxes of
BOX x BOX grid cells and the node signs in the boxes those leave open.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from .series import SeriesAE

BOX = 16  # grid cells per side of the tracer's boxes

_U = 2.0**-53  # unit roundoff
_TINY = np.finfo(float).tiny  # 2^-1022, the smallest normal double

Index = Union[slice, np.ndarray]


def box_corners(n: int) -> np.ndarray:
    """The node indices of the box corners on an axis of n >= 2 nodes:
    0, BOX, 2 BOX, ... and n - 1, so the last box may be narrower."""
    return np.append(np.arange(0, n - 1, BOX), n - 1)


class Enclosure:
    """Bounds of g = series / (a^n0 e^q0) on the tensor grid a x e, for
    nondecreasing axes with values in [0, 1], with n0 and q0 the lowest a-
    and e-exponents of the series.  The a-Horner of g+ and g- and the powers
    of e are taken once, on the whole axes, for the boxes and the nodes.

    Why the bounds hold (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 2, 3 and 5; u = 2^-53, lambda = 2^-1022,
    gamma_k = ku/(1-ku)).  g+ at the node (a_i, e_j) is
    sum_q R+[q, i] E[q, j], one matrix product: R+[q, i] the a-Horner at a_i
    of column q of g+'s coefficients, E[q, j] = e_j^q by repeated products,
    both over the e-exponents q present in g.  With N_a, N_e the top
    exponents of g, a term c a^n e^q picks up at most k = 2N_a + 2N_e + 2
    rounding factors (1 + delta): 1 rounding c to double, 2N_a in the
    a-Horner, N_e in the power and N_e + 1 in the product and sum of the
    columns, in any order, fused or not.  Every term is nonnegative, so
    P = g+ (1 + theta) with |theta| <= gamma_k, and likewise N = g- from its
    own product.  With P and N the computed g+(lo) and g-(hi) of a box (for
    the upper bound, g+(hi) and g-(lo)),

        lower = (P - N) - T,  upper = (P - N) + T,  T = rho (P + N) + mu.

    P - N adds one factor, and rounding (P - N) - T adds at most
    u (|P - N| + T): one more factor on each term of P - N, and T (1 - u) for
    T.  So lower is at most g+(lo) - g-(hi) + gamma_{k+2} M - T (1 - u),
    M = g+(lo) + g-(hi).  T sums nonnegative terms with at most k + 4 factors
    (the sum, rho's own rounding, the product, the addition of mu), so
    T (1 - u) is at least (1 - gamma_{k+5}) rho M, and rho = gamma_{2k+8}
    makes that at least gamma_{k+2} M while (k+5)u <= 1/4.  `upper` is the
    mirror image, and a node is the box with lo = hi (`node_signs`).

    Underflow: a product that lands below lambda adds an absolute error of at
    most u lambda (a sum that does is exact).  An error in a power e^q stays
    below 2 N_e u lambda <= lambda/2, as every later factor is e <= 1, and
    reaches the sum times R[q, i]: at most lambda sum_q R[q, i] in all.
    Every other such error is only multiplied by factors a, e^q <= 1
    afterwards, and fewer than 2^50 of them reach one value, which stays
    below lambda/4.  So mu = 4 lambda (1 + sum_q (R+ + R-)[q, -1]) covers both
    parts, the rounding of the float sum and of the bounds included: the
    last column, at the largest a, is the largest, as a float Horner on
    nonnegative coefficients is nondecreasing in a.  mu is inf when R
    overflows, and then every bound is infinite or NaN and decides nothing.
    """

    def __init__(self, series: SeriesAE, a: np.ndarray, e: np.ndarray):
        self.series = series
        self.a = np.asarray(a, dtype=float)
        self.e = np.asarray(e, dtype=float)
        keys = np.array(list(series.num), dtype=int).reshape(-1, 2)
        if len(keys):
            keys -= keys.min(axis=0)
        top_a, top_e = keys.max(axis=0, initial=0)
        C = np.zeros((top_a + 1, top_e + 1))
        # int / int rounds correctly
        C[keys[:, 0], keys[:, 1]] = [v / series.den for v in series.num.values()]
        k = 2 * (top_a + top_e + 1)
        self.rho = (2 * k + 8) * _U / (1.0 - (2 * k + 8) * _U)
        powers = np.empty((top_e + 1, len(self.e)))
        powers[0] = 1.0
        for q in range(1, top_e + 1):
            np.multiply(powers[q - 1], self.e, out=powers[q])
        cols = np.flatnonzero(C.any(axis=0))  # a zero column adds nothing
        self._E = np.ascontiguousarray(powers[cols])
        # g+ and g- side by side, for one a-Horner, which adds no zero row
        parts = np.hstack([np.maximum(C[:, cols], 0.0), np.maximum(-C[:, cols], 0.0)])
        nonzero = parts.any(axis=1)
        # an overflow makes a bound infinite or NaN, which decides nothing
        with np.errstate(over="ignore", invalid="ignore"):
            R = np.empty((parts.shape[1], len(self.a)))
            R[...] = parts[-1, :, None]
            for n in range(len(parts) - 2, -1, -1):
                R *= self.a
                if nonzero[n]:
                    R += parts[n, :, None]
            self.mu = 4.0 * _TINY * (1.0 + R[:, -1].sum())
        self._R = R

    def _products(self, rows: Index, cols: Index) -> Tuple[np.ndarray, np.ndarray]:
        """(P, N): the computed g+ and g- at the nodes (a[rows], e[cols])."""
        R, E = self._R[:, rows], self._E[:, cols]
        m = len(E)
        with np.errstate(over="ignore", invalid="ignore"):
            return R[:m].T @ E, R[m:].T @ E

    def bounds(
        self, rows: Index = slice(None), cols: Index = slice(None)
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(lower, upper): lower[i, j] <= g <= upper[i, j] on the box
        [a[rows][i], a[rows][i+1]] x [e[cols][j], e[cols][j+1]] of the
        subgrid a[rows] x e[cols]; NaN where an evaluation overflowed."""
        P, N = self._products(rows, cols)
        p_lo, n_hi, p_hi, n_lo = P[:-1, :-1], N[1:, 1:], P[1:, 1:], N[:-1, :-1]
        with np.errstate(over="ignore", invalid="ignore"):
            lower = (p_lo - n_hi) - (self.rho * (p_lo + n_hi) + self.mu)
            upper = (p_hi - n_lo) + (self.rho * (p_hi + n_lo) + self.mu)
        return lower, upper

    def signs(self, rows: Index = slice(None), cols: Index = slice(None)) -> np.ndarray:
        """Per box of `bounds`: 1 where g > 0 on the whole box, -1 where
        g < 0, 0 where the bounds decide nothing (the box is open)."""
        lower, upper = self.bounds(rows, cols)
        return (lower > 0.0).astype(np.int8) - (upper < 0.0)

    def node_signs(self, strips: Sequence[Tuple[slice, Index]]) -> Tuple[List[np.ndarray], int]:
        """(blocks, settled): for each strip (rows, cols) of `strips`, a slice
        of `a` and an index array or slice of `e`, blocks[s][i, j] is True
        where the series is positive at the node (a[rows][i], e[cols][j]) in
        (0, 1]^2, exactly.  A node is the box with lo = hi: with D = P - N and
        T = rho (P + N) + mu as in `bounds`, its lower bound D - T is positive
        exactly where D > T and its upper bound D + T negative where -D > T,
        as a float difference is 0 only between equal floats, so the node
        takes the sign of D where |D| > T.  Any other node, NaN and inf
        included, is evaluated by `eval_exact`; `settled` counts those."""
        if not len(self._E):  # the zero series: no node is positive
            return [np.zeros((len(self.a[r]), len(self.e[c])), dtype=bool) for r, c in strips], 0
        blocks = []
        settled = 0
        for rows, cols in strips:
            P, N = self._products(rows, cols)
            with np.errstate(over="ignore", invalid="ignore"):
                D = P - N
                P += N  # T, in place
                P *= self.rho
                P += self.mu
                unsure = ~(np.abs(D) > P)
            S = D > 0.0
            if unsure.any():
                a, e = self.a[rows], self.e[cols]
                for i, j in zip(*np.nonzero(unsure)):
                    S[i, j] = self.series.eval_exact(float(a[i]), float(e[j])) > 0
                    settled += 1
            blocks.append(S)
        return blocks, settled
