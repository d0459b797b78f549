"""Certificates for traced zero-curve counts.

A count from `trace_surface` rests on the sign of the coefficient at every
grid node, which the tracer takes exactly, and on one floating-point
decision: the bisection of every edge crossing to |fhat| <= EPS_CURVE.
`grid_sign_margin` checks that float Horner alone settles the signs, by
Horner's error bound (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 5); `dropped_crossings` counts failures of the
bisection from the INFO record the tracer already emits.
"""
import contextlib
import logging
from typing import Tuple

import numpy as np

from hansenatlas.atlas import PolyEval, grid_axis
from hansenatlas.series import SeriesAE

UNIT_ROUNDOFF = 2.0**-53


def grid_sign_margin(series: SeriesAE, grid_n: int) -> Tuple[int, float]:
    """(unsettled, worst) for the float Horner signs of `series` on the grid.

    The tracer's own signs are exact (`enclose.Enclosure.node_signs`
    settles every node its bounds leave open exactly); this is an
    independent check of the signs of `PolyEval.at` broadcast over the grid:
    Horner in a (degree N_a), then in e (degree N_e), on coefficients
    rounded to double.
    Its error is at most gamma_K * sum |c| a^n e^q with K = 2(N_a+N_e)+1; the
    bound used here takes k = K+4, which also covers evaluating the |c| series
    in floating point.  A node whose |value| does not exceed the bound counts
    as unsettled; `worst` is the largest bound/|value| over the grid.
    """
    k = 2 * (series.trunc_a + series.trunc_e + 2) + 1
    gamma = k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)
    magnitude = SeriesAE(
        {key: abs(v) for key, v in series.c.items()}, series.trunc_a, series.trunc_e
    )
    ax = grid_axis(grid_n)
    value = np.abs(PolyEval(series).at(ax[:, None], ax[None, :]))
    bound = gamma * PolyEval(magnitude).at(ax[:, None], ax[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = float(np.max(bound / value))
    return int(np.count_nonzero(value <= bound)), worst


class _DroppedCrossings(logging.Handler):
    def __init__(self, mode):
        super().__init__(logging.INFO)
        self.mode = mode
        self.total = 0

    def emit(self, record):
        # "mode %s order %s: %d edge crossings above eps dropped"
        if record.msg.endswith("edge crossings above eps dropped") and (
            self.mode is None or record.args[0] == self.mode
        ):
            self.total += record.args[-1]


@contextlib.contextmanager
def dropped_crossings(mode=None):
    """Yield a counter whose `total` sums the edge crossings that tracing
    inside the block dropped for bisecting to |fhat| > eps; given a `mode`,
    only those of that mode's own surfaces (not of its multiples)."""
    atlas_log = logging.getLogger("hansenatlas.atlas")
    level = atlas_log.level
    counter = _DroppedCrossings(mode)
    atlas_log.setLevel(logging.INFO)
    atlas_log.addHandler(counter)
    try:
        yield counter
    finally:
        atlas_log.removeHandler(counter)
        atlas_log.setLevel(level)
