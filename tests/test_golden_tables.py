"""Golden reference tables of truncated Hansen series.

The default route, Wnuk's, must reproduce every golden entry with exact
rational equality, and the goldens themselves must agree with the
defining-integral quadrature at small eccentricity (so the data stays
independent of the series engines it guards).
"""
from fractions import Fraction

import pytest

from hansenatlas.hansen import HansenKey, hansen
from hansenatlas.oracle import oracle_hansen

from golden_tables import GOLDEN, TRUNC

CASES = [(k, n, m) for k in sorted(GOLDEN) for (n, m) in sorted(GOLDEN[k])]


@pytest.mark.parametrize("k,n,m", CASES)
def test_golden_entry_exact(k, n, m):
    series = hansen(HansenKey(n, m, k), TRUNC[k])
    expected = {q: Fraction(v) for q, v in GOLDEN[k][(n, m)].items()}
    assert dict(series.c) == expected


# per-table absolute tolerance at e = 0.05, sized 3x above the worst truncation
# remainder of that table (largest for the k=0,1 tables, whose rows reach n=15)
QUAD_TOL = {0: 5e-7, 1: 5e-7, 4: 1e-9, 8: 1e-11, 10: 1e-13}


@pytest.mark.parametrize("k", sorted(GOLDEN))
def test_goldens_match_quadrature(k):
    e = 0.05
    for (n, m), cell in sorted(GOLDEN[k].items()):
        value = sum(float(Fraction(c)) * e**q for q, c in cell.items())
        reference = oracle_hansen(n, m, k, e, samples=2048)
        assert value == pytest.approx(reference, abs=QUAD_TOL[k]), (k, n, m)
