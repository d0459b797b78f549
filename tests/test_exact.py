"""Binomial conventions."""
from fractions import Fraction

import pytest

from hansenatlas.exact import binomial_general, binomial_rational, pochhammer


def test_binomial_standard():
    assert binomial_general(5, 2) == 10
    assert binomial_general(2, 5) == 0
    assert binomial_general(0, 0) == 1


def test_binomial_negative_upper_index():
    # C(-u, p) = (-1)^p C(u+p-1, p)
    assert binomial_general(-3, 2) == 6
    assert binomial_general(-1, 5) == -1
    assert binomial_general(-2, 3) == -4
    assert binomial_general(-7, 0) == 1


def test_binomial_negative_lower_index_rejected():
    with pytest.raises(ValueError):
        binomial_general(3, -1)


def test_binomial_rational_top():
    assert binomial_rational(Fraction(3, 2), 2) == Fraction(3, 8)
    assert binomial_rational(Fraction(3, 2), 3) == Fraction(-1, 16)
    assert binomial_rational(Fraction(1, 2), 1) == Fraction(1, 2)
    assert binomial_rational(5, 2) == 10


def test_pochhammer():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert pochhammer(3, 0) == 1
    assert pochhammer(-2, 4) == 0  # crosses zero
