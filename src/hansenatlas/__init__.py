"""Exact Hansen-coefficient expansions of the planar circular restricted
three-body perturbing function, asymptotic leading coefficients of its Fourier
modes, and zero-curve atlases on the unit square."""

__version__ = "0.1.0"

from .fourier import Mode, fourier_coefficient, t_mk  # noqa: F401
from .hansen import HansenKey, hansen  # noqa: F401
from .series import SeriesAE, SeriesE  # noqa: F401
