"""Symbolic-numeric linearization of hyperbolic Dulac germs.

The package computes the formal parabolic linearization of a hyperbolic
exponential-polynomial series by two independent algorithms, evaluates the
analytic linearizing coordinate as a certified Koenigs limit on quadratic
and admissible domains, and verifies that the formal series is the
asymptotic expansion of the numeric coordinate through decay-rate fits.
"""

from . import domains, dynamics, errors, exprparse, linearize, series
from .series import (
    CPoly,
    DulacForm,
    ExpPolySeries,
    classify,
    compose,
    conjugacy_residual,
    parse_series,
)
from .linearize import (
    LinearizationResult,
    linearize_by_picard,
    linearize_level_by_level,
    picard_linearize,
    solve_difference_eq,
)
from .domains import AsymptoticProfile, QuadRegion, check_invariance, kappa_inv
from .dynamics import AnalyticMap, KoenigsResult, koenigs_limit

__version__ = "0.1.0"
