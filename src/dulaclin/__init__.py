"""Symbolic-numeric linearization of hyperbolic Dulac germs.

The package computes the formal parabolic linearization of a hyperbolic
exponential-polynomial series by two independent algorithms, evaluates the
analytic linearizing coordinate as a certified Koenigs limit on quadratic
and admissible domains, and verifies that the formal series is the
asymptotic expansion of the numeric coordinate through decay-rate fits.
"""

__version__ = "0.1.0"
