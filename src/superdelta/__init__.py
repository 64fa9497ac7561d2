"""Exact verification engine for the super-diagonal coinvariant identity.

The package computes, from first principles, the tri-graded Frobenius
characteristic of the quotient of Q[x, y, theta] (theta Grassmann) by the
ideal of polarized power sums and their theta-twisted companions, and
independently the Delta-prime operator series

    Delta'_{e_(n-1) + z e_(n-2) + ... + z^(n-1)}(e_n),

then compares the two Schur expansions, whose coefficients are integer
polynomials in q, t, z, coefficient by coefficient.
"""

from .coinvariants import ModuleSideResult, frobenius_module
from .macdonald import rhs_series
from .series import FrobeniusSeries
from .verifier import VerificationReport, render_report, verify_conjecture

__version__ = "0.1.0"
