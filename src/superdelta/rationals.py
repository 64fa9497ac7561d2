"""The one rational type.

Polynomial coefficients are Python ints.  `RAT` serves the few genuine
divisions: the Young pairings and the K^-1 solve.
"""

from fractions import Fraction as RAT
