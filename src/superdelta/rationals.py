"""The one rational type.

Polynomial coefficients are Python ints.  `RAT` serves the few genuine
divisions: the Young pairings, the K^-1 solve and the reference trace.
"""

from fractions import Fraction as RAT
