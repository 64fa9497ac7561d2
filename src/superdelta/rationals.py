"""Exact rational scalars.

All engine arithmetic is exact.  Coefficients are Python ints wherever
possible (fast arbitrary precision) and fall back to `RAT` for genuine
fractions.  `RAT` is gmpy2.mpq when available, else fractions.Fraction;
the two are interchangeable for everything done here.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as RAT

    RAT_BACKEND = "gmpy2"
except ImportError:  # gmpy2 is the optional `fast` extra
    from fractions import Fraction as RAT

    RAT_BACKEND = "fraction"


def normalize_scalar(c):
    """Collapse an integral RAT to a plain int; leave everything else alone."""
    if isinstance(c, int):
        return c
    if c.denominator == 1:
        return int(c)
    return c


def scalar_from_str(s: str):
    """Parse "3", "-3" or "3/4" into an int or RAT."""
    s = s.strip()
    if "/" in s:
        return normalize_scalar(RAT(s))
    return int(s)
