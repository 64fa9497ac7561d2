"""Exact sparse linear algebra over the integers.

Vectors are dicts {coordinate: value}; the elimination core works on
integer vectors with fraction-free cross-multiplication updates and gcd
content stripping, so no rational arithmetic happens during pivoting.
Pivot choice is deterministic: an incoming row's pivot is its smallest
nonzero coordinate.
"""

from __future__ import annotations

from math import gcd


class ConsistencyError(Exception):
    """An exact invariant of the computation failed; the result is not trusted."""


def _strip_content(v: dict[int, int], lead: int) -> dict[int, int]:
    g = 0
    for val in v.values():
        g = gcd(g, val)
        if g == 1:
            break
    if v[lead] < 0:
        g = -g
    if g != 1:
        return {c: val // g for c, val in v.items()}
    return v


class Echelon:
    """Incremental integer row echelon form, rows keyed by pivot column.

    insert stores what residual leaves; residual copies the incoming row once,
    dropping its zeros, and reduces the copy, so the caller's dict is unchanged.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, v: dict[int, int], p: dict[int, int], j: int) -> None:
        """v <- am * v - bm * p in place, with the coordinate j cancelled (zeros dropped)."""
        a, b = p[j], v[j]
        g = gcd(a, b)
        am, bm = a // g, b // g
        if am != 1:
            for c in v:
                v[c] *= am
        for c, val in p.items():
            w = v.get(c, 0) - bm * val
            if w:
                v[c] = w
            else:  # only an existing coordinate can cancel, since bm * val != 0
                del v[c]

    def insert(self, v: dict[int, int]) -> int | None:
        """Reduce v against the current rows; store the remainder if nonzero.

        Returns the new pivot column, or None if v reduced to zero.
        """
        v = self.residual(v)
        if not v:
            return None
        j = min(v)
        self.pivots[j] = _strip_content(v, j)
        return j

    def residual(self, v: dict[int, int]) -> dict[int, int]:
        """Reduce v without inserting; empty iff v lies in the row space."""
        v = {c: val for c, val in v.items() if val}
        while v:
            j = min(v)
            p = self.pivots.get(j)
            if p is None:
                return v
            self._eliminate(v, p, j)
        return {}

    def reduce_fully(self) -> None:
        """Back-substitute so every row is zero at the other pivot columns."""
        for j in sorted(self.pivots, reverse=True):
            row = self.pivots[j]
            others = [c for c in row if c != j and c in self.pivots]
            for c in sorted(others):
                self._eliminate(row, self.pivots[c], c)
            self.pivots[j] = _strip_content(row, j)

