"""Exact sparse linear algebra over the rationals.

Vectors are dicts {coordinate: value}; the elimination core works on
integer vectors with fraction-free cross-multiplication updates and gcd
content stripping, so no rational arithmetic happens during pivoting.
Pivot choice is deterministic: an incoming row's pivot is its smallest
nonzero coordinate.
"""

from __future__ import annotations

from math import gcd

from .rationals import RAT


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

    insert and residual copy the incoming row once, dropping its zeros, and
    then reduce that copy in place; the caller's dict is never changed.
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
        v = {c: val for c, val in v.items() if val}
        while v:
            j = min(v)
            p = self.pivots.get(j)
            if p is None:
                self.pivots[j] = _strip_content(v, j)
                return j
            self._eliminate(v, p, j)
        return None

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

    def basis_rows(self) -> list[tuple[int, dict[int, int]]]:
        """(pivot column, row) pairs in increasing pivot order."""
        return [(j, self.pivots[j]) for j in sorted(self.pivots)]


def inverse(matrix: list[list[int]]) -> list[list[RAT]]:
    """Exact inverse of a square integer matrix K (ValueError if singular).

    The rows [K_i | e_i] go into an Echelon, whose pivots are then exactly the
    columns of K.  Reducing [e_j | 0 | 1] against them leaves [0 | -s x | s],
    where x K = e_j and s is the scale the fraction-free elimination applied,
    so row j of K^-1 is -(middle block) / s.
    """
    size = len(matrix)
    ech = Echelon()
    for i, row in enumerate(matrix):
        v = {j: val for j, val in enumerate(row) if val}
        v[size + i] = 1
        ech.insert(v)
    if sorted(ech.pivots) != list(range(size)):
        raise ValueError("matrix is singular")
    out = []
    for j in range(size):
        r = ech.residual({j: 1, 2 * size: 1})
        s = r[2 * size]
        out.append([RAT(-r.get(size + i, 0), s) for i in range(size)])
    return out


def trace_on_reduced_basis(ech: Echelon, apply_action):
    """Trace of an action preserving the row space of a reduced echelon.

    For reduced rows b_i with pivot j_i, the matrix C of the action in this
    basis satisfies (A b_i)[j_k] = C[k,i] * b_k[j_k], so the trace is the sum
    of (A b_i)[j_i] / b_i[j_i].
    """
    total = 0
    for j, row in ech.basis_rows():
        val = apply_action(row).get(j, 0)
        if val:
            total += RAT(val, row[j])
    return total
