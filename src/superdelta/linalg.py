"""Exact sparse linear algebra over the rationals.

Vectors are dicts {coordinate: value}; the elimination core works on
integer vectors with fraction-free cross-multiplication updates and gcd
content stripping, so no rational arithmetic happens during pivoting.
Pivot choice is deterministic: an incoming row's pivot is its smallest
nonzero coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .rationals import RAT, normalize_scalar


class ConsistencyError(Exception):
    """A vector expected to lie in a subspace did not; an invariance bug."""


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


def _int_vector(v: dict) -> dict[int, int]:
    """Scale a rational vector to integers (does not change its span)."""
    scale = 1
    for val in v.values():
        if not isinstance(val, int):
            d = int(val.denominator)
            scale = scale // gcd(scale, d) * d
    if scale == 1:
        return {c: int(val) for c, val in v.items() if val}
    return {c: int(val * scale) for c, val in v.items() if val}


class Echelon:
    """Incremental integer row echelon form, rows keyed by pivot column."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, v: dict[int, int], p: dict[int, int], j: int) -> dict[int, int]:
        """am * v - bm * p with the coordinate j cancelled (zeros dropped)."""
        a, b = p[j], v[j]
        g = gcd(a, b)
        am, bm = a // g, b // g
        new = dict(v) if am == 1 else {c: am * val for c, val in v.items()}
        for c, val in p.items():
            w = new.get(c, 0) - bm * val
            if w:
                new[c] = w
            else:  # only an existing coordinate can cancel, since bm * val != 0
                del new[c]
        return new

    def insert(self, v: dict[int, int]) -> int | None:
        """Reduce v against the current rows; store the remainder if nonzero.

        Returns the new pivot column, or None if v reduced to zero.
        """
        if any(val == 0 for val in v.values()):
            v = {c: val for c, val in v.items() if val}
        while v:
            j = min(v)
            p = self.pivots.get(j)
            if p is None:
                self.pivots[j] = _strip_content(v, j)
                return j
            v = self._eliminate(v, p, j)
        return None

    def residual(self, v: dict[int, int]) -> dict[int, int]:
        """Reduce v without inserting; empty iff v lies in the row space."""
        while v:
            j = min(v)
            p = self.pivots.get(j)
            if p is None:
                return v
            v = self._eliminate(v, p, j)
        return {}

    def reduce_fully(self) -> None:
        """Back-substitute so every row is zero at the other pivot columns."""
        for j in sorted(self.pivots, reverse=True):
            row = self.pivots[j]
            others = [c for c in row if c != j and c in self.pivots]
            for c in sorted(others):
                row = self._eliminate(row, self.pivots[c], c)
            self.pivots[j] = _strip_content(row, j)

    def basis_rows(self) -> list[tuple[int, dict[int, int]]]:
        """(pivot column, row) pairs in increasing pivot order."""
        return [(j, self.pivots[j]) for j in sorted(self.pivots)]


class RationalMatrix:
    """Sparse matrix with exact entries, stored as row dicts."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: dict[int, dict] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else {}

    @classmethod
    def from_dense(cls, entries) -> RationalMatrix:
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        rows = {}
        for r, row in enumerate(entries):
            d = {c: normalize_scalar(v) for c, v in enumerate(row) if v}
            if d:
                rows[r] = d
        return cls(nrows, ncols, rows)

    @classmethod
    def from_columns(cls, columns: list[dict], nrows: int) -> RationalMatrix:
        rows: dict[int, dict] = {}
        for j, col in enumerate(columns):
            for i, v in col.items():
                rows.setdefault(i, {})[j] = v
        return cls(nrows, len(columns), rows)

    @classmethod
    def identity(cls, n: int) -> RationalMatrix:
        return cls(n, n, {i: {i: 1} for i in range(n)})

    def to_dense(self):
        return [
            [self.rows.get(r, {}).get(c, 0) for c in range(self.ncols)]
            for r in range(self.nrows)
        ]

    def get(self, r: int, c: int):
        return self.rows.get(r, {}).get(c, 0)

    def column(self, j: int) -> dict[int, object]:
        return {r: row[j] for r, row in self.rows.items() if j in row}

    def columns(self) -> list[dict]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> RationalMatrix:
        rows: dict[int, dict] = {}
        for r, row in self.rows.items():
            for c, v in row.items():
                rows.setdefault(c, {})[r] = v
        return RationalMatrix(self.ncols, self.nrows, rows)

    def apply_to_vector(self, v: dict) -> dict:
        """Matrix times a sparse column vector."""
        out: dict[int, object] = {}
        for r, row in self.rows.items():
            s = 0
            for c, val in row.items():
                if c in v:
                    s += val * v[c]
            if s:
                out[r] = normalize_scalar(s)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return self.to_dense() == other.to_dense()

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={sum(len(r) for r in self.rows.values())})"


@dataclass
class RrefResult:
    rank: int
    pivot_rows: list[int]
    pivot_cols: list[int]
    basis: RationalMatrix


def rref(m: RationalMatrix) -> RrefResult:
    """Exact row reduction of m.

    pivot_rows[i] is the original row index that produced the i-th pivot and
    pivot_cols[i] its column.  basis holds the original columns of m at the
    pivot columns (in increasing column order); they span the column space.
    """
    ech = Echelon()
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    for r in sorted(m.rows):
        piv = ech.insert(_int_vector(m.rows[r]))
        if piv is not None:
            pivot_rows.append(r)
            pivot_cols.append(piv)
    basis_cols = [m.column(j) for j in sorted(pivot_cols)]
    basis = RationalMatrix.from_columns(basis_cols, m.nrows)
    return RrefResult(ech.rank, pivot_rows, pivot_cols, basis)


def inverse(matrix: list[list[int]]) -> list[list[object]]:
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
        out.append([normalize_scalar(RAT(-r.get(size + i, 0), s)) for i in range(size)])
    return out


def echelon_from_vectors(vectors, reduced: bool = True, stop_rank: int | None = None) -> Echelon:
    """Echelonize an iterable of integer dict-vectors (consumed in order)."""
    ech = Echelon()
    for v in vectors:
        ech.insert(dict(v))
        if stop_rank is not None and ech.rank >= stop_rank:
            break
    if reduced:
        ech.reduce_fully()
    return ech


def trace_on_reduced_basis(ech: Echelon, apply_action, check: bool = False):
    """Trace of an action preserving the row space of a reduced echelon.

    For reduced rows b_i with pivot j_i, the matrix C of the action in this
    basis satisfies (A b_i)[j_k] = C[k,i] * b_k[j_k], so the trace is the sum
    of (A b_i)[j_i] / b_i[j_i].  With check=True every image is verified to
    lie in the row space (raises ConsistencyError otherwise).
    """
    total = 0
    for j, row in ech.basis_rows():
        image = apply_action(row)
        val = image.get(j, 0)
        if val:
            total += RAT(val, row[j])
        if check and ech.residual(_int_vector(image)):
            raise ConsistencyError("subspace is not stable under the action")
    return normalize_scalar(total)


def restricted_trace(b: RationalMatrix | list, apply_action, check: bool = False):
    """Trace of an operator restricted to the span of the columns of b.

    The operator is given by its action on column vectors (a callable on
    dict-vectors, or a RationalMatrix).  It must map the span into itself;
    with check=True this is verified exactly.
    """
    if isinstance(apply_action, RationalMatrix):
        mat = apply_action
        apply_action = mat.apply_to_vector
    columns = b.columns() if isinstance(b, RationalMatrix) else list(b)
    ncols = len(columns)
    ech = Echelon()
    for col in columns:
        ech.insert(_int_vector(col))
    if ech.rank != ncols:
        raise ValueError(f"columns are not independent: rank {ech.rank} < {ncols}")
    ech.reduce_fully()
    return trace_on_reduced_basis(ech, apply_action, check=check)
