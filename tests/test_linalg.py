import random

import pytest

from superdelta.linalg import (
    ConsistencyError,
    Echelon,
    RationalMatrix,
    inverse,
    restricted_trace,
    rref,
    trace_on_reduced_basis,
)
from superdelta.rationals import RAT


def test_rref_identity_and_zero():
    assert rref(RationalMatrix.identity(4)).rank == 4
    assert rref(RationalMatrix(3, 5)).rank == 0


def test_rref_theta_component_spanning_matrix():
    # the five spanning vectors of the ideal at x-degree 1, theta-degree 1
    # for two variables, in coordinates (x1t1, x1t2, x2t1, x2t2):
    #   x1*t1 + x2*t2, x1*(t1 + t2), x2*(t1 + t2), (x1 + x2)*t1, (x1 + x2)*t2
    vectors = [
        [1, 0, 0, 1],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ]
    m = RationalMatrix.from_dense(vectors).transpose()  # vectors as columns
    result = rref(m.transpose())  # row-reduce the vectors
    assert result.rank == 4
    assert len(result.pivot_rows) == 4
    assert len(result.pivot_cols) == 4
    # basis columns span the column space of the input
    assert result.basis.ncols == 4


def test_rref_rank_transpose_random():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = RationalMatrix.from_dense(
            [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        )
        assert rref(m).rank == rref(m.transpose()).rank


def test_rref_deterministic_and_idempotent_rank():
    rng = random.Random(11)
    m = RationalMatrix.from_dense(
        [[rng.randrange(-2, 3) for _ in range(6)] for _ in range(8)]
    )
    r1, r2 = rref(m), rref(m)
    assert r1.rank == r2.rank
    assert r1.pivot_cols == r2.pivot_cols
    assert r1.pivot_rows == r2.pivot_rows
    # reducing the extracted basis again preserves the rank
    assert rref(r1.basis).rank == r1.rank


def test_restricted_trace_single_column_swap():
    b = RationalMatrix.from_dense([[1], [1]])
    swap = RationalMatrix.from_dense([[0, 1], [1, 0]])
    assert restricted_trace(b, swap) == 1


def test_restricted_trace_full_space():
    a = RationalMatrix.from_dense([[2, 1, 0], [0, -3, 4], [1, 1, 5]])
    assert restricted_trace(RationalMatrix.identity(3), a) == 2 - 3 + 5


def test_restricted_trace_theta_span():
    # span of t1 + t2 inside the theta-degree-1 component; the swap fixes it
    b = RationalMatrix.from_dense([[1], [1]])
    def swap_action(v):
        return {0: v.get(1, 0), 1: v.get(0, 0)}
    assert restricted_trace(b, swap_action) == 1


def test_restricted_trace_identity_counts_columns():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(2, 6)
        cols = []
        ech = Echelon()
        for _ in range(rng.randrange(1, n + 1)):
            v = {i: rng.randrange(-3, 4) for i in range(n) if rng.random() < 0.7}
            if v and ech.insert(dict(v)) is not None:
                cols.append(v)
        if not cols:
            continue
        b = RationalMatrix.from_columns(cols, n)
        assert restricted_trace(b, lambda v: dict(v)) == len(cols)


def test_restricted_trace_rejects_dependent_columns():
    b = RationalMatrix.from_dense([[1, 2], [1, 2]])
    with pytest.raises(ValueError):
        restricted_trace(b, lambda v: dict(v))


def test_restricted_trace_detects_unstable_subspace():
    b = RationalMatrix.from_dense([[1], [0]])  # span of e0
    rot = RationalMatrix.from_dense([[0, -1], [1, 0]])  # e0 -> e1: leaves span
    with pytest.raises(ConsistencyError):
        restricted_trace(b, rot, check=True)


def test_restricted_trace_rational_values():
    # action scaling the basis vector by 3/2
    b = RationalMatrix.from_dense([[2], [4]])
    def scale(v):
        return {i: RAT(3, 2) * x for i, x in v.items()}
    assert restricted_trace(b, scale) == RAT(3, 2)


def test_echelon_membership():
    ech = Echelon()
    ech.insert({0: 1, 1: 1})
    ech.insert({1: 2, 2: 2})
    assert not ech.residual({0: 1, 2: -1})  # (1,0,-1) = (1,1,0) - (0,1,1)
    assert ech.residual({0: 1})
    ech.reduce_fully()
    assert trace_on_reduced_basis(ech, lambda v: dict(v)) == 2


def test_inverse_random_and_singular():
    rng = random.Random(11)
    for size in range(1, 7):
        for _ in range(10):
            m = [[rng.randrange(-4, 5) for _ in range(size)] for _ in range(size)]
            if rref(RationalMatrix.from_dense(m)).rank < size:
                with pytest.raises(ValueError):
                    inverse(m)
                continue
            inv = inverse(m)
            for i in range(size):
                for j in range(size):
                    entry = sum(inv[i][k] * m[k][j] for k in range(size))
                    assert entry == (1 if i == j else 0)
    assert inverse([[2, 0], [0, 4]]) == [[RAT(1, 2), 0], [0, RAT(1, 4)]]
    with pytest.raises(ValueError):
        inverse([[1, 2], [2, 4]])
