import random
from math import gcd

from hypothesis import given, strategies as st

from superdelta.coinvariants import MODP_PRIME, _modp_is_full_rank
from superdelta.linalg import Echelon
from superdelta.rationals import RAT
from unreduced import basis_rows, trace_on_reduced_basis


def echelon_of(rows):
    ech = Echelon()
    for row in rows:
        ech.insert({c: val for c, val in enumerate(row) if val})
    return ech


def transpose(rows, ncols):
    return [[row[c] for row in rows] for c in range(ncols)]


def random_matrix(rng, nrows, ncols, lo=-3, hi=3):
    return [[rng.randrange(lo, hi + 1) for _ in range(ncols)] for _ in range(nrows)]


def matrix_action(a):
    """The dict-vector action v -> a v of a dense matrix."""
    def act(v):
        out = {}
        for r, row in enumerate(a):
            s = sum(row[c] * val for c, val in v.items())
            if s:
                out[r] = s
        return out
    return act


def trace_on_span(vectors, action):
    """Trace of an action restricted to the span of independent vectors."""
    ech = echelon_of(vectors)
    assert ech.rank == len(vectors)
    ech.reduce_fully()
    return trace_on_reduced_basis(ech, action)


def test_rref_identity_and_zero():
    ech = echelon_of([[int(i == j) for j in range(4)] for i in range(4)])
    ech.reduce_fully()
    assert basis_rows(ech) == [(j, {j: 1}) for j in range(4)]
    zero = echelon_of([[0] * 5] * 3)
    assert zero.rank == 0
    assert zero.insert({0: 0, 2: 0}) is None


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
    ech = echelon_of(vectors)
    assert ech.rank == 4
    ech.reduce_fully()
    assert basis_rows(ech) == [(j, {j: 1}) for j in range(4)]


def test_rref_rank_transpose_random():
    rng = random.Random(7)
    for _ in range(25):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = random_matrix(rng, nrows, ncols)
        assert echelon_of(m).rank == echelon_of(transpose(m, ncols)).rank


def test_rref_deterministic_and_idempotent_rank():
    rng = random.Random(11)
    m = random_matrix(rng, 8, 6, -2, 2)
    first, second = echelon_of(m), echelon_of(m)
    assert basis_rows(first) == basis_rows(second)
    # every pivot is the smallest coordinate of its row
    assert all(j == min(row) for j, row in basis_rows(first))
    first.reduce_fully()
    # reduced: each row vanishes at every other pivot column
    for j, row in basis_rows(first):
        assert not (set(row) - {j}) & set(first.pivots)
    # reducing the extracted basis again keeps the rank, pivots and rows
    again = echelon_of([[row.get(c, 0) for c in range(6)] for _, row in basis_rows(first)])
    again.reduce_fully()
    assert basis_rows(again) == basis_rows(first)


def test_restricted_trace_single_column_swap():
    swap = matrix_action([[0, 1], [1, 0]])
    assert trace_on_span([[1, 1]], swap) == 1


def test_restricted_trace_full_space():
    a = [[2, 1, 0], [0, -3, 4], [1, 1, 5]]
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    assert trace_on_span(identity, matrix_action(a)) == 2 - 3 + 5


def test_restricted_trace_theta_span():
    # span of t1 + t2 inside the theta-degree-1 component; the swap fixes it
    def swap_action(v):
        return {0: v.get(1, 0), 1: v.get(0, 0)}
    assert trace_on_span([[1, 1]], swap_action) == 1


def test_restricted_trace_identity_counts_columns():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(2, 6)
        cols = []
        ech = Echelon()
        for _ in range(rng.randrange(1, n + 1)):
            v = [rng.randrange(-3, 4) if rng.random() < 0.7 else 0 for _ in range(n)]
            if ech.insert({i: x for i, x in enumerate(v) if x}) is not None:
                cols.append(v)
        if not cols:
            continue
        assert trace_on_span(cols, lambda v: dict(v)) == len(cols)


def test_restricted_trace_rational_values():
    # action scaling the basis vector by 3/2
    def scale(v):
        return {i: RAT(3, 2) * x for i, x in v.items()}
    assert trace_on_span([[2, 4]], scale) == RAT(3, 2)


def test_echelon_membership():
    ech = Echelon()
    ech.insert({0: 1, 1: 1})
    ech.insert({1: 2, 2: 2})
    assert not ech.residual({0: 1, 2: -1})  # (1,0,-1) = (1,1,0) - (0,1,1)
    assert ech.residual({0: 1})
    ech.reduce_fully()
    assert trace_on_reduced_basis(ech, lambda v: dict(v)) == 2


def test_insert_and_residual_leave_the_callers_row():
    ech = Echelon()
    first = {0: 2, 1: 4, 3: 0}
    assert ech.insert(first) == 0
    assert first == {0: 2, 1: 4, 3: 0}
    first[1] = 99  # the stored row is a copy, not the caller's dict
    assert ech.pivots[0] == {0: 1, 1: 2}
    second = {0: 3, 1: 1, 2: 5}  # reduced against the first row before it is stored
    assert ech.insert(second) == 1
    assert second == {0: 3, 1: 1, 2: 5}
    probe = {0: 1, 1: 7, 2: -1, 4: 0}
    left = ech.residual(probe)
    assert probe == {0: 1, 1: 7, 2: -1, 4: 0}
    assert left and left is not probe and all(left.values())
    member = {0: 1, 1: 2}
    assert ech.residual(member) == {} and member == {0: 1, 1: 2}


@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-6, 6), max_size=6), max_size=8))
def test_insert_stores_what_residual_leaves(rows):
    # insert is residual plus storing the remainder: it inserts nothing for a
    # row residual reduces to zero, and otherwise stores that remainder under
    # its least coordinate, content stripped and lead positive
    ech = Echelon()
    for row in rows:
        before, pivots = dict(row), dict(ech.pivots)
        left = ech.residual(row)
        j = ech.insert(row)
        assert row == before
        if not left:
            assert j is None and ech.pivots == pivots
            continue
        assert j == min(left) and j not in pivots
        g = gcd(*left.values()) * (1 if left[j] > 0 else -1)
        assert ech.pivots == {**pivots, j: {c: x // g for c, x in left.items()}}


def test_rank_invariant_under_row_and_column_permutations():
    rng = random.Random(29)
    deficient = 0
    for _ in range(200):
        nrows, ncols = rng.randrange(1, 13), rng.randrange(1, 13)
        m = [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.3 else 0
              for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:  # a dependent row: a combination of two others
            u, w = rng.sample(m, 2)
            m.append([2 * a - b for a, b in zip(u, w)])
        rank = echelon_of(m).rank
        cols = rng.sample(range(ncols), ncols)
        assert echelon_of([[row[c] for c in cols] for row in rng.sample(m, len(m))]).rank == rank
        assert echelon_of(sorted(m, key=lambda row: sum(map(bool, row)))).rank == rank
        deficient += rank < min(len(m), ncols)
    assert 0 < deficient < 200  # both full and deficient ranks are covered


def test_row_rank_equals_column_rank():
    # isotypic_dimension takes the rank of a system on its columns
    rng = random.Random(41)
    rows_deficient = cols_deficient = empty = 0
    for _ in range(200):
        nrows, ncols = rng.randrange(1, 13), rng.randrange(1, 13)
        m = [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.3 else 0
              for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:  # a dependent row
            u, w = rng.sample(m, 2)
            m.append([2 * a - b for a, b in zip(u, w)])
        if ncols > 1 and rng.random() < 0.5:  # a dependent column
            u, w = rng.sample(range(ncols), 2)
            for row in m:
                row.append(row[u] - 3 * row[w])
        if rng.random() < 0.3:  # an empty column
            k = rng.randrange(len(m[0]) + 1)
            for row in m:
                row.insert(k, 0)
        ncols = len(m[0])
        rank = echelon_of(m).rank
        assert echelon_of(transpose(m, ncols)).rank == rank
        rows_deficient += rank < len(m)
        cols_deficient += rank < ncols
        empty += any(not any(col) for col in transpose(m, ncols))
    assert 0 < rows_deficient < 200 and 0 < cols_deficient < 200 and empty > 0


def test_modp_certificate_matches_exact_full_rank():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(200):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 6)
        m = random_matrix(rng, nrows, ncols, -2, 2)
        vectors = [{c: val for c, val in enumerate(row) if val} for row in m]
        full = echelon_of(m).rank == ncols
        assert _modp_is_full_rank(vectors, ncols) == full
        outcomes.add(full)
    assert outcomes == {True, False}


def test_modp_certificate_is_one_sided():
    # rank 1 over Q, rank 0 mod p: not certified, never a false "full"
    assert echelon_of([[MODP_PRIME]]).rank == 1
    assert not _modp_is_full_rank([{0: MODP_PRIME}], 1)
    assert _modp_is_full_rank([{0: MODP_PRIME + 1}], 1)
