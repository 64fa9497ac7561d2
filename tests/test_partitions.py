from itertools import permutations
from math import factorial

import pytest

from superdelta.partitions import (
    arm,
    cells,
    check_partition,
    conjugate,
    cycle_type,
    cycles_of,
    dominates,
    hook_lengths,
    leg,
    partition_from_str,
    partition_to_str,
    partitions_of,
    perm_of_cycle_type,
    syt_count,
    z_mu,
)


def brute_partitions(n):
    """Independent oracle: filter weakly decreasing compositions."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, prefix + (p,))

    rec(n, n, ())
    return out


def brute_syt_count(shape):
    """Independent oracle: count standard tableaux by backtracking."""
    n = sum(shape)
    if n == 0:
        return 1
    count = 0
    rows = [[] for _ in shape]

    def place(k):
        nonlocal count
        if k > n:
            count += 1
            return
        for i, row in enumerate(rows):
            if len(row) >= shape[i]:
                continue
            j = len(row)
            if i > 0 and len(rows[i - 1]) <= j:
                continue
            row.append(k)
            place(k + 1)
            row.pop()

    place(1)
    return count


def test_partitions_of_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))


def test_partitions_of_matches_bruteforce():
    for n in range(9):
        assert list(partitions_of(n)) == brute_partitions(n)


def test_partitions_reverse_lex_order():
    for n in range(8):
        ps = partitions_of(n)
        assert all(ps[i] > ps[i + 1] for i in range(len(ps) - 1))
        for mu in ps:
            check_partition(mu)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_z_mu_values():
    assert z_mu((1, 1, 1)) == 6
    assert z_mu((2, 1)) == 2
    for n in range(1, 8):
        assert z_mu((n,)) == n
    assert z_mu(()) == 1


def test_z_mu_counts_permutations_by_type():
    # the number of permutations of cycle type mu is n!/z_mu
    for n in range(1, 7):
        counts = {}
        for perm in permutations(range(1, n + 1)):
            t = cycle_type(perm)
            counts[t] = counts.get(t, 0) + 1
        assert set(counts) == set(partitions_of(n))
        for mu, c in counts.items():
            assert c == factorial(n) // z_mu(mu)


def test_cycle_type_examples():
    assert cycle_type((1, 2, 3)) == (1, 1, 1)
    assert cycle_type((2, 1, 3)) == (2, 1)
    assert cycle_type((2, 3, 1)) == (3,)


def test_perm_of_cycle_type_roundtrip():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert cycle_type(perm_of_cycle_type(mu)) == mu


def test_cycles_of():
    sigma = perm_of_cycle_type((3, 2))
    assert [len(c) for c in cycles_of(sigma)] == [3, 2]
    tau = (4, 2, 3, 1, 5)  # the transposition of 1 and 4
    assert cycles_of(tau) == [[1, 4], [2], [3], [5]]
    assert cycle_type(tau) == (2, 1, 1, 1)
    assert cycles_of((1, 2, 3, 4, 5)) == [[1], [2], [3], [4], [5]]


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    for n in range(8):
        for mu in partitions_of(n):
            assert conjugate(conjugate(mu)) == mu


def test_cells_arm_leg():
    mu = (3, 1)
    assert cells(mu) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert arm(mu, 0, 0) == 2 and leg(mu, 0, 0) == 1
    assert arm(mu, 0, 2) == 0 and leg(mu, 0, 2) == 0
    assert arm(mu, 1, 0) == 0 and leg(mu, 1, 0) == 0
    assert sorted(hook_lengths(mu)) == [1, 1, 2, 4]


def test_dominance():
    assert dominates((3,), (2, 1))
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 2))


def test_syt_count_against_bruteforce():
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert syt_count(mu) == brute_syt_count(mu)


def test_partition_strings():
    assert partition_to_str((3, 1)) == "3,1"
    assert partition_to_str(()) == "-"
    assert partition_from_str("3,1") == (3, 1)
    assert partition_from_str("-") == ()
    for n in range(7):
        for mu in partitions_of(n):
            assert partition_from_str(partition_to_str(mu)) == mu
    with pytest.raises(ValueError):
        partition_from_str("1,2")
