import pytest

from superdelta.characters import (
    character_table,
    kostka,
    mn_character,
)
from superdelta.partitions import dominates, partitions_of, syt_count, z_mu
from superdelta.rationals import RAT


def brute_kostka(lam, nu):
    """Independent oracle: enumerate semistandard tableaux directly."""
    rows = [[0] * p for p in lam]
    content = list(nu)
    count = 0

    def fill(i, j):
        nonlocal count
        if i == len(lam):
            count += 1
            return
        ni, nj = (i, j + 1) if j + 1 < lam[i] else (i + 1, 0)
        for letter in range(1, len(nu) + 1):
            if content[letter - 1] == 0:
                continue
            if j > 0 and rows[i][j - 1] > letter:
                continue
            if i > 0 and rows[i - 1][j] >= letter:
                continue
            rows[i][j] = letter
            content[letter - 1] -= 1
            fill(ni, nj)
            content[letter - 1] += 1
            rows[i][j] = 0

    if sum(lam) == 0:
        return 1
    fill(0, 0)
    return count


def test_trivial_and_sign_characters():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert mn_character((n,), mu) == 1
            sign = (-1) ** (n - len(mu))
            assert mn_character((1,) * n, mu) == sign


def test_frozen_small_values():
    # chi^(2,1) at the identity counts the two standard tableaux of (2,1)
    assert mn_character((2, 1), (1, 1, 1)) == 2
    assert mn_character((1, 1), (2,)) == -1
    assert mn_character((2, 1), (3,)) == -1
    assert mn_character((2, 2), (2, 1, 1)) == 0


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2, 2))


def test_identity_column_is_syt_count():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert mn_character(lam, (1,) * n) == syt_count(lam)
            assert character_table(n).dimension(lam) == syt_count(lam)


def test_orthogonality():
    for n in range(1, 6):
        table = character_table(n)
        for lam in partitions_of(n):
            for kap in partitions_of(n):
                total = sum(
                    RAT(table.value(lam, mu) * table.value(kap, mu), z_mu(mu))
                    for mu in partitions_of(n)
                )
                assert total == (1 if lam == kap else 0)


def test_kostka_examples():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((1, 1), (2,)) == 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1


def test_kostka_against_bruteforce():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                assert kostka(lam, nu) == brute_kostka(lam, nu)


def test_kostka_dominance_triangularity():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                if kostka(lam, nu) != 0:
                    assert dominates(lam, nu)


def test_kostka_size_mismatch():
    with pytest.raises(ValueError):
        kostka((2,), (1, 1, 1))
