import pytest

from superdelta.characters import (
    character_table,
    kostka,
    mn_character,
    standard_kronecker,
    strip_count,
)
from superdelta.partitions import conjugate, dominates, partitions_of, syt_count, z_mu
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
            assert character_table(n).value(lam, (1,) * n) == syt_count(lam)


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


def test_vertical_strips_count_tableaux_of_the_conjugate():
    # <s_lam, e_nu> = <s_lam', h_nu> (omega), and mixed factors commute
    for n in range(1, 7):
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                assert strip_count(lam, tuple((k, True) for k in nu)) == kostka(conjugate(lam), nu)
                mixed = tuple((k, i % 2 == 1) for i, k in enumerate(nu))
                assert strip_count(lam, mixed) == strip_count(lam, mixed[::-1]), (lam, nu)
            assert strip_count(lam, ((n, True),)) == (lam == (1,) * n)
    assert strip_count((2, 1), ((1, False),)) == 0  # sizes differ: no chain of strips


def remove_add(mu):
    """s_(n-1,1) * s_mu by the rule: s_mu restricted to S_(n-1) and induced
    back (every way to remove a corner box and add a box), less s_mu once."""
    out = {}
    for i in range(len(mu)):
        if i + 1 < len(mu) and mu[i] == mu[i + 1]:
            continue  # no corner in row i
        nu = list(mu[:i]) + [mu[i] - 1] * (mu[i] > 1) + list(mu[i + 1:])
        for j in range(len(nu) + 1):
            if j == 0 or nu[j - 1] > (nu[j] if j < len(nu) else 0):
                lam = tuple(nu[:j]) + ((nu[j] + 1,) if j < len(nu) else (1,)) + tuple(nu[j + 1:])
                out[lam] = out.get(lam, 0) + 1
    out[mu] -= 1
    return {lam: m for lam, m in out.items() if m}


def test_standard_kronecker_is_remove_a_box_add_a_box():
    for n in range(1, 8):
        lams = partitions_of(n)
        table = standard_kronecker(n)
        for mu, row in zip(lams, table):
            assert {lam: k for lam, k in zip(lams, row) if k} == remove_add(mu), mu
    # s_(n-1,1) does not exist at n = 1: the character fix(g) - 1 is 0
    assert standard_kronecker(1) == ((0,),)
    # s_(2,1) * s_(2,1) = s_3 + s_21 + s_111
    assert standard_kronecker(3)[1] == (1, 1, 1)


def test_standard_kronecker_is_the_character_sum():
    # the character route: [s_lam](s_(n-1,1) * s_mu) = <(fix - 1) chi^mu, chi^lam>
    for n in range(1, 8):
        table = character_table(n)
        lams = partitions_of(n)
        want = tuple(
            tuple(sum(RAT((nu.count(1) - 1) * table.value(mu, nu) * table.value(lam, nu), z_mu(nu))
                      for nu in lams) for lam in lams)
            for mu in lams)
        assert standard_kronecker(n) == want, n
