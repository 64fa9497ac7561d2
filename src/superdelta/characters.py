"""Irreducible symmetric group characters and Kostka numbers.

Characters come from the Murnaghan-Nakayama border-strip recursion,
implemented on beta-sets (first-column hook lengths): removing a strip of
length ell from lam is replacing a beta number b by b - ell, with sign
(-1)^(number of beta numbers strictly between them).
"""

from __future__ import annotations

from functools import cache

from .partitions import Partition, partitions_of, z_mu
from .rationals import RAT


@cache
def _chi(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1 if not lam else 0
    ell, rest = mu[0], mu[1:]
    length = len(lam)
    betas = [lam[i] + (length - 1 - i) for i in range(length)]
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - ell
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in betas if nb < x < b)
        newbetas = sorted((x for x in betas if x != b), reverse=True)
        newbetas.append(nb)
        newbetas.sort(reverse=True)
        newlam = []
        for i, x in enumerate(newbetas):
            part = x - (length - 1 - i)
            if part > 0:
                newlam.append(part)
        sub = _chi(tuple(newlam), rest)
        if sub:
            total += -sub if height % 2 else sub
    return total


def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value chi^lam(mu) for lam, mu partitions of the same n."""
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _chi(tuple(lam), tuple(sorted(mu, reverse=True)))


class CharacterTable:
    """All values chi^lam(mu) for lam, mu partitions of n."""

    def __init__(self, n: int):
        self.n = n
        self.partitions = partitions_of(n)
        self.table = {
            (lam, mu): mn_character(lam, mu)
            for lam in self.partitions
            for mu in self.partitions
        }

    def value(self, lam: Partition, mu: Partition) -> int:
        return self.table[(lam, mu)]

    def dimension(self, lam: Partition) -> int:
        return self.table[(lam, (1,) * self.n)]


@cache
def character_table(n: int) -> CharacterTable:
    return CharacterTable(n)


@cache
def standard_kronecker(n: int) -> tuple[tuple[int, ...], ...]:
    """[s_lam](s_(n-1,1) * s_mu), rows mu and columns lam indexed like partitions_of(n).

    * is the Kronecker product: the character of s_(n-1,1) is fix(g) - 1, so
    the entry is sum_nu (fix(nu) - 1) chi^mu(nu) chi^lam(nu) / z_nu.  At
    n = 1 that character is 0, and so is the table.
    """
    table = character_table(n)
    lams = table.partitions
    out = []
    for mu in lams:
        row = []
        for lam in lams:
            value = sum(
                RAT((nu.count(1) - 1) * table.value(mu, nu) * table.value(lam, nu), z_mu(nu))
                for nu in lams
            )
            if value.denominator != 1:
                raise ValueError(f"non-integer Kronecker coefficient at {mu}, {lam}: {value}")
            row.append(int(value))
        out.append(tuple(row))
    return tuple(out)


def _horizontal_strip_predecessors(lam: Partition, size: int):
    """Shapes rho with lam/rho a horizontal strip of the given size."""
    length = len(lam)

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == length:
            if remaining == 0:
                yield tuple(p for p in prefix if p > 0)
            return
        lo = lam[i + 1] if i + 1 < length else 0
        for rho_i in range(lam[i], lo - 1, -1):
            removed = lam[i] - rho_i
            if removed > remaining:
                break
            yield from rec(i + 1, remaining - removed, prefix + (rho_i,))

    yield from rec(0, size, ())


@cache
def kostka(lam: Partition, nu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content nu."""
    if sum(lam) != sum(nu):
        raise ValueError(f"size mismatch: |{lam}| != |{nu}|")
    if not lam:
        return 1
    if not nu:
        return 0
    total = 0
    for rho in _horizontal_strip_predecessors(lam, nu[-1]):
        total += kostka(rho, nu[:-1])
    return total


__all__ = [
    "CharacterTable",
    "character_table",
    "kostka",
    "mn_character",
    "standard_kronecker",
]
