"""Irreducible symmetric group characters and integer Schur pairings.

Characters come from the Murnaghan-Nakayama border-strip recursion,
implemented on beta-sets (first-column hook lengths): removing a strip of
length ell from lam is replacing a beta number b by b - ell, with sign
(-1)^(number of beta numbers strictly between them).
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .partitions import Partition, conjugate, partitions_of


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
        lams = partitions_of(n)
        self.table = {
            (lam, mu): mn_character(lam, mu)
            for lam in lams
            for mu in lams
        }

    def value(self, lam: Partition, mu: Partition) -> int:
        return self.table[(lam, mu)]


@cache
def character_table(n: int) -> CharacterTable:
    return CharacterTable(n)


def _horizontal_strip_predecessors(lam: Partition, size: int):
    """Shapes rho with lam/rho a horizontal strip of the given size:
    lam_(i+1) <= rho_i <= lam_i in every row i."""
    total = sum(lam) - size
    for rho in product(*(range(low, part + 1) for part, low in zip(lam, lam[1:] + (0,)))):
        if sum(rho) == total:
            yield tuple(p for p in rho if p)


@cache
def strip_count(lam: Partition, parts: tuple[tuple[int, bool], ...]) -> int:
    """<s_lam, prod h_k or e_k>, one (k, vertical) per factor, e_k when vertical.

    By the Pieri rules (Macdonald, Symmetric Functions and Hall Polynomials,
    I.5) s_rho h_k (s_rho e_k) adds every horizontal (vertical) strip of k
    boxes to rho, so this counts the chains of strips from () to lam, the
    last factor's removed first; a vertical strip of lam is a horizontal
    strip of its conjugate.
    """
    if not parts:
        return 0 if lam else 1
    k, vertical = parts[-1]
    if vertical:
        below = (conjugate(rho) for rho in _horizontal_strip_predecessors(conjugate(lam), k))
    else:
        below = _horizontal_strip_predecessors(lam, k)
    return sum(strip_count(rho, parts[:-1]) for rho in below)


def kostka(lam: Partition, nu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content nu: <s_lam, h_nu>."""
    if sum(lam) != sum(nu):
        raise ValueError(f"size mismatch: |{lam}| != |{nu}|")
    return strip_count(lam, tuple((k, False) for k in nu))


@cache
def standard_kronecker(n: int) -> tuple[tuple[int, ...], ...]:
    """[s_lam](s_(n-1,1) * s_mu), rows mu and columns lam indexed like partitions_of(n).

    * is the Kronecker product: s_(n-1,1) has character fix(g) - 1, and
    fix(g) chi^mu is chi^mu restricted to S_(n-1) and induced back, so the
    entry counts the rho |- n - 1 one box below both mu and lam, less 1 at
    lam = mu (0 throughout at n = 1, where that character is 0).
    """
    lams = partitions_of(n)
    below = {lam: set(_horizontal_strip_predecessors(lam, 1)) for lam in lams}
    return tuple(tuple(len(below[mu] & below[lam]) - (lam == mu) for lam in lams)
                 for mu in lams)


__all__ = [
    "CharacterTable",
    "character_table",
    "kostka",
    "mn_character",
    "standard_kronecker",
    "strip_count",
]
