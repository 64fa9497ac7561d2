"""Monomials of Q[x_1..x_n, y_1..y_n, theta_1..theta_n] with Grassmann thetas.

x and y variables commute with everything; the theta_i anticommute and
square to zero.  Monomials are kept in normal form: theta indices strictly
increasing, with any reordering sign returned beside the monomial by the
signed product (mono_mul) and the signed action (apply_perm_mono).  The
symmetric group acts by permuting the indices of all three families of
variables at once, which is a degree-preserving ring homomorphism.  An
ideal generator is named by its degree (r, s, e) alone: it is the sum of the
terms x_i^r y_i^s theta_i^e over i, so the signed action fixes it.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .partitions import Permutation


class TriDegree(NamedTuple):
    a: int  # x-degree
    b: int  # y-degree
    c: int  # theta-degree
    __repr__ = tuple.__repr__  # printed (a, b, c)


class SuperMonomial(NamedTuple):
    xexp: tuple[int, ...]
    yexp: tuple[int, ...]
    theta: tuple[int, ...]  # strictly increasing 1-based indices

    def tri_degree(self) -> TriDegree:
        return TriDegree(sum(self.xexp), sum(self.yexp), len(self.theta))


def mono_str(m: SuperMonomial) -> str:
    parts = []
    for name, exps in (("x", m.xexp), ("y", m.yexp)):
        for i, e in enumerate(exps, start=1):
            if e == 1:
                parts.append(f"{name}{i}")
            elif e > 1:
                parts.append(f"{name}{i}^{e}")
    if m.theta:
        parts.append("t" + "".join(str(i) for i in m.theta))
    return "*".join(parts) if parts else "1"


def _merge_sign(t1: tuple[int, ...], t2: tuple[int, ...]) -> int:
    """Parity of interleave-sorting the concatenation of two sorted tuples."""
    inversions = 0
    i = 0
    for x in t2:
        while i < len(t1) and t1[i] < x:
            i += 1
        inversions += len(t1) - i
    return -1 if inversions % 2 else 1


def _sort_sign(seq: list[int]) -> tuple[int, tuple[int, ...]]:
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return (-1 if inversions % 2 else 1), tuple(sorted(seq))


def mono_mul(u: SuperMonomial, v: SuperMonomial) -> tuple[int, SuperMonomial] | None:
    """Signed product of normal-form monomials; None when a theta repeats."""
    if u.theta and v.theta and not set(u.theta).isdisjoint(v.theta):
        return None
    sign = _merge_sign(u.theta, v.theta)
    theta = tuple(sorted(u.theta + v.theta))
    xexp = tuple(a + b for a, b in zip(u.xexp, v.xexp))
    yexp = tuple(a + b for a, b in zip(u.yexp, v.yexp))
    return sign, SuperMonomial(xexp, yexp, theta)


def apply_perm_mono(sigma: Permutation, m: SuperMonomial) -> tuple[int, SuperMonomial]:
    """Signed image of a monomial under x_i,y_i,theta_i -> index sigma(i)."""
    n = len(sigma)
    xexp = [0] * n
    yexp = [0] * n
    for i in range(n):
        xexp[sigma[i] - 1] = m.xexp[i]
        yexp[sigma[i] - 1] = m.yexp[i]
    sign, theta = _sort_sign([sigma[t - 1] for t in m.theta])
    return sign, SuperMonomial(tuple(xexp), tuple(yexp), theta)


@cache
def ideal_generators(n: int) -> tuple[tuple[str, TriDegree], ...]:
    """(name, degree) of every ideal generator, each family in (r+s, r) order:
    p[r,s] of degree (r, s, 0), 0 < r+s <= n, and pt[r,s] of (r, s, 1), r+s < n."""
    gens = []
    for d in range(1, n + 1):
        for r in range(d + 1):
            gens.append((f"p[{r},{d - r}]", TriDegree(r, d - r, 0)))
    for d in range(n):
        for r in range(d + 1):
            gens.append((f"pt[{r},{d - r}]", TriDegree(r, d - r, 1)))
    return tuple(gens)


def compositions(total: int, nparts: int):
    """Weak compositions of total into nparts parts, first part descending."""
    if nparts == 0:
        if total == 0:
            yield ()
        return
    if nparts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, nparts - 1):
            yield (first,) + rest


def component_dimension(n: int, d: TriDegree) -> int:
    a, b, c = d
    if c > n:
        return 0
    return comb(a + n - 1, n - 1) * comb(b + n - 1, n - 1) * comb(n, c)


def enumerate_monomials(n: int, d: TriDegree) -> tuple[SuperMonomial, ...]:
    """All normal-form monomials of tri-degree d, in a fixed order."""
    a, b, c = d
    if c > n or a < 0 or b < 0 or c < 0:
        return ()
    result = []
    for xexp in compositions(a, n):
        for yexp in compositions(b, n):
            for theta in combinations(range(1, n + 1), c):
                result.append(SuperMonomial(xexp, yexp, theta))
    return tuple(result)
