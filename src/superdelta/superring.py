"""The ring Q[x_1..x_n, y_1..y_n, theta_1..theta_n] with Grassmann thetas.

x and y variables commute with everything; the theta_i anticommute and
square to zero.  Monomials are kept in normal form: theta indices strictly
increasing, with any reordering sign absorbed into the coefficient.  The
symmetric group acts by permuting the indices of all three families of
variables at once, which is a degree-preserving ring homomorphism.
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


class SuperPoly:
    """Sparse element of the super ring on n index triples."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[SuperMonomial, object] | None = None,
                 clean: bool = True):
        self.n = n
        if terms is None:
            self.terms = {}
        elif clean:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            self.terms = terms

    @classmethod
    def from_monomial(cls, n: int, m: SuperMonomial, coeff=1) -> SuperPoly:
        return cls(n, {m: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __add__(self, other: SuperPoly) -> SuperPoly:
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m, 0) + c
            if s:
                acc[m] = s
            elif m in acc:
                del acc[m]
        return SuperPoly(self.n, acc, clean=False)

    def __neg__(self) -> SuperPoly:
        return SuperPoly(self.n, {m: -c for m, c in self.terms.items()}, clean=False)

    def __sub__(self, other: SuperPoly) -> SuperPoly:
        return self + (-other)

    def scaled(self, coeff) -> SuperPoly:
        if not coeff:
            return SuperPoly(self.n)
        return SuperPoly(self.n, {m: c * coeff for m, c in self.terms.items()}, clean=False)

    def __mul__(self, other: SuperPoly) -> SuperPoly:
        acc: dict[SuperMonomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = mono_mul(m1, m2)
                if prod is None:
                    continue
                sign, m = prod
                s = acc.get(m, 0) + sign * c1 * c2
                if s:
                    acc[m] = s
                elif m in acc:
                    del acc[m]
        return SuperPoly(self.n, acc)

    def tri_degree(self) -> TriDegree:
        """Degree of a homogeneous polynomial (raises if mixed)."""
        degrees = {m.tri_degree() for m in self.terms}
        if len(degrees) != 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            parts.append(f"{c}*{mono_str(m)}" if c != 1 else mono_str(m))
        return " + ".join(parts)

    __repr__ = __str__


def apply_perm(sigma: Permutation, f: SuperPoly) -> SuperPoly:
    acc: dict[SuperMonomial, object] = {}
    for m, c in f.terms.items():
        sign, image = apply_perm_mono(sigma, m)
        acc[image] = sign * c
    return SuperPoly(f.n, acc, clean=False)


def gen_p(n: int, r: int, s: int) -> SuperPoly:
    """Polarized power sum x_1^r y_1^s + ... + x_n^r y_n^s, 0 < r+s <= n."""
    if not 0 < r + s <= n:
        raise ValueError(f"gen_p requires 0 < r+s <= n, got r={r} s={s} n={n}")
    terms = {}
    for i in range(n):
        xexp = tuple(r if j == i else 0 for j in range(n))
        yexp = tuple(s if j == i else 0 for j in range(n))
        terms[SuperMonomial(xexp, yexp, ())] = 1
    return SuperPoly(n, terms, clean=False)


def gen_ptilde(n: int, r: int, s: int) -> SuperPoly:
    """Theta-twisted sum x_1^r y_1^s theta_1 + ..., 0 <= r+s < n."""
    if not 0 <= r + s < n:
        raise ValueError(f"gen_ptilde requires 0 <= r+s < n, got r={r} s={s} n={n}")
    terms = {}
    for i in range(n):
        xexp = tuple(r if j == i else 0 for j in range(n))
        yexp = tuple(s if j == i else 0 for j in range(n))
        terms[SuperMonomial(xexp, yexp, (i + 1,))] = 1
    return SuperPoly(n, terms, clean=False)


@cache
def ideal_generators(n: int) -> tuple[tuple[str, TriDegree, SuperPoly], ...]:
    """All ideal generators, each family in (r+s, r) lexicographic order."""
    gens = []
    for d in range(1, n + 1):
        for r in range(d + 1):
            s = d - r
            gens.append((f"p[{r},{s}]", TriDegree(r, s, 0), gen_p(n, r, s)))
    for d in range(n):
        for r in range(d + 1):
            s = d - r
            gens.append((f"pt[{r},{s}]", TriDegree(r, s, 1), gen_ptilde(n, r, s)))
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
