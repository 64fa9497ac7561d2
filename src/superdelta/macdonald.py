"""The symmetric-function side: modified Macdonald polynomials and the
Delta-prime operator applied to e_n.

H~_mu comes from the combinatorial filling formula: over fillings of the
diagram with positive integers,

    H~_mu = sum q^inv t^maj x^content,

where a cell is a descent when its entry exceeds the entry directly below
(toward the corner row) in its column, maj adds leg+1 over descents, and
inv counts attacking pairs in inversion minus the arms of descents.  Cells
(j, i) and (j, i') attack for i < i', as do (j, i) and (j-1, i') for
i' < i: in adjacent rows the cell farther from the corner row must sit
strictly right of its partner, and it reads first.  Restricting entries to
1..n suffices for the degree-n monomial coefficients.

Delta-prime eigenvalues are elementary symmetric evaluations on the cell
alphabet B_mu - 1; the expansion of e_n over the H~_mu carries the scalar
M B_mu Pi_mu / w_mu, which rhs_series certifies at runtime through the
forced identity Delta'_{e_0}(e_n) = e_n.  All those scalars are products of
two-term factors, so sums over mu are accumulated over one shared product
denominator L.  The products and sums are taken on Kronecker-packed ints,
with the packing's q-degree and slot width worked out from the factors'
degrees and coefficient sums, and each Schur coefficient is unpacked once
and divided exactly by the two-term atoms of L one at a time, which
certifies it polynomial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb, prod
from typing import NamedTuple

from .characters import character_table, kostka
from .partitions import (
    Partition,
    arm,
    cells,
    leg,
    partitions_of,
    z_mu,
)
from .qtz import ONE, Kronecker, QTZPoly, divide_exact
from .rationals import RAT, normalize_scalar
from .series import FrobeniusSeries


# --- cell alphabet and scalars ----------------------------------------------


class MacdonaldScalars(NamedTuple):
    b: QTZPoly  # B_mu = sum q^coarm t^coleg
    pi: QTZPoly  # Pi_mu = prod over non-corner cells (1 - q^coarm t^coleg)
    w: QTZPoly  # w_mu = prod (q^arm - t^(leg+1))(t^leg - q^(arm+1))
    m: QTZPoly  # M = (1-q)(1-t)


def cell_alphabet(mu: Partition) -> list[tuple[int, int]]:
    """(coarm, coleg) exponent pairs of B_mu - 1: all cells but the corner."""
    return [(i, j) for j, i in cells(mu) if (i, j) != (0, 0)]


def _binomial(e1: tuple[int, int], c1: int, e2: tuple[int, int], c2: int) -> QTZPoly:
    return QTZPoly({(e1[0], e1[1], 0): c1, (e2[0], e2[1], 0): c2})


def _w_factors(mu: Partition) -> list[QTZPoly]:
    out = []
    for j, i in cells(mu):
        a, l = arm(mu, j, i), leg(mu, j, i)
        out.append(_binomial((a, 0), 1, (0, l + 1), -1))  # q^a - t^(l+1)
        out.append(_binomial((0, l), 1, (a + 1, 0), -1))  # t^l - q^(a+1)
    return out


def _pi_factors(mu: Partition) -> list[QTZPoly]:
    return [_binomial((0, 0), 1, (i, j), -1) for i, j in cell_alphabet(mu)]


def _m_factors() -> list[QTZPoly]:
    return [_binomial((0, 0), 1, (1, 0), -1), _binomial((0, 0), 1, (0, 1), -1)]


def b_mu(mu: Partition) -> QTZPoly:
    return QTZPoly({(i, j, 0): 1 for i, j in cells_exponents(mu)})


def cells_exponents(mu: Partition) -> list[tuple[int, int]]:
    return [(i, j) for j, i in cells(mu)]


def macdonald_scalars(mu: Partition) -> MacdonaldScalars:
    """The expanded scalars (B_mu, Pi_mu, w_mu, M)."""
    if not mu:
        raise ValueError("mu must be nonempty")
    pi = ONE
    for f in _pi_factors(mu):
        pi = pi * f
    w = ONE
    for f in _w_factors(mu):
        w = w * f
    m = _m_factors()[0] * _m_factors()[1]
    return MacdonaldScalars(b_mu(mu), pi, w, m)


def ek_pleth(mu: Partition, k: int) -> QTZPoly:
    """e_k evaluated on the alphabet B_mu - 1."""
    alphabet = cell_alphabet(mu)
    if not 0 <= k <= len(alphabet):
        raise ValueError(f"need 0 <= k <= |mu|-1, got k={k} for mu={mu}")
    dp = [ONE] + [QTZPoly.zero()] * k
    for idx, (i, j) in enumerate(alphabet):
        x = QTZPoly.monomial(i, j)
        for s in range(min(k, idx + 1), 0, -1):
            dp[s] = dp[s] + dp[s - 1] * x
    return dp[k]


# --- symmetric functions ------------------------------------------------------


@dataclass
class SymFunc:
    """Homogeneous symmetric function with exact q,t,z coefficients."""

    basis: str  # 'm', 's', 'p' or 'e'
    n: int
    coeffs: dict[Partition, QTZPoly]

    def __post_init__(self):
        if self.basis not in ("m", "s", "p", "e"):
            raise ValueError(f"unknown basis {self.basis!r}")
        self.coeffs = {lam: c for lam, c in self.coeffs.items() if not c.is_zero()}

    def coefficient(self, lam: Partition) -> QTZPoly:
        return self.coeffs.get(lam, QTZPoly.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis != other.basis or self.n != other.n:
            return False
        lams = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(l) == other.coefficient(l) for l in lams)

    def to_schur(self) -> SymFunc:
        if self.basis == "s":
            return self
        if self.basis == "m":
            return mono_to_schur(self)
        if self.basis == "p":
            return power_to_schur(self)
        if self.n >= 1 and set(self.coeffs) <= {(self.n,)}:
            # e_n = s_(1^n)
            return SymFunc("s", self.n, {(1,) * self.n: self.coefficient((self.n,))})
        raise NotImplementedError("general elementary expansions are not needed")

    def to_monomial(self) -> SymFunc:
        if self.basis == "m":
            return self
        return schur_to_mono(self.to_schur())

    def to_json_dict(self) -> dict:
        from .partitions import partition_to_str

        return {
            "basis": self.basis,
            "n": self.n,
            "coeffs": {
                partition_to_str(lam): str(c)
                for lam, c in sorted(self.coeffs.items(), reverse=True)
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> SymFunc:
        from .partitions import partition_from_str
        from .qtz import poly_from_str

        return cls(
            data["basis"],
            int(data["n"]),
            {
                partition_from_str(key): poly_from_str(text)
                for key, text in data["coeffs"].items()
            },
        )


def mono_to_schur(f: SymFunc) -> SymFunc:
    """Invert the unitriangular Kostka system by dominance back-substitution."""
    remaining = dict(f.coeffs)
    out: dict[Partition, QTZPoly] = {}
    for lam in partitions_of(f.n):  # reverse-lex extends dominance, top first
        c = remaining.pop(lam, QTZPoly.zero())
        if c.is_zero():
            continue
        out[lam] = c
        for nu in partitions_of(f.n):
            if nu == lam:
                continue
            k = kostka(lam, nu)
            if k:
                remaining[nu] = remaining.get(nu, QTZPoly.zero()) - c * k
    leftover = {nu: c for nu, c in remaining.items() if not c.is_zero()}
    if leftover:
        raise ValueError(f"inconsistent monomial expansion: {leftover}")
    return SymFunc("s", f.n, out)


def schur_to_mono(f: SymFunc) -> SymFunc:
    out: dict[Partition, QTZPoly] = {}
    for lam, c in f.coeffs.items():
        for nu in partitions_of(f.n):
            k = kostka(lam, nu)
            if k:
                out[nu] = out.get(nu, QTZPoly.zero()) + c * k
    return SymFunc("m", f.n, out)


def power_to_schur(f: SymFunc) -> SymFunc:
    table = character_table(f.n)
    out: dict[Partition, QTZPoly] = {}
    for lam in partitions_of(f.n):
        acc = QTZPoly.zero()
        for mu, c in f.coeffs.items():
            chi = table.value(lam, mu)
            if chi:
                acc = acc + c * chi
        if not acc.is_zero():
            out[lam] = acc
    return SymFunc("s", f.n, out)


def schur_to_power(f: SymFunc) -> SymFunc:
    """Expansion over p_mu / 1 with rational coefficients."""
    table = character_table(f.n)
    out: dict[Partition, QTZPoly] = {}
    for mu in partitions_of(f.n):
        acc = QTZPoly.zero()
        zm = z_mu(mu)
        for lam, c in f.coeffs.items():
            chi = table.value(lam, mu)
            if chi:
                acc = acc + c * normalize_scalar(RAT(chi, zm))
        if not acc.is_zero():
            out[mu] = acc
    return SymFunc("p", f.n, out)


# --- the filling formula ------------------------------------------------------


def _multiset_permutations(word: list[int]):
    """Distinct permutations of a sorted multiset (Knuth's algorithm L)."""
    seq = sorted(word)
    n = len(seq)
    while True:
        yield tuple(seq)
        k = n - 2
        while k >= 0 and seq[k] >= seq[k + 1]:
            k -= 1
        if k < 0:
            return
        i = n - 1
        while seq[i] <= seq[k]:
            i -= 1
        seq[k], seq[i] = seq[i], seq[k]
        seq[k + 1 :] = reversed(seq[k + 1 :])


HTILDE_SIZE_LIMIT = 8  # the filling formula enumerates about n! * p(n) terms


@cache
def hhl_htilde(mu: Partition) -> SymFunc:
    """Modified Macdonald polynomial H~_mu in the monomial basis."""
    n = sum(mu)
    if n == 0:
        raise ValueError("mu must be nonempty")
    if n > HTILDE_SIZE_LIMIT:
        raise ValueError(f"|mu| = {n} exceeds the filling-formula limit {HTILDE_SIZE_LIMIT}")
    cell_list = cells(mu)
    index = {c: i for i, c in enumerate(cell_list)}
    south = [index.get((j - 1, i)) for (j, i) in cell_list]
    legs = [leg(mu, j, i) for (j, i) in cell_list]
    arms = [arm(mu, j, i) for (j, i) in cell_list]
    attacks: list[tuple[int, int]] = []
    for (j, i), u in index.items():
        for (jj, ii), v in index.items():
            if jj == j and ii > i:
                attacks.append((u, v))
            elif jj == j - 1 and ii < i:
                # adjacent rows attack with the cell away from the corner row
                # strictly right of the other; it reads first
                attacks.append((u, v))
    coeffs: dict[Partition, QTZPoly] = {}
    for nu in partitions_of(n):
        word = [letter for letter, mult in enumerate(nu, start=1) for _ in range(mult)]
        acc: dict[tuple[int, int, int], int] = {}
        for entries in _multiset_permutations(word):
            maj = 0
            armsum = 0
            for u, s in enumerate(south):
                if s is not None and entries[u] > entries[s]:
                    maj += legs[u] + 1
                    armsum += arms[u]
            inv = -armsum
            for u, v in attacks:
                if entries[u] > entries[v]:
                    inv += 1
            key = (inv, maj, 0)
            acc[key] = acc.get(key, 0) + 1
        coeffs[nu] = QTZPoly(acc)
    return SymFunc("m", n, coeffs)


@cache
def htilde_schur(mu: Partition) -> SymFunc:
    return hhl_htilde(mu).to_schur()


# --- Delta-prime applied to e_n ----------------------------------------------


def _canonical_factor(f: QTZPoly) -> tuple[int, QTZPoly]:
    """Normalize a factor to positive leading coefficient; return the sign."""
    lead = f.terms[f.leading_exponent()]
    if lead < 0:
        return -1, -f
    return 1, f


@dataclass
class _ExpansionScalar:
    """M B_mu Pi_mu / w_mu in factored form, after atom-level cancellation."""

    sign: int
    bpoly: QTZPoly
    num_atoms: Counter
    den_atoms: Counter


def _expansion_scalar(mu: Partition) -> _ExpansionScalar:
    sign = 1
    num = Counter()
    for f in _m_factors() + _pi_factors(mu):
        s, g = _canonical_factor(f)
        sign *= s
        num[g] += 1
    den = Counter()
    for f in _w_factors(mu):
        s, g = _canonical_factor(f)
        sign *= s
        den[g] += 1
    common = num & den
    return _ExpansionScalar(sign, b_mu(mu), num - common, den - common)


def _l1(p: QTZPoly) -> int:
    return sum(abs(c) for c in p.terms.values())


def _packed_product(factors: list[QTZPoly]) -> QTZPoly:
    """The product of integer polynomials in q, t, multiplied packed."""
    packing = Kronecker(1 + sum(f.degrees()[0] for f in factors), prod(map(_l1, factors)))
    acc = 1
    for f in factors:
        acc *= packing.pack(f)
    return packing.unpack(acc)


@dataclass
class _DeltaContext:
    """The k-independent part of delta_prime_ek_en(n, k), packed once.

    The Schur coefficient at lam is the sum over mu of
    sbase[mu] * e_k[B_mu - 1] * <H~_mu, s_lam>, divided by L = prod(l_atoms).
    e_(n-1) has the highest q-degree of all e_k, and e_k[B_mu - 1] has
    comb(n-1, k) terms, all with coefficient 1; with the factors' own
    degrees and coefficient sums these bound every numerator's q-degree and
    coefficients, which sets the packing.
    """

    n: int
    l_atoms: Counter  # the two-term factors of L, with multiplicity
    packing: Kronecker
    sbase: dict[Partition, int]  # sign * B_mu * num_atoms * (L / den_mu), packed
    schur: dict[Partition, dict[Partition, int]]  # <H~_mu, s_lam>, packed


@cache
def _delta_context(n: int) -> _DeltaContext:
    mus = partitions_of(n)
    scalars = {mu: _expansion_scalar(mu) for mu in mus}
    l_atoms = Counter()
    for sc in scalars.values():
        l_atoms |= sc.den_atoms
    sbase = {}
    for mu, sc in scalars.items():
        missing = l_atoms - sc.den_atoms
        sbase[mu] = _packed_product(
            [sc.bpoly * sc.sign, *sc.num_atoms.elements(), *missing.elements()]
        )
    schur = {mu: htilde_schur(mu).coeffs for mu in mus}
    D = 1 + max(
        sbase[mu].degrees()[0]
        + sum(i for i, _ in cell_alphabet(mu))
        + max(h.degrees()[0] for h in schur[mu].values())
        for mu in mus
    )
    bound = comb(n - 1, (n - 1) // 2) * max(
        sum(_l1(sbase[mu]) * _l1(schur[mu][lam]) for mu in mus if lam in schur[mu])
        for lam in mus
    )
    packing = Kronecker(D, bound)
    sbase = {mu: packing.pack(p) for mu, p in sbase.items()}
    schur = {mu: {lam: packing.pack(h) for lam, h in hs.items()} for mu, hs in schur.items()}
    return _DeltaContext(n, l_atoms, packing, sbase, schur)


def delta_prime_ek_en(n: int, k: int) -> SymFunc:
    """Delta'_{e_k} applied to e_n, in the Schur basis.

    Each Schur coefficient is accumulated as one packed numerator over the
    shared denominator, unpacked, and certified polynomial by exact division
    by each atom of the denominator in turn.
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    ctx = _delta_context(n)
    mus = partitions_of(n)
    sk = {mu: ctx.sbase[mu] * ctx.packing.pack(ek_pleth(mu, k)) for mu in mus}
    out: dict[Partition, QTZPoly] = {}
    for lam in mus:
        num = sum(sk[mu] * hs[lam] for mu, hs in ctx.schur.items() if lam in hs)
        if not num:
            continue
        out[lam] = divide_exact(ctx.packing.unpack(num), *ctx.l_atoms.elements())
    return SymFunc("s", n, out)


def rhs_series(n: int) -> FrobeniusSeries:
    """The graded sum over k of z^(k-1) Delta'_{e_(n-k)}(e_n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    series = FrobeniusSeries(n)
    for k in range(1, n + 1):
        delta = delta_prime_ek_en(n, n - k)
        if k == n and delta.coeffs != {(1,) * n: ONE}:
            # Delta'_{e_0} is the identity: a wrong expansion scalar shows here
            raise ValueError(f"Delta'_{{e_0}}(e_{n}) is {delta.coeffs}, not e_{n}")
        for lam, poly in delta.coeffs.items():
            series.set_coefficient(
                lam, series.coefficient(lam) + poly.shift_z(k - 1)
            )
    return series


def elementary_en(n: int) -> SymFunc:
    return SymFunc("s", n, {(1,) * n: ONE})
