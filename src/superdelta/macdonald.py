"""The symmetric-function side: modified Macdonald polynomials and the
Delta-prime operator applied to e_n.  Schur expansions are FrobeniusSeries,
the type the module side returns; monomial expansions are plain dicts.

H~_mu comes from the combinatorial filling formula: over fillings of the
diagram with positive integers,

    H~_mu = sum q^inv t^maj x^content,

where a cell is a descent when its entry exceeds the entry directly below
(toward the corner row) in its column, maj adds leg+1 over descents, and
inv counts attacking pairs in inversion minus the arms of descents.  Cells
(j, i) and (j, i') attack for i < i', as do (j, i) and (j-1, i') for
i' < i: in adjacent rows the cell farther from the corner row must sit
strictly right of its partner, and it reads first.  Reading goes by rows
from the top (the row farthest from the corner row) down, left to right.
Every filling standardizes to one with entries 1..n, so the n! standard
fillings, tallied by the inverse descent set of their reading word, give
every monomial coefficient (see hhl_htilde).  Their inv and maj are summed
for all n! fillings at once in byte lanes, one byte of a big int per
filling, which holds them exactly because both are at most C(n, 2) < 256.

Delta-prime eigenvalues are elementary symmetric evaluations on the cell
alphabet B_mu - 1; the expansion of e_n over the H~_mu carries the scalar
M B_mu Pi_mu / w_mu, which rhs_series certifies at runtime through the
forced identity Delta'_{e_0}(e_n) = e_n.  All those scalars are products of
two-term factors q^a1 t^b1 - q^a2 t^b2, held as exponent pairs ((a1, b1),
(a2, b2)) and multiplied as one packed shift-and-subtract each, so sums over
mu are accumulated over one shared product denominator L.  The products and
sums are taken on Kronecker-packed ints, with the packing's q-degree and
slot width worked out from the factors' degrees and coefficient sums; each
mu's scalar is multiplied out once, in that packing.  Only the eigenvalue
e_k[B_mu - 1] depends on k, so one pass serves every k: each product of the
rest is formed once and every e_k[B_mu - 1] is applied to it together, by
the subset-sum recurrence over the cells, one shifted add per cell and k.
Each Schur coefficient's packed numerator is divided by the packed L in one
step, through a 2-adic inverse computed once, and the quotient is unpacked
and certified: it times L must rebuild the numerator and fit the packing,
which is injective there, so the quotient is the exact polynomial one.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations, permutations
from math import comb
from operator import add, gt
from typing import NamedTuple

from .characters import kostka
from .partitions import Partition, arm, cells, leg, partitions_of
from .qtz import (
    ONE,
    Atom,
    Kronecker,
    PackedDivisor,
    QTZPoly,
    _times,
    atom_product,
    divide_exact,
    l1_norm,
)
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


def _w_factors(mu: Partition) -> list[Atom]:
    out = []
    for j, i in cells(mu):
        a, l = arm(mu, j, i), leg(mu, j, i)
        out.append(((a, 0), (0, l + 1)))  # q^a - t^(l+1)
        out.append(((0, l), (a + 1, 0)))  # t^l - q^(a+1)
    return out


def _pi_factors(mu: Partition) -> list[Atom]:
    return [((0, 0), e) for e in cell_alphabet(mu)]


def _m_factors() -> list[Atom]:
    return [((0, 0), (1, 0)), ((0, 0), (0, 1))]


def b_mu(mu: Partition) -> QTZPoly:
    return QTZPoly({(i, j, 0): 1 for j, i in cells(mu)})


def macdonald_scalars(mu: Partition) -> MacdonaldScalars:
    """The expanded scalars (B_mu, Pi_mu, w_mu, M)."""
    if not mu:
        raise ValueError("mu must be nonempty")
    factors = (_pi_factors(mu), _w_factors(mu), _m_factors())
    return MacdonaldScalars(b_mu(mu), *(atom_product(ONE, f) for f in factors))


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


# --- Schur expansions ---------------------------------------------------------


def mono_to_schur(n: int, coeffs: dict[Partition, QTZPoly]) -> FrobeniusSeries:
    """Invert the unitriangular Kostka system by dominance back-substitution."""
    remaining = dict(coeffs)
    out: dict[Partition, QTZPoly] = {}
    for lam in partitions_of(n):  # reverse-lex extends dominance, top first
        c = remaining.pop(lam, QTZPoly.zero())
        if c.is_zero():
            continue
        out[lam] = c
        for nu in partitions_of(n):
            if nu == lam:
                continue
            k = kostka(lam, nu)
            if k:
                remaining[nu] = remaining.get(nu, QTZPoly.zero()) - c * k
    leftover = {nu: c for nu, c in remaining.items() if not c.is_zero()}
    if leftover:
        raise ValueError(f"inconsistent monomial expansion: {leftover}")
    return FrobeniusSeries(n, out)


# --- the filling formula ------------------------------------------------------


# the filling formula enumerates n! standard fillings per mu, and tallies
# their inv and maj, at most C(n, 2), in one byte each
HTILDE_SIZE_LIMIT = 8


@cache
def _standard_fillings(n: int) -> tuple[dict[tuple[int, int], int], array]:
    """The n! standard fillings of n cells, as the entries 0..n-1 in reading
    order, compared in byte lanes: for positions u < v, greater[u, v] is the
    int whose byte f is 1 when filling f's entry at u exceeds its entry at v,
    and 0 otherwise.  With them, each filling's inverse descent set as a bit
    mask: bit i is set when entry i+1 is read before entry i."""
    columns = [bytearray() for _ in range(n)]  # columns[u][f]: filling f's entry at u
    keys = array("H")
    for entries in permutations(range(n)):
        for column, x in zip(columns, entries):
            column.append(x)
        read = sorted(range(n), key=entries.__getitem__)  # read[x]: where x is read
        keys.append(sum(1 << i for i in range(n - 1) if read[i] > read[i + 1]))
    greater = {
        (u, v): int.from_bytes(bytes(map(gt, columns[u], columns[v])), "little")
        for u, v in combinations(range(n), 2)
    }
    return greater, keys


@cache
def hhl_htilde(mu: Partition) -> dict[Partition, QTZPoly]:
    """The monomial coefficients of the modified Macdonald polynomial H~_mu.

    A filling with content nu standardizes, ties broken in reading order
    (rows from the top down, left to right), to a standard filling with the
    same inv and maj.  This is a bijection onto the standard fillings whose
    inverse descent set D lies inside the partial sums of nu, so the n!
    standard fillings are tallied once by D, inv and maj, and [x^nu] H~_mu
    sums the tallies of the D that fit nu.  inv and maj are counted for all
    fillings at once, in byte lanes: each is a sum of small multiples of the
    comparison ints of _standard_fillings, one byte per filling.  Both lie in
    [0, C(n, 2)] for every filling, and C(n, 2) < 256 for n <= 8 =
    HTILDE_SIZE_LIMIT, so the exact int sum holds each filling's value in its
    own byte and to_bytes reads them all back.
    """
    n = sum(mu)
    if n == 0:
        raise ValueError("mu must be nonempty")
    if n > HTILDE_SIZE_LIMIT:
        raise ValueError(f"|mu| = {n} exceeds the filling-formula limit {HTILDE_SIZE_LIMIT}")
    greater, keys = _standard_fillings(n)
    order = sorted(cells(mu), key=lambda c: (-c[0], c[1]))  # reading order
    index = {c: u for u, c in enumerate(order)}
    inv = maj = 0
    for (j, i), u in index.items():
        for (jj, ii), v in index.items():
            # adjacent rows attack with the cell away from the corner row
            # strictly right of the other; the first of a pair reads first
            if (jj == j and ii > i) or (jj == j - 1 and ii < i):
                inv += greater[u, v]
        if (j - 1, i) in index:
            descent = greater[u, index[j - 1, i]]
            maj += descent * (leg(mu, j, i) + 1)
            inv -= descent * arm(mu, j, i)
    inv, maj = (x.to_bytes(len(keys), "little") for x in (inv, maj))
    tally: dict[int, dict] = {}
    for (key, a, b), count in Counter(zip(keys, inv, maj)).items():
        tally.setdefault(key, {})[a, b, 0] = count
    coeffs: dict[Partition, QTZPoly] = {}
    for nu in partitions_of(n):
        cuts = sum(1 << (p - 1) for p in accumulate(nu[:-1]))
        acc = Counter()
        for key, terms in tally.items():
            if not key & ~cuts:
                acc.update(terms)
        coeffs[nu] = QTZPoly(acc)
    return coeffs


@cache
def htilde_schur(mu: Partition) -> FrobeniusSeries:
    """H~_mu in the Schur basis."""
    return mono_to_schur(sum(mu), hhl_htilde(mu))


# --- Delta-prime applied to e_n ----------------------------------------------


def _canonical_factor(f: Atom) -> tuple[int, Atom]:
    """Order a factor m1 - m2 so that m1 leads in graded lex order; return the sign."""
    m1, m2 = f
    if (sum(m1), m1) < (sum(m2), m2):
        return -1, (m2, m1)
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


@cache
def _delta_context(n: int) -> list[dict[Partition, QTZPoly]]:
    """The Schur coefficients of Delta'_{e_k}(e_n) for k = 0..n-1, in one pass.

    The coefficient at lam is the sum over mu of
    sbase[mu] * e_k[B_mu - 1] * <H~_mu, s_lam>, divided by L = prod(l_atoms),
    where sbase[mu] = sign * B_mu * num_atoms * (L / den_mu).  The product
    P = sbase[mu] * <H~_mu, s_lam> does not depend on k, so it is formed
    once, packed, and every e_k[B_mu - 1] is applied to it at once: from
    E = [P, 0, ..., 0], each letter x of the cell alphabet B_mu - 1 (the
    terms of e_1[B_mu - 1]) sets E[k] += x E[k-1] for k from high to low, a
    shifted add, so that E[k] = P e_k[letters so far].  That is n(n-1)/2
    shifted adds per (mu, lam) for every k together; lam goes by lam, so
    only one lam's products are held at once.
    e_(n-1) has the highest q-degree of all e_k, and e_k[B_mu - 1] has
    comb(n-1, k) terms counted with multiplicity; with the factors' own
    degrees and coefficient sums these bound every numerator's q-degree and
    coefficients, which sets the packing.  sbase[mu] is expanded exactly
    only for that; the packed sbase[mu] is the packed sign * B_mu times its
    atoms, one shift-and-subtract each, the same int because packing is
    evaluation at q = 2^B.
    """
    mus = partitions_of(n)
    scalars = {mu: _expansion_scalar(mu) for mu in mus}
    l_atoms = Counter()
    for sc in scalars.values():
        l_atoms |= sc.den_atoms
    factors = {
        mu: (sc.bpoly * sc.sign, [*sc.num_atoms.elements(), *(l_atoms - sc.den_atoms).elements()])
        for mu, sc in scalars.items()
    }
    degree, l1 = {}, {}
    for mu, f in factors.items():
        p = atom_product(*f)  # expanded only to size the packing
        degree[mu], l1[mu] = p.degrees()[0], l1_norm(p)
    schur = {mu: htilde_schur(mu).coeffs for mu in mus}
    D = 1 + max(
        degree[mu]
        + sum(i for i, _ in cell_alphabet(mu))
        + max(h.degrees()[0] for h in schur[mu].values())
        for mu in mus
    )
    bound = comb(n - 1, (n - 1) // 2) * max(
        sum(l1[mu] * l1_norm(schur[mu][lam]) for mu in mus if lam in schur[mu])
        for lam in mus
    )
    packing = Kronecker(D, bound)
    sbase = {mu: _times(packing.pack(b), packing.atom_shifts(a)) for mu, (b, a) in factors.items()}
    # e_1[B_mu - 1] is the cell alphabet, one term of coefficient 1 per cell
    letters = {mu: [packing.shift(a, b) for a, b, _ in ek_pleth(mu, 1).terms] if n > 1 else []
               for mu in mus}
    divisor = PackedDivisor(packing, list(l_atoms.elements()))
    out: list[dict[Partition, QTZPoly]] = [{} for _ in range(n)]
    # lam = (1^n) and k = n-1 first: their quotients are the largest, so the
    # divisor's inverse is lifted once, to the precision the others need too
    for lam in reversed(mus):
        nums = [0] * n
        for mu in mus:
            if lam not in schur[mu]:
                continue
            E = [sbase[mu] * packing.pack(schur[mu][lam])] + [0] * (n - 1)
            for top, shift in enumerate(letters[mu], 1):
                for k in range(top, 0, -1):
                    E[k] += E[k - 1] << shift
            nums = list(map(add, nums, E))
        for k in reversed(range(n)):
            if nums[k]:
                out[k][lam] = divide_exact(nums[k], divisor)
    return out


def delta_prime_ek_en(n: int, k: int) -> FrobeniusSeries:
    """Delta'_{e_k} applied to e_n, in the Schur basis.

    Each Schur coefficient is accumulated as one packed numerator over the
    shared denominator and divided by it exactly, which certifies it
    polynomial (see _delta_context, which does this for every k at once).
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    return FrobeniusSeries(n, dict(_delta_context(n)[k]))


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

