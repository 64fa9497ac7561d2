"""The module side: quotient characters and Frobenius series.

Each homogeneous component M_d = R_d / I_d (d = (a, b, c)) is a finite
S_n-module.  Its Schur multiplicities are found from the dimensions of
small isotypic parts, not from traces on the whole component.

Isotypic ranks.  Let H = S_alpha x S_beta be a Young subgroup on
consecutive letters and psi its character that is trivial on S_alpha and
the sign on S_beta.  Then Ind_H^{S_n} psi has Frobenius characteristic
h_alpha e_beta, and by Frobenius reciprocity

    <F_{M_d}, h_alpha e_beta> = dim Hom_H(psi, M_d) = dim M_d^psi,

the psi-isotypic part.  Over Q, e_psi = |H|^-1 sum_h psi(h) h is an
idempotent projection onto the psi-isotypic part of any H-module.  I_d is
S_n-stable, so e_psi(I_d) = e_psi(R_d) meet I_d and e_psi commutes with the
quotient map, which gives M_d^psi = e_psi(R_d) / e_psi(I_d).  Both sides
live in orbit coordinates:

* e_psi(m) for a monomial m is sign * |Stab|/|H| * v_O, where v_O is the
  signed sum over the H-orbit O of m with coefficient 1 at its canonical
  representative (triples (x_i, y_i, [i in theta]) sorted descending
  within each block), or 0 when some h fixing m has psi(h) * (Grassmann
  sign) = -1 (a dead orbit).  The live v_O have disjoint supports, so they
  are a basis of e_psi(R_d).  The live representatives are enumerated
  block by block.
* Every generator g is S_n-invariant under the signed action (a sum
  x_1^r y_1^s theta_1^e + ... + x_n^r y_n^s theta_n^e), so h(g m) = g h(m)
  and e_psi(I_d) is spanned by the products g * v_O.  The coefficient of
  v_C in a vector of e_psi(R_d) is its coefficient at the representative
  C, so each row g * v_O is read off target by target.  A cofactor of C
  differs from C in one triple, so its representative is C with that
  triple re-inserted into its own block: no monomial is sorted.

Hence dim M_d^psi = #live orbits - rank { g * v_O }, an exact integer
rank on systems about |H| times smaller than R_d.  The rank is taken on the
transposed system: one vector per live orbit, whose coordinates are the
labelled rows g * v_O, so the echelon eliminates one vector per column
rather than one per row, where many rows depend on the others.  A fixed set of
such psi per n whose pairing matrix K[psi, lam] = <s_lam, h_alpha e_beta>
(characters.strip_count) is invertible turns these dimensions into the
multiplicities m_lam: K m = dims is solved on the same integer Echelon, and
each m_lam must be a nonnegative integer.  A component is stored as these
m_lam: the quotient dimension is sum_lam m_lam f^lam, the series gains
q^a t^b z^c m_lam at s_lam, and the characters chi_M(mu) =
sum_lam m_lam chi^lam(mu) are derived on demand.  One more, dependent psi
is computed as a redundancy check.

Zero components by a cover.  Most components the exploration visits are
zero, and a zero needs no solve.  dim M_d^psi = sum_lam m_lam K[psi, lam],
where every m_lam >= 0 (M_d is a genuine S_n-module) and every
K[psi, lam] >= 0 (Pieri: h_alpha e_beta is Schur-positive).  So if a set of
psi whose pairing rows together are positive at every lam (the cover: two
or three characters for n = 4..8) has only zero isotypic dimensions, every
m_lam is 0.  This certificate is one-sided and exact: the cover runs first,
a zero answer is final after one more character (the first one outside the
cover, e_n for n >= 3) is also found 0, and any nonzero cover dimension
sends the component to the full solve above, which reuses the cover's
dimensions.

GL_2 shape.  GL_2 acts on every pair (x_i, y_i) at once and fixes the
thetas; it commutes with S_n.  It maps p_{r,s} = sum_i x_i^r y_i^s (and
p~_{r,s}, its theta_i-weighted twin) into the span of the p_{r',s'} with
r' + s' = r + s, so I_n is GL_2-stable, and for fixed a + b = k and c the
multiplicity space of s_lam in the sum of the M_(a,b,c) is a polynomial
GL_2-module of degree k whose weight-(a, b) space has dimension
m_lam(a, b, c).  Its irreducibles have weights (p, q), (p - 1, q + 1), ...,
(q, p), each once, so m_lam(a, b, c) = m_lam(b, a, c), and
m_lam(a, b, c) - m_lam(a + 1, b - 1, c), for a >= b, counts the
irreducibles of highest weight (a, b), so it is >= 0.  check_gl2_shape
tests both on every closed theta row.

Mirror.  The swap x_i <-> y_i (for every i at once) is in GL_2: an algebra
automorphism that fixes the thetas, commutes with S_n and maps p_{r,s} to
p_{s,r} and p~_{r,s} to p~_{s,r}.  So it maps I_n onto itself and R_(a,b,c)
and I_(a,b,c) onto R_(b,a,c) and I_(b,a,c), and M_(a,b,c) and M_(b,a,c) are
isomorphic S_n-modules with the same ambient dimension: equal as stored, with
nothing computed.

Inference.  By the GL_2 shape, m_lam(a - 1, b + 1, c) >= m_lam(a, b, c) for
a - 1 >= b + 1, so a cell (a, b, c) with a - b >= 2 whose inner neighbour
(a - 1, b + 1, c) is zero is zero as well, and so is every cell further out
in its band.

Derived cells.  So a cell d has a source, source(d): its mirror (b, a, c)
when a < b, its inner neighbour (a - 1, b + 1, c) when a - b >= 2; the
cells with a - b <= 1 have none and are solved, unless read off their
fermionic diagonal (below).  When Plan opens a band, each cell that is not
in the cache gets its one wait: on its source when that source is a cell
of the same band, so each band is solved from its middle out, and for a
designated cell (below) also on the rest of its diagonal; a cell with
nothing to wait on is queued for a solve.  Once every cell it waits on is
settled, Plan.derive decides the cell: an a < b cell is a copy of its
source, an outer cell is a zero of its ambient dimension when its source
is zero, a designated cell is otherwise read off its diagonal, and any
other cell is queued for a solve.  A derived cell costs no budget and
is cached like a solved one, so the cache files do not depend on which
cells were solved; a cell waiting on one that was not finished is missing,
like one not computed.  A cell whose source is no cell of its band is
solved (for an a < b cell only a wrong but valid cached zero brings that
about).  Such a cached zero spreads to the cells derived from it, and the
comparison with the delta side, which like the frontier law sees every
cell, sees the terms it lost.

Fermionic diagonals.  D = sum_i theta_i d/dx_i and D' = sum_i x_i d/dtheta_i
are odd derivations of Q[x, y, theta] that commute with S_n (cf. Kim and
Rhoades, "Lefschetz theory for exterior algebras and fermionic diagonal
coinvariants", 2020; Rhoades and Wilson, "Set superpartitions and
superspace duality modules", 2022).  D maps p_{r,s} to r p~_{r-1,s} and kills every p~
(theta_i^2 = 0); D' maps p~_{r,s} to p_{r+1,s} and kills every p.  Each
image is a generator or 0, so both preserve I_n and act on M: D maps
M_(a,b,c) to M_(a-1,b,c+1), and D' maps it to M_(a+1,b,c-1).  D^2 = D'^2 = 0
(the theta_i theta_j and the d/dtheta_i d/dtheta_j anticommute), and
DD' + D'D is the even derivation that fixes every x_i and theta_i and kills
every y_i, so it acts on M_(a,b,c) as a + c.  On a diagonal (b fixed,
a + c = k >= 1), D'D/k and DD'/k are therefore complementary idempotents,
and M_(a,b,c) = P_(a,b,c) + P_(a+1,b,c-1) as S_n-modules, where
P_(a,b,c) = D'(M_(a-1,b,c+1)) is the image of D'D/k,
P_(0,b,k) = P_(k+1,b,-1) = 0, and D maps P_(a+1,b,c-1) = D'(M_(a,b,c)) one to
one onto the image of DD'/k.  So for each
lam, with m(i) = m_lam(i, b, k - i) (0 for k - i > n): the alternating sum
sum_i (-1)^i m(i) is 0, each partial sum sum_{i <= j} (-1)^(j - i) m(i) is
the multiplicity of s_lam in P_(j+1,b,k-j-1), so >= 0, and
m(i) <= m(i - 1) + m(i + 1).  check_diagonals tests all three on every
diagonal whose rows closed.  One cell of a diagonal is thus the alternating
sum of the others.  designated_cells(n) chooses at most one a >= b cell per
diagonal, the dearest by ambient dimension first, and Plan reads it off the
diagonal it waits on (above) instead of solving it, unless its source is
zero: every m_lam must be >= 0 with every partial sum, and within the
support bound below.  A cell read off costs no budget and is cached like a
copy.  A designated cell of the extra band waits on no diagonal and is
solved all the same, so the vanishing-law test stays as strong, and so is
one whose diagonal reaches a band beyond max_ab.

A designated cell waits on cells of other rows, so a careless choice
deadlocks: at n = 4, (4,2,0) waits on its inner neighbour (3,3,0), which,
designated, would wait on (2,3,1), a copy of (3,2,1), which, designated,
would wait on (4,2,0).  So the choice is made on a static wait graph,
built from the one rule Plan waits by: a cell waits on its source(d), and
a designated cell also on every other cell of its diagonal(n, d); a cell
is designated only if the graph stays acyclic.  The wait Plan sets when a
band opens is a subset of the cell's edges in this graph, and Plan derives
a waiting cell as soon as every cell it waits on is settled.  Every wait
joins cells of one total degree a + b + c, and a row reaches a band only
through its bands below, of lower total degree.  Suppose cells were left
unsettled with no solve queued or running, and take one of least total
degree T.  Its row has opened its band (else the band the row has open,
below it, holds an unsettled cell of lower degree), so it waits, on an
unsettled cell of degree T, which waits in turn; following the waits
closes a cycle in the static graph, which has none.

Support bound.  M = R/I_n is generated by 1, and p_{1,0} = sum_i x_i and
p_{0,1} = sum_i y_i lie in I_n.  For a >= 1 every monomial of degree
(a, b, c) is some x_i times one of degree (a - 1, b, c), so
e_i (x) m -> x_i m is an S_n-map from V (x) M_(a-1,b,c) onto M_(a,b,c), V
the permutation module on e_1, ..., e_n (x_i commutes with the thetas, so
no sign enters), and it kills (sum_i e_i) (x) m.  So M_(a,b,c) is a
quotient of V/1 (x) M_(a-1,b,c) = S^(n-1,1) (x) M_(a-1,b,c), and likewise,
through y_i, of S^(n-1,1) (x) M_(a,b-1,c) when b >= 1: for each lower
neighbour d - e, m_lam(d) <= [s_lam](s_(n-1,1) * F(M_(d-e))), * the
Kronecker product (characters.standard_kronecker).  When Plan queues a
cell d, these bounds from its nonzero lower neighbours lower(d) in hand,
and for an outer cell the GL_2 bound m_lam <= m_lam(a - 1, b + 1, c) of
its inner neighbour, its source, give it a support (support_bound): the
lams that all of them allow, each with its least bound.  The solve runs
the Young system of the support's lams (young_system(n, lams)): a zero
costs a cover of the support and one check character, a nonzero cell as
many characters as the support has lams and one redundancy check, and
every m_lam must lie within its bound.  A zero lower neighbour is never
used.  It would prove the cell zero outright, and a cell whose computed
lower neighbours are all zero lies in the extra band beyond a closed band
of zeros, which exists to test the vanishing law: it keeps the full Young
system's cover, so that test stays as strong.  A valid but wrong cached
cell bounds the cells above it wrongly; the comparison with the delta side
still sees the cell itself, and a solve that breaks such a bound, or a
frontier-law error above a zero so bounded, names it in its error.

The engine never works in monomial coordinates.  The unreduced reference
that tests compare against (the signed coordinate action and the traces on
whole components) lives in tests/unreduced.py.  Its ideal components in
monomial coordinates (spanning_vectors, ideal_component) and their sparse
mod-p full-rank certificate (_modp_is_full_rank) stay here for now, unused
by the engine, because the benchmark's tracer names them; the
Echelon.reduce_fully they call is engine code, the Young solve's.

Per-process tables.  The building blocks of an isotypic system that do not
depend on the system are computed once per process and shared by every
call: the live runs of one block, keyed by (block size, signed, degree),
and the cofactors of one triple, keyed by (n, triple).  Each is a pure
function of its key and is stored as tuples, so a caller cannot change it.
The block runs keep the 512 most recently used entries (0.8-0.9 MB at the
end of an n = 5 worker); a block on all n letters is a whole system's
targets, read once, and is enumerated without being stored.  The cofactors
have one entry per triple of the explored degrees (156 at the end of an
n = 5 worker).  The systems themselves, their orbit products, targets and
rows, are built per call and dropped; the orbit products have no memo of
their own, since over at most three blocks each split of a degree is
visited once.  The character values behind ComponentCharacters.chars come
from mn_character, whose border-strip recursion is cached per process.

Degree exploration is frontier-driven.  If a component vanishes, so do the
components one step up in a or b (any higher monomial is a variable times
a monomial lying in the ideal), so each theta row of the degree lattice is
explored until a closed band of zeros is found, then one configurable
extra band beyond it.  Plan holds that lattice and queues its solves;
frobenius_module starts them on its workers and keeps the time budget.
"""

from __future__ import annotations

import marshal
import os
import time
from collections import deque, namedtuple
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import product
from math import factorial, isfinite, prod

from .characters import mn_character, standard_kronecker, strip_count
from .linalg import Echelon, ConsistencyError
from .partitions import Partition, partitions_of, syt_count
from .qtz import QTZPoly
from .series import FrobeniusSeries
from .superring import (
    SuperMonomial,
    TriDegree,
    component_dimension,
    enumerate_monomials,
    ideal_generators,
    mono_mul,
)

# --- the unreduced reference: tests only; the benchmark's tracer names these ---

MODP_PRIME = 1_048_573


def spanning_vectors(n: int, d: TriDegree, index: dict[SuperMonomial, int]):
    """Ideal spanning vectors of tri-degree d, one per generator * monomial,
    each generator (r, s, e) written as its terms x_i^r y_i^s theta_i^e, i ascending."""
    for _name, (r, s, e) in ideal_generators(n):
        rem = TriDegree(d.a - r, d.b - s, d.c - e)
        if rem.a < 0 or rem.b < 0 or rem.c < 0:
            continue
        terms = [SuperMonomial(tuple(r if j == i else 0 for j in range(n)),
                               tuple(s if j == i else 0 for j in range(n)),
                               (i + 1,) if e else ()) for i in range(n)]
        for m in enumerate_monomials(n, rem):
            vec: dict[int, int] = {}
            for gm in terms:
                prod = mono_mul(gm, m)
                if prod is None:
                    continue
                sign, pm = prod
                i = index[pm]
                v = vec.get(i, 0) + sign
                if v:
                    vec[i] = v
                elif i in vec:
                    del vec[i]
            if vec:
                yield vec


def _modp_is_full_rank(vectors: list[dict[int, int]], dim: int) -> bool:
    """True only if the vectors certifiably span all dim coordinates.

    Sparse elimination modulo MODP_PRIME, which can only lower the rank, so a
    full-rank answer is exact; False just means "not certified".
    """
    if len(vectors) < dim:
        return False
    p = MODP_PRIME
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        v = {c: val % p for c, val in vec.items() if val % p}
        while v:
            j = min(v)
            row = pivots.get(j)
            if row is None:
                inv = pow(v[j], -1, p)
                pivots[j] = {c: val * inv % p for c, val in v.items()}
                if len(pivots) == dim:
                    return True
                break
            f = v[j]
            for c, val in row.items():
                w = (v.get(c, 0) - f * val) % p
                if w:
                    v[c] = w
                else:
                    v.pop(c, None)
    return False


@dataclass
class IdealComponentBasis:
    """Echelon basis of one ideal component in monomial coordinates."""

    degree: TriDegree
    monomials: tuple[SuperMonomial, ...]
    rank: int
    pivots: list[int] = field(default_factory=list)
    rows: list[dict[int, int]] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def echelon(self) -> Echelon:
        ech = Echelon()
        ech.pivots = {j: row for j, row in zip(self.pivots, self.rows)}
        return ech


def ideal_component(n: int, d: TriDegree) -> IdealComponentBasis:
    """Exact echelon basis of the span { g * m } inside the component of tri-degree d.

    The insertion stops once the rank is full; only a deficient basis is
    fully reduced.
    """
    monos = enumerate_monomials(n, d)
    dim = len(monos)
    if dim == 0:
        return IdealComponentBasis(d, monos, 0)
    index = {m: i for i, m in enumerate(monos)}
    ech = Echelon()
    for vec in spanning_vectors(n, d, index):
        ech.insert(vec)
        if ech.rank == dim:
            break
    if ech.rank < dim:
        ech.reduce_fully()
    pairs = sorted(ech.pivots.items())
    return IdealComponentBasis(
        d, monos, ech.rank, [j for j, _ in pairs], [row for _, row in pairs]
    )


# --- isotypic parts over Young subgroups --------------------------------------

Triples = tuple[tuple[int, int, int], ...]  # (x_i, y_i, [i in theta]) for i = 1..n


@dataclass(frozen=True)
class YoungCharacter:
    """psi on H = S_alpha x S_beta: trivial on S_alpha, sign on S_beta.

    The blocks sit on consecutive letters, alpha's first.  An H-orbit of
    monomials is named by its canonical representative, whose triples are
    sorted in descending order within each block.
    """

    alpha: Partition
    beta: Partition

    @property
    def n(self) -> int:
        return sum(self.alpha) + sum(self.beta)

    @property
    def order(self) -> int:
        return prod(factorial(k) for k in self.alpha + self.beta)

    @property
    def parts(self) -> tuple[tuple[int, bool], ...]:
        """(block size, signed) for each block, alpha's first."""
        return tuple([(k, False) for k in self.alpha] + [(k, True) for k in self.beta])

    @cached_property
    def blocks(self) -> tuple[tuple[int, int, bool], ...]:
        """(start, stop, signed) position ranges of the blocks of size > 1."""
        out = []
        start = 0
        for size, signed in self.parts:
            if size > 1:
                out.append((start, start + size, signed))
            start += size
        return tuple(out)

    @cached_property
    def letters(self) -> tuple[tuple[int, bool], ...]:
        """(end of its block, signed) for each letter."""
        out: list[tuple[int, bool]] = []
        for size, signed in self.parts:
            out += [(len(out) + size, signed)] * size
        return tuple(out)

    def live_orbits(self, d: TriDegree) -> list[Triples]:
        """Canonical representatives of the live orbits of tri-degree d, ascending.

        Within a block the triples descend, and two equal neighbours must
        carry theta exactly when the block is a sign block.  An orbit is one
        such run per block, so the orbits are a product over the splits of d
        among the blocks.

        The runs of one block come from _runs, a per-process table (its 512
        most recently used entries) shared by every character and degree: a
        block's runs depend only on its size, sign and degree, and are stored
        as tuples, so no caller can change them.  The products over the
        blocks are built per call, unmemoized, and not kept: with at most
        three blocks (every character of the full systems for n <= 8; those
        solved at n <= 5 have at most two) each split of d among the
        first blocks is visited once, and the last block's runs come from
        _runs.  A block on all n letters is a whole system's targets, read
        once per degree and character, so its runs are enumerated without
        being stored (their sub-blocks still are).
        """
        parts = self.parts

        def orbits(k: int, a: int, b: int, c: int):
            """The live orbits on the blocks k, k + 1, ... of degree (a, b, c)."""
            size, signed = parts[k]
            if k == len(parts) - 1:
                return (_runs.__wrapped__ if k == 0 else _runs)(size, signed, a, b, c)
            out = []
            for da, db, dc in product(range(a + 1), range(b + 1), range(min(c, size) + 1)):
                heads = _runs(size, signed, da, db, dc)
                tails = orbits(k + 1, a - da, b - db, c - dc) if heads else ()
                out += [head + tail for head in heads for tail in tails]
            return out

        return sorted(orbits(0, d.a, d.b, d.c))

    @cached_property
    def pairing(self) -> dict[Partition, int]:
        """<s_lam, h_alpha e_beta> for every lam |- n, a count of strips."""
        return {lam: strip_count(lam, self.parts) for lam in partitions_of(self.n)}


# bounded: an n = 5 worker reads 1.5k runs of blocks smaller than n (3.5 MB),
# the high-degree ones seldom twice; the 512 most recently used hold 0.8-0.9 MB
# and cost it 6.5k enumerations instead of 1.5k
@lru_cache(maxsize=512)
def _runs(size: int, signed: bool, a: int, b: int, c: int) -> tuple[Triples, ...]:
    """The live runs of one block of degree (a, b, c), ascending."""
    if c > size:
        return ()
    if size == 1:
        return (((a, b, c),),)
    out = []
    # the first triple is the largest, so its x is at least the mean
    for first in product(range(-(-a // size), a + 1), range(b + 1), range(min(c, 1) + 1)):
        x, y, t = first
        for rest in _runs(size - 1, signed, a - x, b - y, c - t):
            if rest[0] > first:
                break  # the rests ascend, so every later head is larger too
            if rest[0] < first or t == signed:
                out.append((first,) + rest)
    return tuple(out)


@cache
def _quotients(
    n: int, triple: tuple[int, int, int]
) -> tuple[tuple[int, tuple[int, int, int], int], ...]:
    """(index in ideal_generators(n), quotient, e) for each generator term
    x_i^r y_i^s theta_i^e that divides the triple."""
    x, y, t = triple
    return tuple(
        (k, (x - r, y - s, t - e), e)
        for k, (_name, (r, s, e)) in enumerate(ideal_generators(n))
        if x >= r and y >= s and t >= e
    )


def isotypic_dimension(d: TriDegree, psi: YoungCharacter) -> int:
    """dim M_d^psi: live H-orbits of degree d minus the rank of the rows g * v_O.

    Rows are built target-side: for each live target c and each term
    x_i^r y_i^s theta_i^e of a generator that divides c, the row (generator,
    cofactor orbit) gains the sign at column c.  No orbit is expanded.  The
    cofactor is c with the triple at i lowered, so its representative is c
    with that one triple moved right within its block, past the larger
    triples: each one passed flips the sign in a sign block, and again when
    both carry theta.  The orbit is dead when the moved triple lands on an
    equal one without theta in a sign block or with theta in a trivial
    block.  The target columns are labelled in
    descending orbit order, and the rows by their position when sorted by
    descending last column, sparsest first within one (a stable sort, so ties
    keep the last generators' rows first).  Row rank equals column rank, so
    the echelon takes one vector per live target, in target order, keyed by
    row label: the rows outnumber the targets and many depend on the others,
    and each of them would cost a chain of eliminations before reducing to
    zero.  The label order keeps the stored integers small.

    The cofactors of a triple come from _quotients, a per-process table
    keyed by (n, triple): which generator terms divide a triple, and what is
    left, depends on nothing else, and is stored as tuples.  Every triple of
    a target is at most d, so a generator dividing it has degree at most d;
    the rows are indexed by the whole generator list, whose unused entries
    stay empty and add no row.
    """
    targets = psi.live_orbits(d)[::-1]
    if not targets:
        return 0
    n = psi.n
    letters = psi.letters
    # one dict per generator; those that divide no triple of d stay empty
    rows: list[dict[Triples, dict[int, int]]] = [{} for _ in ideal_generators(n)]
    for col, c in enumerate(targets):
        before = 0  # thetas of c at letters < i: the sign of theta_i * cofactor
        for i, tr in enumerate(c):
            hi, signed = letters[i]
            for k, quo, e in _quotients(n, tr):
                # quo < tr: it moves right past the larger triples of its block
                sign = -1 if e and before % 2 else 1
                j = i + 1
                while j < hi and c[j] > quo:
                    if signed:
                        sign = -sign
                    if quo[2] and c[j][2]:
                        sign = -sign
                    j += 1
                if j < hi and c[j] == quo and quo[2] != signed:
                    continue  # a dead orbit
                rep = c[:i] + c[i + 1:j] + (quo,) + c[j:]
                row = rows[k].setdefault(rep, {})
                row[col] = row.get(col, 0) + sign
            before += tr[2]
    columns: list[dict[int, int]] = [{} for _ in targets]
    # the columns of a row arrive ascending, so its last one is its largest
    ordered = sorted((row for part in reversed(rows) for row in part.values()),
                     key=lambda row: (-next(reversed(row)), len(row)))
    for label, row in enumerate(ordered):
        for col, val in row.items():
            columns[col][label] = val
    ech = Echelon()
    for column in columns:
        ech.insert(column)
    return len(targets) - ech.rank


@dataclass(frozen=True)
class YoungSystem:
    """Young characters whose pairings K[psi, lam] = <s_lam, h_alpha e_beta> invert.

    The system solves for the m_lam of its lams and takes every other m_lam
    to be 0.  extra is one more, dependent character, computed as a
    redundancy check.  The cover is a subset whose characters together pair
    positively with every s_lam of lams, so all-zero cover dimensions prove
    every m_lam zero; zero_check is the one more character computed with them.
    """

    n: int
    lams: tuple[Partition, ...]
    characters: tuple[YoungCharacter, ...]
    extra: YoungCharacter | None

    @cached_property
    def cover(self) -> tuple[YoungCharacter, ...]:
        """Built greedily, in the order chosen.

        The lams are taken fewest pairing characters first (stable in
        partitions_of order), and one that no chosen character pairs with
        adds its largest-|H| pairing character: the characters run in
        descending |H|.
        """
        lams = self.lams
        pairs = {lam: [psi for psi in self.characters if psi.pairing[lam]] for lam in lams}
        cover: list[YoungCharacter] = []
        for lam in sorted(lams, key=lambda lam: len(pairs[lam])):
            if not any(psi.pairing[lam] for psi in cover):
                cover.append(pairs[lam][0])
        return tuple(cover)

    @property
    def zero_check(self) -> YoungCharacter | None:
        """The first character outside the cover (e_n for n >= 3), else extra."""
        return next((psi for psi in self.characters if psi not in self.cover), self.extra)

    def multiplicities(self, dims: list[int]) -> dict[Partition, int]:
        """Schur multiplicities, K m = dims solved on an Echelon of the rows
        [K_psi | dim]: fully reduced, row j gives m_lam = num / den; must be in N."""
        lams = self.lams
        size = len(lams)
        ech = Echelon()
        for psi, dim in zip(self.characters, dims):
            ech.insert({**{j: psi.pairing[lam] for j, lam in enumerate(lams)}, size: dim})
        ech.reduce_fully()
        out = dict.fromkeys(partitions_of(self.n), 0)
        for j, lam in enumerate(lams):
            num, den = ech.pivots[j].get(size, 0), ech.pivots[j][j]
            if num % den or num < 0:
                m = num if den == 1 else f"{num}/{den}"
                raise ConsistencyError(f"multiplicity of s_{lam} is {m}, not in N")
            out[lam] = num // den
        return out


@cache
def young_candidates(n: int) -> tuple[YoungCharacter, ...]:
    """Every (alpha, beta) with no part 1 in beta, by |H| descending, then (alpha, beta);
    kept per process, so each character's pairing is computed once."""
    out = [
        YoungCharacter(alpha, beta)
        for k in range(n + 1)
        for alpha in partitions_of(k)
        for beta in partitions_of(n - k)
        if 1 not in beta
    ]
    return tuple(sorted(out, key=lambda psi: (-psi.order, psi.alpha, psi.beta)))


@cache
def young_system(n: int, lams: tuple[Partition, ...] | None = None) -> YoungSystem:
    """Greedy by |H|: take a character whenever its pairing row, restricted
    to lams (every lam |- n when None), is independent.

    The redundancy check uses the first candidate left out, the one with the
    largest |H| outside the set.  The system's cover (n = 4: (3,1)|() and
    ()|(2,2)) decides the zero components.  No lams give no characters, and
    the redundancy check is then the first candidate.
    """
    lams = partitions_of(n) if lams is None else lams
    candidates = young_candidates(n)
    chosen: list[YoungCharacter] = []
    ech = Echelon()
    for psi in candidates:
        if len(chosen) == len(lams):
            break
        row = {j: psi.pairing[lam] for j, lam in enumerate(lams) if psi.pairing[lam]}
        if ech.insert(row) is not None:
            chosen.append(psi)
    if len(chosen) != len(lams):
        raise ConsistencyError(f"Young characters do not span the class functions of S_{n}")
    extra = next((psi for psi in candidates if psi not in chosen), None)
    return YoungSystem(n, lams, tuple(chosen), extra)


@dataclass
class ComponentCharacters:
    """Schur multiplicities of the quotient at one tri-graded component; the
    ambient dimension `dim` is derived from n and the degree, never stored."""

    n: int
    degree: TriDegree
    mult: dict[Partition, int]  # m_lam for every lam |- n

    @property
    def dim(self) -> int:
        return component_dimension(self.n, self.degree)

    @property
    def dim_quotient(self) -> int:
        return sum(m * syt_count(lam) for lam, m in self.mult.items())

    @property
    def rank(self) -> int:
        """Rank of the ideal component."""
        return self.dim - self.dim_quotient

    @property
    def chars(self) -> dict[Partition, int]:
        """Quotient character values chi_M(mu) = sum_lam m_lam chi^lam(mu)."""
        return {
            mu: sum(m * mn_character(lam, mu) for lam, m in self.mult.items())
            for mu in partitions_of(self.n)
        }


def component_characters(
    n: int, d: TriDegree, support: dict[Partition, int] | None = None
) -> ComponentCharacters:
    """The Schur multiplicities of the quotient at tri-degree d.

    support, when given, maps the lams the component can hold to their
    bounds (the Support bound paragraph of the module docstring); every
    other m_lam is 0, and the solve runs the Young system of the support's
    lams only.  The cover's isotypic dimensions come first.  All zero
    proves the component zero, and the zero check's dimension must then be
    0 as well.  Otherwise the rest of the Young system is computed,
    K m = (dim M_d^psi) is solved for the multiplicities m, and they are
    checked against one more dependent character and against their bounds.
    """
    dim = component_dimension(n, d)
    zero = {lam: 0 for lam in partitions_of(n)}
    if dim == 0:
        return ComponentCharacters(n, d, zero)
    lams = None if support is None else tuple(
        lam for lam in partitions_of(n) if support.get(lam, 0) > 0)
    system = young_system(n, lams)
    cover_dims = {psi: isotypic_dimension(d, psi) for psi in system.cover}
    if not any(cover_dims.values()):
        check = system.zero_check
        if check is not None and (got := isotypic_dimension(d, check)):
            raise ConsistencyError(
                f"zero check at {d}: dim M^psi = {got} for {check}, the cover proves it 0"
            )
        return ComponentCharacters(n, d, zero)
    dims = [cover_dims[psi] if psi in cover_dims else isotypic_dimension(d, psi)
            for psi in system.characters]
    try:
        mult = system.multiplicities(dims)
    except ConsistencyError as exc:
        raise ConsistencyError(f"at {d}: {exc}") from exc
    if system.extra is not None:
        want = sum(m * system.extra.pairing[lam] for lam, m in mult.items())
        got = isotypic_dimension(d, system.extra)
        if got != want:
            raise ConsistencyError(
                f"redundancy check at {d}: dim M^psi = {got} for {system.extra}, "
                f"the multiplicities give {want}"
            )
    if support is not None:
        for lam, bound in support.items():
            if mult[lam] > bound:
                raise ConsistencyError(
                    f"at {d}: multiplicity of s_{lam} is {mult[lam]}, above its bound {bound}"
                )
    comp = ComponentCharacters(n, d, mult)
    if comp.dim_quotient > dim:
        raise ConsistencyError(
            f"at {d}: the quotient dimension {comp.dim_quotient} exceeds the ambient {dim}"
        )
    return comp


def lower(d: TriDegree) -> tuple[TriDegree, TriDegree]:
    """The lower neighbours (a - 1, b, c) and (a, b - 1, c) of d."""
    return TriDegree(d.a - 1, d.b, d.c), TriDegree(d.a, d.b - 1, d.c)


def source(d: TriDegree) -> TriDegree | None:
    """The cell d is derived from (the Derived cells paragraph of the module
    docstring): its mirror when a < b, its inner neighbour when a - b >= 2."""
    if d.a < d.b:
        return TriDegree(d.b, d.a, d.c)
    return TriDegree(d.a - 1, d.b + 1, d.c) if d.a - d.b >= 2 else None


def support_bound(n: int, d: TriDegree, components) -> tuple[list, dict | None]:
    """(cells, support): the cells in hand that bound the cell d, which a
    failed solve's error names, and the lams d can hold, each with its bound.

    The cells are d's nonzero lower neighbours and, if it has any, an outer
    cell's source.  A lower neighbour bounds m_lam(d) by [s_lam](s_(n-1,1) * F),
    F its Frobenius characteristic, the inner neighbour by its own m_lam (the
    Support bound paragraph of the module docstring).  The least bound is kept
    for each lam that all allow; the support is None for no cells.
    """
    lams = partitions_of(n)
    cells = [p for p in lower(d) if p in components and components[p].dim_quotient]
    bounds = []
    for p in cells:
        m = [components[p].mult[mu] for mu in lams]
        bounds.append([sum(x * k for x, k in zip(m, col)) for col in zip(*standard_kronecker(n))])
    if cells and d.a > d.b and (inner := source(d)) in components:
        cells.append(inner)
        bounds.append([components[inner].mult[mu] for mu in lams])
    if not bounds:
        return cells, None
    return cells, {lam: least for lam, *bs in zip(lams, *bounds) if (least := min(bs))}


def diagonal(n: int, d: TriDegree) -> list[TriDegree]:
    """The cells of d's fermionic diagonal (b fixed, a + c = k), a ascending;
    the cells with c > n are zero and left out."""
    k = d.a + d.c
    return [TriDegree(a, d.b, k - a) for a in range(max(0, k - n), k + 1)]


def top_band(n: int) -> int:
    """The last band a + b a run explores when no max_ab is given."""
    return n * (n - 1) + 2


@cache
def designated_cells(n: int) -> frozenset[TriDegree]:
    """The cells read off their fermionic diagonals, at most one per diagonal.

    The a >= b cells of total degree a + b + c <= top_band(n) (the default
    max_ab) on a diagonal with k = a + c >= 1 are taken by descending ambient
    dimension, ties by ascending degree.  One is designated for its diagonal,
    which then has none yet, unless it would close a cycle in the static
    wait graph, built from the rule Plan waits by: a cell waits on its
    source, and a designated cell also on every other cell of its diagonal.
    So the graph stays acyclic (the Fermionic diagonals paragraph of the
    module docstring says why that rules out a deadlock).  A pure function
    of n, kept per process.
    """
    waits = {}  # cell -> the cells it may wait on: its source, and its diagonal once designated
    for total in range(top_band(n) + 1):
        for c in range(min(total, n) + 1):
            for a in range(total - c + 1):
                d = TriDegree(a, total - c - a, c)
                waits[d] = [] if (p := source(d)) is None else [p]
    chosen, diagonals = set(), set()
    for d in sorted((d for d in waits if d.a >= d.b and d.a + d.c),
                    key=lambda d: (-component_dimension(n, d), d)):
        if (d.b, d.a + d.c) in diagonals:
            continue
        others = [p for p in diagonal(n, d) if p != d]
        seen, todo = set(), list(others)
        while todo and d not in seen:  # does d wait on itself through its diagonal?
            p = todo.pop()
            if p not in seen:
                seen.add(p)
                todo += waits[p]
        if d not in seen:
            waits[d] += others
            chosen.add(d)
            diagonals.add((d.b, d.a + d.c))
    return frozenset(chosen)


def diagonal_fault(cells: list[TriDegree], column: list[int]) -> str | None:
    """The first relation of a fermionic diagonal that column[i] = m_lam(cells[i])
    breaks, or None; cells is a diagonal(n, d), and the cells it leaves out are 0.

    Each m_lam >= 0, each partial sum sum_{i <= j} (-1)^(j - i) m_lam(i) >= 0
    (i the x-degree), m_lam(a) <= m_lam(a - 1) + m_lam(a + 1), and the
    alternating sum is 0 (the Fermionic diagonals paragraph of the module
    docstring).
    """
    partial = 0
    for i, (p, m) in enumerate(zip(cells, column)):
        partial = m - partial
        near = (column[i - 1] if i else 0) + (column[i + 1] if i + 1 < len(column) else 0)
        if m < 0:
            return f"m = {m} at {p}"
        if partial < 0:
            return f"the partial sum up to {p} is {partial}"
        if m > near:
            return f"m = {m} at {p} exceeds its neighbours' sum {near}"
    return f"the alternating sum is {partial}, not 0" if partial else None


def _component_worker(args) -> ComponentCharacters:
    n, d, support = args
    return component_characters(n, TriDegree(*d), support)


def _solve(args) -> tuple:
    """Run the solve args = (n, degree, support); its reply, the one form every
    worker set carries and Plan.accept reads, is (mult, None), or (None, (error
    type, message)) for an Exception it raised.  An interrupt propagates."""
    try:
        return _component_worker(args).mult, None
    except Exception as exc:
        return None, (type(exc).__name__, str(exc))


class InProcess:
    """The calling process as the one worker: a started solve runs when it is
    waited on, giving _solve's reply.  It speaks ForkedWorkers' interface."""

    def __init__(self):
        self.busy = []  # the solve started and not yet run

    def submit(self, args) -> None:
        self.busy.append(args)

    def wait(self) -> list[tuple]:
        done, self.busy = self.busy, []
        return [(args, _solve(args)) for args in done]

    def close(self) -> None:
        pass


class ForkedWorkers:
    """Worker processes forked from this one, each running one solve at a time.

    A worker is forked when a solve starts and every worker forked so far is
    busy, so the caller, which bounds the solves running at once, bounds the
    workers.  Each has a task pipe and a result pipe of its own and speaks
    marshal over them: (n, degree, support) goes out, and _solve's reply comes
    back, carried as it is.  A worker ignores SIGINT, so an interrupt reaches
    this process alone, exits when its task pipe closes, and leaves only
    through os._exit.  Forking is safe because the engine starts no threads.
    """

    Worker = namedtuple("Worker", "pid tasks results")  # tasks' write end, results' read end

    def __init__(self):
        self.workers = []  # every live worker
        self.busy = {}  # result fd -> (worker, the solve it runs)

    def submit(self, args) -> None:
        """Start the solve args = (n, degree, support) on a free worker.  A
        worker that died idle raises, naming the degree, as in wait."""
        free = [w for w in self.workers if w.results.fileno() not in self.busy]
        worker = free[0] if free else self._fork()
        n, d, support = args
        try:
            marshal.dump((n, tuple(d), support), worker.tasks)
            worker.tasks.flush()
        except BrokenPipeError:
            raise self._died(worker, d) from None
        self.busy[worker.results.fileno()] = (worker, args)

    def wait(self) -> list[tuple]:
        """Block until a solve finishes: (args, _solve's reply) for each
        finished one.  A worker that died raises, naming its degree."""
        import select

        ready, _, _ = select.select(list(self.busy), [], [])
        done = []
        for fd in ready:
            worker, args = self.busy.pop(fd)
            try:
                done.append((args, marshal.load(worker.results)))
            except EOFError:
                raise self._died(worker, args[1]) from None
        return done

    def close(self) -> None:
        """Kill the workers still busy, then close every pipe and reap every worker."""
        if self.busy:
            import signal

            for worker, _ in self.busy.values():
                os.kill(worker.pid, signal.SIGKILL)
            self.busy.clear()
        for worker in list(self.workers):
            self._reap(worker)

    def _died(self, worker, d) -> RuntimeError:
        # reap the dead worker that was given the solve at d: the error naming both
        return RuntimeError(f"the worker solving {d} died with exit status {self._reap(worker)}")

    def _reap(self, worker) -> int:
        # close the worker's pipes and wait for it: its exit code; the task pipe
        # of a dead worker still holding an unsent task fails to flush, but closes
        self.workers.remove(worker)
        with suppress(BrokenPipeError):
            worker.tasks.close()
        worker.results.close()
        return os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])

    def _fork(self):
        import signal

        tasks, results = os.pipe(), os.pipe()  # (read end, write end) each
        # a SIGINT before the child ignores it would unwind the child into the caller
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pid = os.fork()
            if pid == 0:
                others = [f.fileno() for w in self.workers for f in (w.tasks, w.results)]
                _serve(tasks[0], results[1], [*others, tasks[1], results[0]], mask)
        except OSError:
            for fd in (*tasks, *results):
                os.close(fd)
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(tasks[0])
        os.close(results[1])
        worker = self.Worker(pid, os.fdopen(tasks[1], "wb"), os.fdopen(results[0], "rb"))
        self.workers.append(worker)
        return worker


def _serve(tasks: int, results: int, others: list[int], mask) -> None:
    """A forked worker: solve each task read from the pipe tasks and write its
    reply to the pipe results until tasks closes, then exit; never returns."""
    import signal

    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in others:
            os.close(fd)
        with os.fdopen(tasks, "rb") as inbox, os.fdopen(results, "wb") as outbox:
            while True:
                try:
                    task = marshal.load(inbox)
                except EOFError:
                    break
                marshal.dump(_solve(task), outbox)
                outbox.flush()
        code = 0
    finally:
        os._exit(code)


@dataclass
class ModuleSideResult:
    n: int
    series: FrobeniusSeries
    components: dict[TriDegree, ComponentCharacters]
    rows: dict[int, bool]  # c -> closed for c = 0..n; False for a row a budget cut short

    @property
    def closed(self) -> bool:
        return all(self.rows.values())


def assemble_series(n: int, components) -> FrobeniusSeries:
    """Schur expansion: coeff(lam) gains q^a t^b z^c m_lam per component.

    Every multiplicity must be a nonnegative integer.
    """
    series = FrobeniusSeries(n)
    acc: dict[Partition, dict] = {lam: {} for lam in partitions_of(n)}
    for d, comp in sorted(components.items()):
        for lam, m in comp.mult.items():
            if type(m) is not int or m < 0:
                raise ConsistencyError(f"at {d}: multiplicity of s_{lam} is {m}, not in N")
            if m:
                acc[lam][(d.a, d.b, d.c)] = m
    for lam, terms in acc.items():
        if terms:
            series.set_coefficient(lam, QTZPoly(terms))
    return series


def check_module_arguments(
    n: int,
    extra_band: int,
    threads: int,
    budget_seconds: float | None = None,
    max_ab: int | None = None,
) -> None:
    """Raise ValueError for arguments frobenius_module cannot run with."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if extra_band < 0:
        raise ValueError(f"extra_band must be >= 0, got {extra_band}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads > 1 and not hasattr(os, "fork"):
        raise ValueError(f"threads > 1 needs os.fork, which this platform lacks, got {threads}")
    if max_ab is not None and max_ab < 0:
        raise ValueError(f"max_ab must be >= 0, got {max_ab}")
    if budget_seconds is not None and not (isfinite(budget_seconds) and budget_seconds >= 0):
        raise ValueError(f"budget_seconds must be finite and >= 0, got {budget_seconds}")


class Plan:
    """The degree lattice of one run: the cells in hand, each waiting cell
    with the cells it waits on, and the solves queued, oldest first.  It
    reads no clock and starts no solve; frobenius_module starts the queued
    ones and hands each finished one to accept.

    Each theta row c = 0..n goes through its own bands a + b = 0, 1, 2, ....
    A cell (a, b, c) of an open row's band is computed when it is the origin
    or sits within extra_band steps above a computed zero bordering the
    nonzero support.  A row closes at its first band without such a cell,
    and is final: the vanishing law makes every cell beyond it zero; one
    that needs a band beyond max_ab stays open.  A row's next band opens as
    soon as its band is in hand.  Its cache hits are kept, and start gives
    each other cell its one wait (the Derived cells paragraph of the module
    docstring): on its source when that is a cell of the band, and for a
    designated cell (designated_cells) of level 0 (outside the extra band:
    some computed lower neighbour is nonzero) whose diagonal lies within
    max_ab, also on every other cell of its diagonal.  A cell with nothing
    to wait on is queued at once, largest first, behind the solves already
    queued (so no row waits for a slower one), for the support that the
    cells below it in hand allow (support_bound).  Once every cell it waits
    on is settled (in hand, or a zero of a band its row opened without it or
    passed), derive makes a waiting cell a copy of its mirror, a zero beyond
    a zero inner neighbour, the alternating sum of the rest of its diagonal,
    or a queued solve.  A nonzero cell strictly beyond a zero breaks the
    vanishing law, a solve can fail its checks within its support, and a
    cell read off its diagonal can break the diagonal's relations or its
    support: each raises ConsistencyError, naming the cells below the cell
    (or the cells of its diagonal), then the cells that shaped them in turn
    (a copy or an inferred zero is shaped by its source), since a wrong
    cached one among them can cause it.
    """

    def __init__(self, n: int, extra_band: int, max_ab: int, component_cache=None):
        self.n, self.extra_band, self.max_ab, self.cache = n, extra_band, max_ab, component_cache
        self.components: dict[TriDegree, ComponentCharacters] = {}  # survives a budget overrun
        self.rows: dict[int, bool] = {}  # c -> closed; False while open or stopped at max_ab
        self.cells: dict[int, dict[TriDegree, int]] = {}  # c -> its band's cells -> level
        self.waiting: dict[TriDegree, list[TriDegree]] = {}  # cell -> the cells it waits on
        self.queued = deque()  # (n, degree, support) of the solves not started, oldest first
        self.shaped: dict[TriDegree, list] = {}  # queued or kept cell -> the cells that shaped it
        for c in range(n + 1):
            self.start(c, 0)
        self.advance()

    def accept(self, args, reply) -> None:
        """Keep the component in reply, _solve's reply to the finished solve
        args, and advance the rows; or raise the error that reply names."""
        n, d, _ = args
        mult, error = reply
        if error is None:
            self.keep(ComponentCharacters(n, d, mult))
            self.advance()
        elif error[0] != ConsistencyError.__name__:
            raise RuntimeError(f"the solve at {d} raised {error[0]}: {error[1]}")
        elif self.shaped[d]:
            raise ConsistencyError(f"{error[1]}; solved within the bounds set by the cells "
                                   f"{', '.join(map(str, self.shaped[d]))}, "
                                   "so one of them may be wrong")
        else:
            raise ConsistencyError(error[1])

    def behind(self, cells):
        # these cells, then the cells that shaped them
        return list(dict.fromkeys(cells + [p for q in cells for p in self.shaped[q]]))

    def queue(self, todo):
        # solve these cells, largest first, behind those already queued, each
        # for the lams that the cells below it in hand allow
        for d in sorted(todo, key=lambda d: -component_dimension(self.n, d)):
            cells, support = support_bound(self.n, d, self.components)
            self.shaped[d] = self.behind(cells)
            self.queued.append((self.n, d, support))

    def keep(self, comp, put=True):
        # in hand (solved, read from the cache, copied, inferred or read off):
        # kept, and cached unless it was read from there
        self.components[comp.degree] = comp
        self.shaped.setdefault(comp.degree, [])  # a cache hit rests on no cell
        if put and self.cache is not None:
            self.cache.put(comp)

    def derive(self, d, cells):
        # every cell d waited on is settled: copy its mirror, keep a zero beyond
        # a zero inner neighbour, read it off its diagonal, or solve it
        p = source(d)
        if p in cells and (d.a < d.b or not self.components[p].dim_quotient):
            self.shaped[d] = self.behind([p])
            comp = self.components[p]
            mult = dict(comp.mult) if d.a < d.b else dict.fromkeys(comp.mult, 0)
            self.keep(ComponentCharacters(self.n, d, mult))
        elif any(q.c != d.c for q in cells):  # it waited on its diagonal, which crosses the rows
            self.infer(d)
        else:
            self.queue([d])

    def settled(self, p):
        # in hand, or a zero: a cell of a band its row opened without it, or
        # passed; only cells of bands up to max_ab are asked
        if p in self.components:
            return True
        row = self.cells[p.c]
        band = next((q.a + q.b for q in row), None)  # None once the row closed or stopped
        return band is None or p.a + p.b < band or (p.a + p.b == band and p not in row)

    def infer(self, d):
        # keep the designated cell d as the alternating sum of the other cells
        # of its settled diagonal, checked against the diagonal's relations and
        # the support the cells below it allow
        n, components = self.n, self.components
        cells = diagonal(n, d)
        kept = [p for p in cells if p != d and p in components]
        bounds, support = support_bound(n, d, components)
        self.shaped[d] = self.behind(kept + bounds)
        mult = {lam: sum((-1) ** (p.c + d.c + 1) * components[p].mult[lam] for p in kept)
                for lam in partitions_of(n)}
        for lam, m in mult.items():
            column = [m if p == d else components[p].mult[lam] if p in components else 0
                      for p in cells]
            bound = m if support is None else support.get(lam, 0)
            fault = diagonal_fault(cells, column) or (
                m > bound and f"m = {m} at {d}, above its bound {bound}")
            if fault:
                raise ConsistencyError(
                    f"at {d}, read off its fermionic diagonal, s_{lam}: {fault}; "
                    f"inferred from the cells {', '.join(map(str, self.shaped[d]))}, "
                    "so one of them may be wrong")
        self.keep(ComponentCharacters(n, d, mult))

    def start(self, c, band):
        # open row c's band: stop the row, or keep its cache hits, give each
        # other cell its one wait and queue those with nothing to wait on; a
        # cell's level is 0 above a nonzero lower neighbour, else one more than
        # the least level of its lower neighbours, which are cells of the band below
        below, row = self.cells.get(c, {}), {}
        for a in range(band + 1):
            d = TriDegree(a, band - a, c)
            levels = [0 if self.components[p].dim_quotient else below[p] + 1
                      for p in lower(d) if p in below]
            lvl = 0 if band == 0 else min(levels, default=None)
            if lvl is not None and lvl <= self.extra_band:
                row[d] = lvl
        self.rows[c] = not row
        self.cells[c] = {} if band > self.max_ab else row  # no cell: the row stopped
        todo = []
        for d, lvl in self.cells[c].items():
            comp = self.cache.get(self.n, d) if self.cache is not None else None
            if comp is not None:
                self.keep(comp, put=False)
                continue
            waits = [p] if (p := source(d)) in row else []
            if d in designated_cells(self.n) and not lvl and band + c <= self.max_ab:
                waits += [q for q in diagonal(self.n, d) if q != d]
            if waits:
                self.waiting[d] = waits
            else:
                todo.append(d)
        self.queue(todo)

    def advance(self):
        # until nothing moves: derive each waiting cell once every cell it waits
        # on is settled, and for each open row whose band is in hand check the
        # frontier law, then open its next band
        while True:
            ready = [d for d, cells in self.waiting.items() if all(map(self.settled, cells))]
            rows = [c for c, cells in self.cells.items()
                    if cells and all(d in self.components for d in cells)]
            if not ready and not rows:
                return
            for d in ready:
                self.derive(d, self.waiting.pop(d))
            for c in rows:
                for d, lvl in self.cells[c].items():
                    if lvl > 0 and self.components[d].dim_quotient:  # its lower cells are zeros
                        zeros = [p for p in lower(d) if p in self.components]
                        raise ConsistencyError(
                            f"nonzero component beyond the zero frontier at {d}; "
                            "the zero cells below it and the cells that shaped them are "
                            f"{', '.join(map(str, self.behind(zeros)))}, so one of them may be wrong")
                self.start(c, d.a + d.b + 1)  # d is the band's last cell


def frobenius_module(
    n: int,
    extra_band: int = 1,
    threads: int = 1,
    max_ab: int | None = None,
    budget_seconds: float | None = None,
    component_cache=None,
) -> ModuleSideResult:
    """Compute the qtz-graded Frobenius series of the quotient module.

    A Plan of the rows c = 0..n, their bands a + b <= max_ab and extra_band
    extra bands queues the solves and derives the other cells, reading and
    filling component_cache, which when given must provide get(n, degree)
    and put(component).  One loop runs the solves whatever threads is: the
    oldest queued solve starts as soon as one of min(threads, cores) workers
    is free, and completions are taken as they come.  One worker is the
    calling process (InProcess); more are forked from it on demand
    (ForkedWorkers), so threads > 1 needs os.fork.  Both hand _solve's reply
    to Plan.accept, so a failing solve raises the same error at every
    threads.  A worker freed by a finished solve is given the oldest queued
    one before the finished one is kept.  No solve starts after the
    deadline, so a cell whose source finishes nonzero after it is not
    solved, and a solve running at the deadline is finished and kept.  A run
    stops within one component of its deadline, every component it solved is
    in the result, with the cells derived from them, and rows[c] is False for
    every row it cut short.

    The result is returned as computed; check_gl2_shape and check_diagonals
    test its closed rows.  The CLI's module-side commands run them on the
    result, and verify_conjecture runs them after comparing, so that a module
    side that alone breaks the shape or a diagonal is reported as the
    difference it is.
    """
    check_module_arguments(n, extra_band, threads, budget_seconds, max_ab)
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    workers = min(threads, os.cpu_count() or 1)
    pool = ForkedWorkers() if workers > 1 else InProcess()

    def refill():
        # start the oldest queued solves on the free workers until the deadline
        while (plan.queued and len(pool.busy) < workers
               and (deadline is None or time.monotonic() <= deadline)):
            pool.submit(plan.queued.popleft())

    try:
        plan = Plan(n, extra_band, top_band(n) if max_ab is None else max_ab, component_cache)
        refill()
        while pool.busy:
            done = pool.wait()
            refill()  # a freed worker takes the oldest queued solve before the keeps
            for args, reply in done:
                plan.accept(args, reply)
            refill()
    finally:
        pool.close()

    return ModuleSideResult(n, assemble_series(n, plan.components), plan.components, plan.rows)


def check_gl2_shape(result: ModuleSideResult) -> None:
    """Raise ConsistencyError unless every closed theta row has the GL_2 shape.

    For each lam: m(a, b, c) = m(b, a, c), and m(a, b, c) >= m(a + 1, b - 1, c)
    for a >= b (the proof is in the module docstring).  A cell of a closed row
    that was not computed lies above a computed zero, so it counts as 0.

    frobenius_module derives most cells from their source, and the half of
    the shape that relates a derived cell to its source holds there by
    construction, a tautology: the symmetry on a copy of its mirror,
    unimodality on a zero inferred from its inner neighbour.  Each half stays
    a real check on every cell that was solved (its source nonzero, or no
    cell of its band) and on a pair read from the cache.
    """
    lams = partitions_of(result.n)
    mults = {d: comp.mult for d, comp in result.components.items()}
    for c, closed in result.rows.items():
        if not closed:
            continue
        top = max((d.a + d.b for d in mults if d.c == c), default=-1)
        for k in range(top + 1):
            for a in range(-(-k // 2), k + 1):
                b = k - a
                cells = TriDegree(a, b, c), TriDegree(b, a, c), TriDegree(a + 1, b - 1, c)
                here, mirror, outer = (mults.get(p, {}) for p in cells)
                for lam in lams:
                    m = here.get(lam, 0)
                    if m != mirror.get(lam, 0) or (b and m < outer.get(lam, 0)):
                        raise ConsistencyError(
                            f"GL_2 shape at {cells[0]}, s_{lam}: m = {m}, "
                            f"at {cells[1]} {mirror.get(lam, 0)}, at {cells[2]} {outer.get(lam, 0)}"
                        )


def check_diagonals(result: ModuleSideResult) -> int:
    """Raise ConsistencyError unless every fermionic diagonal settled in closed
    rows has the relations the module docstring proves; return how many pairs
    of such a diagonal and a lam with a nonzero multiplicity were checked.

    A diagonal (b fixed, a + c = k >= 1) is checked when every row c <= n it
    crosses is closed; a cell of a closed row that was not computed counts as
    0, and so does a cell with c > n.  For each lam: the alternating sum is 0,
    every partial sum is >= 0 and m(a, b, c) <= m(a - 1, b, c + 1) +
    m(a + 1, b, c - 1) (diagonal_fault).  On a diagonal with a cell read off
    it (designated_cells) the alternating sum holds by construction, and the
    rest was checked as it was read; the check stays real on every diagonal
    whose cells were all solved, copied or read from the cache.
    """
    n, components = result.n, result.components
    closed = {c for c, ok in result.rows.items() if ok}
    zero = dict.fromkeys(partitions_of(n), 0)
    checked = 0
    for b, k in sorted({(d.b, d.a + d.c) for d in components if d.a + d.c}):
        cells = diagonal(n, TriDegree(k, b, 0))
        if not all(p.c in closed for p in cells):
            continue
        mults = [components[p].mult if p in components else zero for p in cells]
        for lam in zero:
            column = [mult[lam] for mult in mults]
            checked += any(column)
            if fault := diagonal_fault(cells, column):
                raise ConsistencyError(f"fermionic diagonal b={b}, a+c={k}, s_{lam}: {fault}")
    return checked
