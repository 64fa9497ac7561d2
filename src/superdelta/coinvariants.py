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
is invertible turns these dimensions into the multiplicities m_lam, which
must be nonnegative integers.  A component is stored as these m_lam: the
quotient dimension is sum_lam m_lam f^lam, the series gains
q^a t^b z^c m_lam at s_lam, and the characters chi_M(mu) =
sum_lam m_lam chi^lam(mu) are derived on demand.  One more, dependent psi
is computed as a redundancy check.

The engine never works in monomial coordinates.  The unreduced reference
that tests compare against (the signed coordinate action and the traces on
whole components) lives in tests/unreduced.py.  Its ideal components in
monomial coordinates and their sparse mod-p full-rank certificate stay here
for now, unused by the engine, because the benchmark's tracer names them.

Degree exploration is frontier-driven.  If a component vanishes, so do the
components one step up in a or b (any higher monomial is a variable times
a monomial lying in the ideal), so each theta-row of the degree lattice is
explored until a closed band of zeros is found, then one configurable
extra band beyond it.  One loop over the bands a + b = 0, 1, 2, ... serves
every theta row still open, and each band's components are computed in one
step, the only place where the time budget is read.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product
from math import factorial, isfinite, prod
from threading import TIMEOUT_MAX

from .characters import character_table
from .linalg import Echelon, ConsistencyError, inverse
from .partitions import Partition, partitions_of, z_mu
from .qtz import QTZPoly
from .rationals import RAT
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
    """Ideal spanning vectors of tri-degree d, one per generator * monomial."""
    for _name, e, gen in ideal_generators(n):
        rem = TriDegree(d.a - e.a, d.b - e.b, d.c - e.c)
        if rem.a < 0 or rem.b < 0 or rem.c < 0:
            continue
        for m in enumerate_monomials(n, rem):
            vec: dict[int, int] = {}
            for gm, coeff in gen.terms.items():
                prod = mono_mul(gm, m)
                if prod is None:
                    continue
                sign, pm = prod
                i = index[pm]
                s = vec.get(i, 0) + sign * coeff
                if s:
                    vec[i] = s
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
    def parts(self) -> list[tuple[int, bool]]:
        """(block size, signed) for each block, alpha's first."""
        return [(k, False) for k in self.alpha] + [(k, True) for k in self.beta]

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

    def live_orbits(self, d: TriDegree) -> list[Triples]:
        """Canonical representatives of the live orbits of tri-degree d, ascending.

        Within a block the triples descend, and two equal neighbours must
        carry theta exactly when the block is a sign block.  An orbit is one
        such run per block, so the orbits are a product over the splits of d
        among the blocks.
        """
        parts = self.parts

        @cache
        def runs(size: int, signed: bool, a: int, b: int, c: int) -> list[Triples]:
            """The live runs of one block of degree (a, b, c), ascending."""
            if c > size:
                return []
            if size == 1:
                return [((a, b, c),)]
            out = []
            # the first triple is the largest, so its x is at least the mean
            for first in product(range(-(-a // size), a + 1), range(b + 1), range(min(c, 1) + 1)):
                x, y, t = first
                for rest in runs(size - 1, signed, a - x, b - y, c - t):
                    if rest[0] > first:
                        break  # the rests ascend, so every later head is larger too
                    if rest[0] < first or t == signed:
                        out.append((first,) + rest)
            return out

        @cache
        def orbits(k: int, a: int, b: int, c: int) -> list[Triples]:
            """The live orbits on the blocks k, k + 1, ... of degree (a, b, c)."""
            size, signed = parts[k]
            if k == len(parts) - 1:
                return runs(size, signed, a, b, c)
            out = []
            for da, db, dc in product(range(a + 1), range(b + 1), range(min(c, size) + 1)):
                heads = runs(size, signed, da, db, dc)
                tails = orbits(k + 1, a - da, b - db, c - dc) if heads else ()
                out += [head + tail for head in heads for tail in tails]
            return out

        return sorted(orbits(0, d.a, d.b, d.c))

    @cached_property
    def pairing(self) -> dict[Partition, int]:
        """<s_lam, h_alpha e_beta> for every lam |- n, through the p basis."""
        coeffs = {(): RAT(1)}
        for size, signed in self.parts:
            step: dict[Partition, object] = {}
            for nu, c in coeffs.items():
                for mu in partitions_of(size):
                    sign = -1 if signed and (size - len(mu)) % 2 else 1
                    key = tuple(sorted(nu + mu, reverse=True))
                    step[key] = step.get(key, 0) + c * RAT(sign, z_mu(mu))
            coeffs = step
        table = character_table(self.n)
        out = {}
        for lam in partitions_of(self.n):
            value = sum(c * table.value(lam, nu) for nu, c in coeffs.items())
            if value.denominator != 1:
                raise ConsistencyError(f"non-integer pairing <s_{lam}, {self}>: {value}")
            out[lam] = int(value)
        return out


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
    """
    targets = psi.live_orbits(d)[::-1]
    if not targets:
        return 0
    gens = [e for _name, e, _gen in ideal_generators(psi.n)
            if e.a <= d.a and e.b <= d.b and e.c <= d.c]
    ends: list[tuple[int, bool]] = []  # letter -> (end of its block, signed)
    for size, signed in psi.parts:
        ends += [(len(ends) + size, signed)] * size
    quotients: dict[tuple[int, int, int], list] = {}  # triple -> (generator, quotient, e)
    rows: list[dict[Triples, dict[int, int]]] = [{} for _ in gens]
    for col, c in enumerate(targets):
        before = 0  # thetas of c at letters < i: the sign of theta_i * cofactor
        for i, tr in enumerate(c):
            quos = quotients.get(tr)
            if quos is None:
                x, y, t = tr
                quos = quotients[tr] = [
                    (k, (x - r, y - s, t - e), e)
                    for k, (r, s, e) in enumerate(gens) if x >= r and y >= s and t >= e
                ]
            hi, signed = ends[i]
            for k, quo, e in quos:
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

    extra is one more, dependent character, computed as a redundancy check.
    """

    n: int
    characters: tuple[YoungCharacter, ...]
    extra: YoungCharacter | None
    inverse: tuple[tuple[int | RAT, ...], ...]  # K^-1, rows indexed like partitions_of(n)

    def multiplicities(self, dims: list[int]) -> dict[Partition, int]:
        """Schur multiplicities from the isotypic dimensions; must be in N."""
        out = {}
        for lam, row in zip(partitions_of(self.n), self.inverse):
            m = sum(k * v for k, v in zip(row, dims))
            if m.denominator != 1 or m < 0:
                raise ConsistencyError(f"multiplicity of s_{lam} is {m}, not in N")
            out[lam] = int(m)
        return out


def young_candidates(n: int) -> list[YoungCharacter]:
    """Every (alpha, beta) with no part 1 in beta, by |H| descending, then (alpha, beta)."""
    out = [
        YoungCharacter(alpha, beta)
        for k in range(n + 1)
        for alpha in partitions_of(k)
        for beta in partitions_of(n - k)
        if 1 not in beta
    ]
    return sorted(out, key=lambda psi: (-psi.order, psi.alpha, psi.beta))


@cache
def young_system(n: int) -> YoungSystem:
    """Greedy by |H|: take a character whenever its pairing row is independent.

    The redundancy check uses the first candidate left out, the one with the
    largest |H| outside the set.
    """
    lams = partitions_of(n)
    candidates = young_candidates(n)
    chosen: list[YoungCharacter] = []
    ech = Echelon()
    for psi in candidates:
        row = {j: psi.pairing[lam] for j, lam in enumerate(lams) if psi.pairing[lam]}
        if ech.insert(row) is not None:
            chosen.append(psi)
            if len(chosen) == len(lams):
                break
    if len(chosen) != len(lams):
        raise ConsistencyError(f"Young characters do not span the class functions of S_{n}")
    extra = next((psi for psi in candidates if psi not in chosen), None)
    # columns of K are indexed by lam, rows by psi: K^-1 maps dims to multiplicities;
    # integral entries (all for n <= 7) become ints, so each solve is int arithmetic
    matrix = [[psi.pairing[lam] for lam in lams] for psi in chosen]
    inv = tuple(tuple(int(x) if x.denominator == 1 else x for x in row) for row in inverse(matrix))
    return YoungSystem(n, tuple(chosen), extra, inv)


@dataclass
class ComponentCharacters:
    """Schur multiplicities of the quotient at one tri-graded component."""

    n: int
    degree: TriDegree
    dim: int  # ambient component dimension
    mult: dict[Partition, int]  # m_lam for every lam |- n

    @property
    def dim_quotient(self) -> int:
        table = character_table(self.n)
        return sum(m * table.dimension(lam) for lam, m in self.mult.items())

    @property
    def rank(self) -> int:
        """Rank of the ideal component."""
        return self.dim - self.dim_quotient

    @property
    def chars(self) -> dict[Partition, int]:
        """Quotient character values chi_M(mu) = sum_lam m_lam chi^lam(mu)."""
        table = character_table(self.n)
        return {
            mu: sum(m * table.value(lam, mu) for lam, m in self.mult.items())
            for mu in partitions_of(self.n)
        }


def component_characters(n: int, d: TriDegree) -> ComponentCharacters:
    """The Schur multiplicities of the quotient at tri-degree d.

    Solves K m = (dim M_d^psi) over the Young system for the multiplicities
    m and checks them against one more dependent character.
    """
    dim = component_dimension(n, d)
    if dim == 0:
        return ComponentCharacters(n, d, 0, {lam: 0 for lam in partitions_of(n)})
    system = young_system(n)
    dims = [isotypic_dimension(d, psi) for psi in system.characters]
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
    comp = ComponentCharacters(n, d, dim, mult)
    if comp.dim_quotient > dim:
        raise ConsistencyError(
            f"at {d}: the quotient dimension {comp.dim_quotient} exceeds the ambient {dim}"
        )
    return comp


def _component_worker(args) -> ComponentCharacters:
    n, d = args
    return component_characters(n, TriDegree(*d))


@dataclass
class ModuleSideResult:
    n: int
    series: FrobeniusSeries
    components: dict[TriDegree, ComponentCharacters]
    closed: bool
    rows: dict[int, bool]  # c -> closed for c = 0..n; False for a row a budget cut short


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
    if max_ab is not None and max_ab < 0:
        raise ValueError(f"max_ab must be >= 0, got {max_ab}")
    if budget_seconds is not None and not (isfinite(budget_seconds) and budget_seconds >= 0):
        raise ValueError(f"budget_seconds must be finite and >= 0, got {budget_seconds}")


def frobenius_module(
    n: int,
    extra_band: int = 1,
    forced: set[TriDegree] = frozenset(),
    threads: int = 1,
    max_ab: int | None = None,
    budget_seconds: float | None = None,
    component_cache=None,
) -> ModuleSideResult:
    """Compute the qtz-graded Frobenius series of the quotient module.

    One loop over the bands a + b = 0, 1, 2, ... explores every theta row
    c = 0..n at once.  In a band, a cell (a, b, c) of an open row is computed
    when it is the origin, is forced, or sits within extra_band steps above
    a computed zero bordering the nonzero support.  A row closes at its first
    band without such a cell past its last forced cell; one that needs a
    cell beyond max_ab stays open.  A nonzero component strictly beyond a
    zero predecessor would contradict the monotone vanishing law and raises
    ConsistencyError.

    component_cache, when given, must provide get(n, degree) and
    put(component).  A band's cache hits are read first, then its other
    cells are computed in one step, serially or on the process pool.  The
    budget is checked only there: before each component (serial), or it
    bounds the wait for the band's components (pool).  So a run stops within
    one component of its deadline, every component finished by then is in
    the result, and rows[c] is False for every row it cut short.
    """
    check_module_arguments(n, extra_band, threads, budget_seconds, max_ab)
    if max_ab is None:
        max_ab = n * (n - 1) + 2
    deadline = None  # capped: a pool's wait longer than threading.TIMEOUT_MAX overflows
    if budget_seconds is not None:
        deadline = time.monotonic() + min(budget_seconds, TIMEOUT_MAX)
    pool = None
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor, wait

        # a fork pool starts all its workers at the first submit
        pool = ProcessPoolExecutor(max_workers=min(threads, os.cpu_count() or 1))

    components: dict[TriDegree, ComponentCharacters] = {}  # survives a budget overrun
    reach: dict[TriDegree, int] = {}  # computed cell -> -1 if nonzero, else its level
    last_forced = [max((d.a + d.b for d in forced if d.c == c), default=-1)
                   for c in range(n + 1)]
    rows: dict[int, bool] = {}  # c -> closed, for the rows that stopped
    band = 0
    try:
        while len(rows) <= n:
            cells: dict[TriDegree, int] = {}  # cell -> level, over every open row
            for c in range(n + 1):
                if c in rows:
                    continue
                row = {}
                for a in range(band + 1):
                    b = band - a
                    levels = [reach[p] + 1 for p in ((a - 1, b, c), (a, b - 1, c)) if p in reach]
                    lvl = 0 if band == 0 or (a, b, c) in forced else min(levels, default=None)
                    if lvl is not None and lvl <= extra_band:
                        row[TriDegree(a, b, c)] = lvl
                if not row:
                    if band > last_forced[c]:
                        rows[c] = True
                elif band > max_ab:
                    rows[c] = False  # budget on degree exhausted
                else:
                    cells.update(row)

            todo = []
            for d in cells:
                comp = component_cache.get(n, d) if component_cache is not None else None
                if comp is None:
                    todo.append(d)
                else:
                    components[d] = comp
            if pool is None:  # the deadline is read before each component
                done = (_component_worker((n, d)) for d in todo
                        if deadline is None or time.monotonic() <= deadline)
            else:
                futures = [pool.submit(_component_worker, (n, d)) for d in todo]
                timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
                wait(futures, timeout=timeout)
                done = (fut.result() for fut in futures if fut.done())
            for comp in done:  # kept and stored as soon as it is in hand
                components[comp.degree] = comp
                if component_cache is not None:
                    component_cache.put(comp)
            if not all(d in components for d in todo):
                break  # the budget ran out

            for d, lvl in cells.items():
                nonzero = components[d].dim_quotient > 0
                reach[d] = -1 if nonzero else lvl
                if nonzero and lvl > 0:
                    raise ConsistencyError(
                        f"nonzero component beyond the zero frontier at {(d.a, d.b)}, c={d.c}"
                    )
            band += 1
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    rows = {c: rows.get(c, False) for c in range(n + 1)}
    series = assemble_series(n, components)
    return ModuleSideResult(n, series, components, all(rows.values()), rows)
