"""The module side by isotypic ranks, checked against the unreduced computation."""

import random
from itertools import permutations, product

import pytest

import superdelta.coinvariants as coinvariants
from superdelta.characters import character_table
from superdelta.coinvariants import (
    ComponentCharacters,
    YoungCharacter,
    YoungSystem,
    component_characters,
    frobenius_module,
    ideal_component,
    isotypic_dimension,
    young_candidates,
    young_system,
)
from superdelta.linalg import ConsistencyError, Echelon
from superdelta.macdonald import rhs_series
from superdelta.partitions import cycle_type, partitions_of, perm_of_cycle_type, syt_count, z_mu
from superdelta.rationals import RAT
from superdelta.superring import (
    TriDegree,
    apply_perm_mono,
    component_dimension,
    enumerate_monomials,
    ideal_generators,
)
from superdelta.verifier import ComponentCache
from unreduced import (
    apply_signed_map,
    signed_coordinate_map,
    trace_on_reduced_basis,
    trace_regular,
)


def reference_characters(n, d):
    """(dim, rank, chars) by the trace method: ambient trace minus the trace
    on the ideal component.

    The ideal component is echelonized exactly in monomial coordinates and
    reduced, so the trace of a signed coordinate permutation restricted to
    it is read off at the pivots.
    """
    basis = ideal_component(n, d)
    mus = partitions_of(n)
    if basis.rank == basis.dim:
        return basis.dim, basis.rank, {mu: 0 for mu in mus}
    index = {m: i for i, m in enumerate(basis.monomials)}
    ech = basis.echelon()
    chars = {}
    for mu in mus:
        sigma = perm_of_cycle_type(mu)
        cmap = signed_coordinate_map(sigma, basis.monomials, index)
        ideal_trace = trace_on_reduced_basis(ech, lambda v: apply_signed_map(cmap, v))
        chars[mu] = trace_regular(sigma, n, d) - ideal_trace
    return basis.dim, basis.rank, chars


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matches_trace_method_on_every_visited_component(n):
    components = frobenius_module(n).components
    assert components
    for d, comp in components.items():
        assert (comp.dim, comp.rank, comp.chars) == reference_characters(n, d), d


def sampled_n4_degrees():
    candidates = sorted(
        TriDegree(a, s - a, c)
        for s in range(7) for a in range(s + 1) for c in range(5)
        if 0 < component_dimension(4, TriDegree(a, s - a, c)) <= 600
    )
    return random.Random(20190109).sample(candidates, 8)


def test_matches_trace_method_on_sampled_n4_components():
    nonzero = 0
    for d in sampled_n4_degrees():
        comp = component_characters(4, d)
        assert (comp.dim, comp.rank, comp.chars) == reference_characters(4, d), d
        nonzero += comp.dim_quotient > 0
    assert 0 < nonzero < 8  # both kinds of component are covered


def reference_multiplicities(n, chars):
    """m_lam of a character, by its inner product with chi^lam."""
    table = character_table(n)
    lams = partitions_of(n)
    return {lam: sum(RAT(chars[mu] * table.value(lam, mu), z_mu(mu)) for mu in lams)
            for lam in lams}


def excluded_by_the_kronecker_bounds(n, d):
    """Assert m_lam(d) <= [s_lam](s_(n-1,1) * F) for F the Frobenius
    characteristic of each lower neighbour, all by the trace method (the
    character of s_(n-1,1) (x) M is (fix - 1) chi_M); return how many lams a
    nonzero lower neighbour's bound excludes."""
    mult = reference_multiplicities(n, reference_characters(n, d)[2])
    excluded = 0
    for lower in ((d.a - 1, d.b, d.c), (d.a, d.b - 1, d.c)):
        if min(lower) < 0:
            continue
        chars = reference_characters(n, TriDegree(*lower))[2]
        bound = reference_multiplicities(n, {mu: (mu.count(1) - 1) * chi
                                             for mu, chi in chars.items()})
        assert all(mult[lam] <= bound[lam] for lam in mult), (d, lower)
        if any(chars.values()):
            excluded += sum(not b for b in bound.values())
    return excluded


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_kronecker_bound_holds_on_every_visited_component(n):
    excluded = sum(excluded_by_the_kronecker_bounds(n, d) for d in frobenius_module(n).components)
    assert excluded or n < 3  # at n = 1 and 2 no lam is excluded by a nonzero bound


def test_the_kronecker_bound_holds_on_sampled_n4_components():
    assert sum(excluded_by_the_kronecker_bounds(4, d) for d in sampled_n4_degrees())


def canonical(psi, m):
    """(representative, sign) with e_psi(m) = sign * e_psi(rep); None if e_psi(m) = 0.

    Sorting a block is an h in H; the sign is psi(h) times the Grassmann
    sign of h on the thetas.  The orbit is dead when two equal triples
    share a block and carry theta in a trivial block or no theta in a
    sign block: their transposition fixes m and has psi * sign = -1.
    """
    sign = 1
    out = list(m)
    for lo, hi, signed in psi.blocks:
        seg = m[lo:hi]
        for i in range(hi - lo - 1):
            si = seg[i]
            for sj in seg[i + 1:]:
                if si < sj:
                    if signed:
                        sign = -sign
                    if si[2] and sj[2]:
                        sign = -sign
                elif si == sj and si[2] != signed:
                    return None
        out[lo:hi] = sorted(seg, reverse=True)
    return tuple(out), sign


def reference_live_orbits(psi, d):
    """live_orbits letter by letter: every option of a letter inside a block
    is tried and rejected against the previous triple."""
    n = psi.n
    inner = {}  # letter -> signed, for the letters after the first of a block
    for lo, hi, signed in psi.blocks:
        for i in range(lo + 1, hi):
            inner[i] = signed
    out = []
    cur = []

    def rec(i, ra, rb, rc):
        if i == n - 1:
            if rc > 1:
                return
            options = [(ra, rb, rc)]
        else:
            options = [(x, y, t) for x in range(ra + 1) for y in range(rb + 1)
                       for t in ((0, 1) if rc else (0,))]
        signed = inner.get(i)
        for tr in options:
            if signed is not None:
                prev = cur[-1]
                if tr > prev or (tr == prev and tr[2] != signed):
                    continue
            cur.append(tr)
            if i == n - 1:
                out.append(tuple(cur))
            elif rc - tr[2] <= n - 1 - i:
                rec(i + 1, ra - tr[0], rb - tr[1], rc - tr[2])
            cur.pop()

    if d.c <= n:
        rec(0, d.a, d.b, d.c)
    return out


def reference_columns(d, psi):
    """The vectors isotypic_dimension inserts, built with each cofactor
    sorted by canonical (one call per distinct cofactor) and each row keyed
    by max(row)."""
    targets = reference_live_orbits(psi, d)[::-1]
    gens = [e for _name, e in ideal_generators(psi.n)
            if e.a <= d.a and e.b <= d.b and e.c <= d.c]
    canon = {}
    rows = [{} for _ in gens]
    for col, c in enumerate(targets):
        before = 0
        for i, (x, y, t) in enumerate(c):
            for k, (r, s, e) in enumerate(gens):
                if x >= r and y >= s and t >= e:
                    cof = c[:i] + ((x - r, y - s, t - e),) + c[i + 1:]
                    if cof not in canon:
                        canon[cof] = canonical(psi, cof)
                    if canon[cof] is not None:
                        rep, sign = canon[cof]
                        if e and before % 2:
                            sign = -sign
                        row = rows[k].setdefault(rep, {})
                        row[col] = row.get(col, 0) + sign
            before += t
    columns = [{} for _ in targets]
    ordered = sorted((row for part in reversed(rows) for row in part.values()),
                     key=lambda row: (-max(row), len(row)))
    for label, row in enumerate(ordered):
        for col, val in row.items():
            columns[col][label] = val
    return columns


def reference_isotypic_dimension(d, psi):
    """isotypic_dimension with the earlier insertion order: ascending target
    columns, the rows of each generator inserted as soon as they are built
    (last generator first), and an exit once the rank is full."""
    targets = psi.live_orbits(d)
    if not targets:
        return 0
    gens = [e for _name, e in ideal_generators(psi.n)
            if e.a <= d.a and e.b <= d.b and e.c <= d.c]
    ech = Echelon()
    for r, s, e in reversed(gens):
        rows = {}
        for col, c in enumerate(targets):
            before = 0
            for i, (x, y, t) in enumerate(c):
                if x >= r and y >= s and t >= e:
                    hit = canonical(psi, c[:i] + ((x - r, y - s, t - e),) + c[i + 1:])
                    if hit is not None:
                        rep, sign = hit
                        if e and before % 2:
                            sign = -sign
                        row = rows.setdefault(rep, {})
                        row[col] = row.get(col, 0) + sign
                before += t
        for row in rows.values():
            ech.insert(row)
            if ech.rank == len(targets):
                return 0
    return len(targets) - ech.rank


def every_character(n):
    system = young_system(n)
    return system.characters + ((system.extra,) if system.extra else ())


def low_degrees(n, max_ab):
    return [TriDegree(a, s - a, c)
            for s in range(max_ab + 1) for a in range(s + 1) for c in range(n + 1)]


def isotypic_dimensions(n, d, isotypic):
    return [isotypic(d, psi) for psi in every_character(n)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_insertion_order_matches_reference_on_every_visited_component(n):
    for d in frobenius_module(n).components:
        want = isotypic_dimensions(n, d, reference_isotypic_dimension)
        assert isotypic_dimensions(n, d, isotypic_dimension) == want, d


def test_insertion_order_matches_reference_on_sampled_n4_components():
    zero_band = [TriDegree(5, 0, 2), TriDegree(7, 0, 1)]  # dims 336 and 480, quotient 0
    candidates = sorted(
        TriDegree(a, s - a, c)
        for s in range(8) for a in range(s + 1) for c in range(5)
        if 0 < component_dimension(4, TriDegree(a, s - a, c)) <= 600
    )
    sample = zero_band + random.Random(20190110).sample(candidates, 8)
    assert [component_dimension(4, d) for d in zero_band] == [336, 480]
    for d in sample:
        got = isotypic_dimensions(4, d, isotypic_dimension)
        assert got == isotypic_dimensions(4, d, reference_isotypic_dimension), d
        if d in zero_band:
            assert got == [0] * len(got)


def recorded_echelons(monkeypatch):
    """Every Echelon isotypic_dimension creates, recording the vectors it inserts."""
    echelons = []

    class Recorded(Echelon):
        def __init__(self):
            super().__init__()
            self.inserted = []
            echelons.append(self)

        def insert(self, v):
            self.inserted.append(v)
            return super().insert(v)

    monkeypatch.setattr(coinvariants, "Echelon", Recorded)
    return echelons


def max_stored_bits(ech):
    return max(abs(v).bit_length() for row in ech.pivots.values() for v in row.values())


def test_row_order_keeps_the_integers_small(monkeypatch):
    # the sign character of S_3 x S_2 at n = 5: with its rows inserted sparsest
    # first alone, the stored entries reach 33 bits here (109 at (5,5,0)), in the
    # earlier per-generator order 22, and last column first 7; the columns of
    # the transposed system, keyed by the rows' labels in that order, store 12
    echelons = recorded_echelons(monkeypatch)
    assert isotypic_dimension(TriDegree(5, 4, 0), YoungCharacter((), (3, 2))) == 2
    (ech,) = echelons
    assert ech.rank == 505 - 2
    assert max_stored_bits(ech) <= 12


def test_transposed_system_keeps_the_integers_small_at_550(monkeypatch):
    # the same system one degree up; plain sparsest-first row insertion stored
    # 109-bit entries here, the columns keyed by row label store 13
    echelons = recorded_echelons(monkeypatch)
    assert isotypic_dimension(TriDegree(5, 5, 0), YoungCharacter((), (3, 2))) == 1
    (ech,) = echelons
    assert ech.rank == 960 - 1
    assert max_stored_bits(ech) <= 16


def test_one_insert_per_live_target(monkeypatch):
    # the rank is taken on the columns: one vector per live orbit, however
    # many rows g * v_O the system has
    system = young_system(4)
    cases = [(TriDegree(5, 4, 0), YoungCharacter((), (3, 2)))]
    cases += [(d, psi) for d in (TriDegree(2, 1, 1), TriDegree(7, 0, 1))
              for psi in system.characters + (system.extra,)]
    echelons = recorded_echelons(monkeypatch)
    for d, psi in cases:
        del echelons[:]
        got = isotypic_dimension(d, psi)
        (ech,) = echelons
        assert len(ech.inserted) == len(psi.live_orbits(d)), (d, psi)
        assert got == reference_isotypic_dimension(d, psi), (d, psi)


@pytest.mark.parametrize("n, max_ab", [(1, 4), (2, 4), (3, 4), (4, 4), (5, 3)])
def test_inserted_columns_match_canonical_reinsertion(monkeypatch, n, max_ab):
    # the one-block re-insertion of each cofactor must give the very columns
    # that sorting every cofactor gives: a wrong sign would leave most
    # ranks unchanged but shows here
    echelons = recorded_echelons(monkeypatch)
    for d in low_degrees(n, max_ab):
        for psi in every_character(n):
            del echelons[:]
            isotypic_dimension(d, psi)
            got = [list(v.items()) for ech in echelons for v in ech.inserted]
            want = [list(v.items()) for v in reference_columns(d, psi)]
            assert got == want, (d, psi)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_live_orbits_match_the_letter_by_letter_recursion(n):
    for d in low_degrees(n, 6):
        for psi in every_character(n):
            assert psi.live_orbits(d) == reference_live_orbits(psi, d), (d, psi)


def test_live_orbits_hand_out_lists_the_block_table_cannot_see():
    # a one-block character's orbits are its block's runs: changing the
    # returned list must not reach the shared table
    for psi, d, nearby in [
        (YoungCharacter((4,), ()), TriDegree(3, 2, 1), TriDegree(3, 2, 2)),
        (YoungCharacter((), (2, 2)), TriDegree(2, 2, 1), TriDegree(3, 2, 1)),
    ]:
        got = psi.live_orbits(d)
        assert got
        got.clear()
        got.append(((9, 9, 9),) * psi.n)
        assert psi.live_orbits(d) == reference_live_orbits(psi, d), (psi, d)
        assert psi.live_orbits(nearby) == reference_live_orbits(psi, nearby), (psi, nearby)


def test_block_runs_are_shared_between_characters():
    # (3,1)|() and (3,2)|() share their trivial 3-block, so the second
    # character reads the first one's runs from the per-process table
    d = TriDegree(3, 2, 1)
    coinvariants._runs.cache_clear()
    YoungCharacter((3, 2), ()).live_orbits(d)
    alone = coinvariants._runs.cache_info().currsize
    assert alone > 0
    coinvariants._runs.cache_clear()
    YoungCharacter((3, 1), ()).live_orbits(d)
    before = coinvariants._runs.cache_info()
    YoungCharacter((3, 2), ()).live_orbits(d)
    after = coinvariants._runs.cache_info()
    assert after.hits > before.hits
    assert after.currsize - before.currsize < alone
    assert after.maxsize is not None  # kept for the life of a worker, so bounded


def test_runs_on_all_letters_are_not_stored():
    # a one-block character's runs are its whole system's targets, read once:
    # they stay out of the table, which keeps the runs of smaller blocks
    d = TriDegree(3, 2, 1)
    for parts, signed in [(((4,), ()), False), (((), (4,)), True)]:
        coinvariants._runs.cache_clear()
        YoungCharacter(*parts).live_orbits(d)
        stored = coinvariants._runs.cache_info()
        assert stored.currsize > 0  # the smaller blocks of the recursion
        coinvariants._runs(4, signed, d.a, d.b, d.c)
        assert coinvariants._runs.cache_info().misses == stored.misses + 1, parts


def test_n5_low_components_match_the_delta_side():
    # each multiplicity is the coefficient of q^a t^b z^c in the Schur
    # coefficient of the delta side at n = 5
    rhs = rhs_series(5)
    for d in low_degrees(5, 3):
        comp = component_characters(5, d)
        for lam, m in comp.mult.items():
            assert m == rhs.coefficient(lam).terms.get((d.a, d.b, d.c), 0), (d, lam)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mirrored_components_match_the_direct_solve(n):
    # frobenius_module takes each a < b cell from its mirror (b, a, c); the
    # direct solve must give the same component (n = 4 is covered by
    # test_verifier's test_a_mirrored_component_is_cached_as_its_direct_solve,
    # which compares every component of verify_conjecture(4) with its direct solve)
    components = frobenius_module(n).components
    mirrored = [d for d in components if d.a < d.b]
    assert mirrored or n == 1
    for d in mirrored:
        assert components[d] == component_characters(n, d), d


def test_mirror_holds_on_the_n5_low_degrees():
    mirrored = [d for d in low_degrees(5, 3) if d.a < d.b]
    assert len(mirrored) == 24
    for d in mirrored:
        source = component_characters(5, TriDegree(d.b, d.a, d.c))
        assert ComponentCharacters(5, d, source.dim, source.mult) == component_characters(5, d), d


def recorded_supports(monkeypatch, n, cache=None):
    """frobenius_module(n), and the support each cell the worker solved was given."""
    worker = coinvariants._component_worker
    supports = {}

    def recording_worker(args):
        supports[TriDegree(*args[1])] = args[2]
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", recording_worker)
    return frobenius_module(n, component_cache=cache), supports


def inferred_cells(monkeypatch, n, cache=None):
    """frobenius_module(n), and the a - b >= 2 cells it kept without solving
    them or reading them from the cache: the zeros inferred from their inner
    neighbours (a - 1, b + 1, c)."""
    result, seen = recorded_supports(monkeypatch, n, cache)
    return result, sorted(d for d in result.components if d.a - d.b >= 2 and d not in seen
                          and (cache is None or cache.get(n, d) is None))


def assert_cached_as_the_direct_solve(tmp_path, result, cells):
    kept, direct = ComponentCache(tmp_path / "kept"), ComponentCache(tmp_path / "direct")
    for d in cells:
        kept.put(result.components[d])
        direct.put(component_characters(result.n, d))
        assert kept.entry_path(result.n, d).read_bytes() == (
            direct.entry_path(result.n, d).read_bytes()), d


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 8), (4, 18)])
def test_inferred_components_match_the_direct_solve(tmp_path, monkeypatch, n, count):
    result, cells = inferred_cells(monkeypatch, n)
    assert result.closed and len(cells) == count
    assert_cached_as_the_direct_solve(tmp_path, result, cells)


class LowRowsOfTheDeltaSide:
    """A component cache that reads the n = 5 rows c < 3 off rhs_series(5),
    misses the rows c >= 3 and writes nothing."""

    def __init__(self):
        self.rhs = rhs_series(5)

    def get(self, n, d):
        if d.c >= 3:
            return None
        mult = {lam: self.rhs.coefficient(lam).terms.get((d.a, d.b, d.c), 0)
                for lam in partitions_of(5)}
        return ComponentCharacters(5, d, component_dimension(5, d), mult)

    def put(self, comp):
        pass


def test_inferred_components_match_the_direct_solve_on_the_n5_high_rows(tmp_path, monkeypatch):
    # rows c >= 3 of n = 5 are solved (under a second), the others read from
    # the delta side; their six inferred zeros take about as long to solve
    cache = LowRowsOfTheDeltaSide()
    result, cells = inferred_cells(monkeypatch, 5, cache)
    assert result.closed and result.series == cache.rhs
    assert cells == [TriDegree(*d) for d in
                     ((2, 0, 4), (4, 1, 3), (4, 2, 3), (5, 0, 3), (5, 1, 3), (6, 0, 3))]
    assert_cached_as_the_direct_solve(tmp_path, result, cells)


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 11), (4, 35)])
def test_restricted_solves_match_the_direct_solve(tmp_path, monkeypatch, n, count):
    # every solve above band 0 has a nonzero lower neighbour but those of the
    # extra band, and runs for the support the cells below it allow
    result, supports = recorded_supports(monkeypatch, n)
    cells = sorted(d for d, support in supports.items() if support is not None)
    assert result.closed and len(cells) == count
    assert_cached_as_the_direct_solve(tmp_path, result, cells)


def test_restricted_solves_match_the_direct_solve_on_the_n5_high_rows(tmp_path, monkeypatch):
    cache = LowRowsOfTheDeltaSide()
    result, supports = recorded_supports(monkeypatch, 5, cache)
    cells = sorted(d for d, support in supports.items() if support is not None)
    assert result.closed and result.series == cache.rhs
    assert {d.c for d in cells} == {3, 4} and len(cells) == 10
    assert_cached_as_the_direct_solve(tmp_path, result, cells)


def test_a_cell_whose_mirror_is_no_cell_is_solved(tmp_path, monkeypatch):
    # the cache holds valid zeros at (1, 0, 0) and (2, 0, 0), wrong but with
    # their true dims, and the true (0, 1, 0) and (0, 2, 0): (3, 0, 0) is
    # extra_band + 1 steps past the zero (1, 0, 0), so no cell, while (0, 3, 0)
    # sits above the nonzero (0, 2, 0): a cell whose mirror is no cell
    cache = ComponentCache(tmp_path)
    for a in (1, 2):
        zero = component_characters(3, TriDegree(a, 0, 0))
        cache.put(ComponentCharacters(3, zero.degree, zero.dim, dict.fromkeys(zero.mult, 0)))
        cache.put(component_characters(3, TriDegree(0, a, 0)))
    worker = coinvariants._component_worker
    seen = []

    def recording_worker(args):
        seen.append(TriDegree(*args[1]))
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", recording_worker)
    d = TriDegree(0, 3, 0)
    result = frobenius_module(3, component_cache=cache)
    assert result.closed and d in seen
    assert TriDegree(3, 0, 0) not in result.components
    assert result.components[d] == component_characters(3, d)
    # so are the cells above it; every other a < b cell is mirrored
    unpaired = {e for e in result.components
                if e.a < e.b and TriDegree(e.b, e.a, e.c) not in result.components}
    assert {e for e in seen if e.a < e.b} == unpaired


def monomial_triples(m):
    """The per-index triples (x_i, y_i, [i in theta]) of a monomial."""
    return tuple((x, y, int(i in m.theta))
                 for i, (x, y) in enumerate(zip(m.xexp, m.yexp), start=1))


def young_group(psi):
    """All (h, psi(h)) for h in S_alpha x S_beta on consecutive letters."""
    sizes = [(k, False) for k in psi.alpha] + [(k, True) for k in psi.beta]
    factors = []
    start = 1
    for size, signed in sizes:
        letters = list(range(start, start + size))
        factors.append([(p, signed) for p in permutations(letters)])
        start += size
    for choice in product(*factors):
        images, value = [], 1
        for perm, signed in choice:
            images.extend(perm)
            if signed:
                inversions = sum(1 for i in range(len(perm)) for j in range(i)
                                 if perm[j] > perm[i])
                value *= -1 if inversions % 2 else 1
        yield tuple(images), value


def brute_projection(psi, m):
    """sum_h psi(h) h.m over H, as {triples: coefficient}."""
    acc = {}
    for h, value in young_group(psi):
        sign, image = apply_perm_mono(h, m)
        key = monomial_triples(image)
        acc[key] = acc.get(key, 0) + value * sign
    return {k: v for k, v in acc.items() if v}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonicalization_agrees_with_bruteforce_projection(n):
    system = young_system(n)
    degrees = [(1, 1, 1), (2, 0, 2), (0, 2, 1), (2, 1, 0), (1, 1, 2)]
    for psi in system.characters + (system.extra,):
        for d in map(TriDegree._make, degrees):
            reps = set()
            for m in enumerate_monomials(n, d):
                projected = brute_projection(psi, m)
                hit = canonical(psi, monomial_triples(m))
                if hit is None:
                    assert not projected, (psi, m)
                    continue
                rep, sign = hit
                assert projected[rep] * sign > 0, (psi, m)
                assert canonical(psi, rep) == (rep, 1)
                reps.add(rep)
            assert sorted(reps) == psi.live_orbits(d), (psi, d)


def pairing_dims(system, mult):
    """dims = K m: the isotypic dimensions that the multiplicities give."""
    return [sum(psi.pairing[lam] * m for lam, m in mult.items()) for psi in system.characters]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_young_system_inverts(n):
    # the solve gives back m from dims = K m, for every unit vector and a
    # seeded sample of nonnegative m
    system = young_system(n)
    lams = partitions_of(n)
    assert len(system.characters) == len(lams)
    rng = random.Random(n)
    units = [{lam: int(lam == mu) for lam in lams} for mu in lams]
    sample = [{lam: rng.randrange(5) for lam in lams} for _ in range(20)]
    for mult in units + sample:
        got = system.multiplicities(pairing_dims(system, mult))
        assert got == mult and all(type(m) is int for m in got.values())
    if n > 1:
        assert system.extra is not None and system.extra not in system.characters
        assert system.extra == next(p for p in young_candidates(n) if p not in system.characters)


def power_sum_pairing(psi):
    """<s_lam, h_alpha e_beta> through the p basis: h_k = sum_mu p_mu / z_mu,
    e_k = sum_mu (-1)^(k - len(mu)) p_mu / z_mu, paired with chi^lam."""
    coeffs = {(): RAT(1)}
    for size, signed in psi.parts:
        step = {}
        for nu, c in coeffs.items():
            for mu in partitions_of(size):
                sign = -1 if signed and (size - len(mu)) % 2 else 1
                key = tuple(sorted(nu + mu, reverse=True))
                step[key] = step.get(key, 0) + c * RAT(sign, z_mu(mu))
        coeffs = step
    table = character_table(psi.n)
    return {lam: sum(c * table.value(lam, nu) for nu, c in coeffs.items())
            for lam in partitions_of(psi.n)}


@pytest.mark.parametrize("n", range(1, 9))
def test_pairing_matches_the_power_sum_route(n):
    for psi in young_candidates(n):
        assert psi.pairing == power_sum_pairing(psi), psi


def test_pairing_is_reciprocity():
    # <s_lam, h_alpha e_beta> = |H|^-1 sum_h psi(h) chi^lam(h), summed by brute force
    for n in (3, 4):
        table = character_table(n)
        for psi in young_candidates(n):
            for lam in partitions_of(n):
                total = 0
                for h, value in young_group(psi):
                    total += value * table.value(lam, cycle_type(h))
                assert total == psi.pairing[lam] * psi.order, (psi, lam)


def test_wrong_isotypic_rank_is_caught(monkeypatch):
    n, d = 3, TriDegree(1, 0, 1)
    component_characters(n, d)  # consistent as computed
    system = young_system(n)
    honest = isotypic_dimension
    for target in system.characters + (system.extra,):
        for delta in (1, -1):
            def patched(deg, psi, target=target, delta=delta):
                return honest(deg, psi) + (delta if psi == target else 0)

            monkeypatch.setattr(coinvariants, "isotypic_dimension", patched)
            with pytest.raises(ConsistencyError):
                component_characters(n, d)
    monkeypatch.undo()
    assert component_characters(n, d).dim_quotient == 3


def test_quotient_above_ambient_is_caught(monkeypatch):
    # every isotypic rank is consistent, but the ambient dimension is understated
    n, d = 3, TriDegree(1, 0, 1)
    assert component_characters(n, d).dim_quotient == 3
    monkeypatch.setattr(coinvariants, "component_dimension", lambda n, d: 2)
    with pytest.raises(ConsistencyError, match="exceeds the ambient"):
        component_characters(n, d)


def test_fractional_inverse_gives_int_multiplicities_or_fails():
    # h_3, e_3 and h_1 e_1 e_1, the last outside the candidates (a part 1 in
    # beta), pair as K = [[1, 0, 0], [0, 0, 1], [1, 2, 1]], |det K| = 2: a
    # solve must give int multiplicities (assemble_series takes ints only) for
    # dims in the image of K on N^3, and a ConsistencyError for any other
    psis = (YoungCharacter((3,), ()), YoungCharacter((), (3,)), YoungCharacter((1,), (1, 1)))
    assert [[psi.pairing[lam] for lam in partitions_of(3)] for psi in psis] == [
        [1, 0, 0], [0, 0, 1], [1, 2, 1]]
    halved = YoungSystem(3, psis, None)
    want = {(3,): 1, (2, 1): 2, (1, 1, 1): 3}
    mult = halved.multiplicities(pairing_dims(halved, want))
    assert mult == want and all(type(m) is int for m in mult.values())
    with pytest.raises(ConsistencyError, match=r"multiplicity of s_\(2, 1\) is 3/2, not in N"):
        halved.multiplicities([1, 3, 7])
    with pytest.raises(ConsistencyError, match=r"multiplicity of s_\(2, 1\) is -1, not in N"):
        halved.multiplicities([1, 3, 2])


def full_solve(n, d):
    """component_characters with no cover: every system character, then extra."""
    if component_dimension(n, d) == 0:
        return {lam: 0 for lam in partitions_of(n)}
    system = young_system(n)
    mult = system.multiplicities([coinvariants.isotypic_dimension(d, psi)
                                  for psi in system.characters])
    if system.extra is not None:
        want = sum(m * system.extra.pairing[lam] for lam, m in mult.items())
        if coinvariants.isotypic_dimension(d, system.extra) != want:
            raise ConsistencyError(f"redundancy check at {d}")
    if sum(m * syt_count(lam) for lam, m in mult.items()) > component_dimension(n, d):
        raise ConsistencyError(f"at {d}: the quotient exceeds the ambient dimension")
    return mult


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cover_matches_the_full_solve_on_every_visited_component(n):
    for d, comp in frobenius_module(n).components.items():
        assert comp.mult == full_solve(n, d), d


def test_cover_matches_the_full_solve_at_n5():
    for d in low_degrees(5, 3) + [TriDegree(6, 6, 0)]:
        assert component_characters(5, d).mult == full_solve(5, d), d


COVERS = {
    3: [((3,), ()), ((1,), (2,))],
    4: [((3, 1), ()), ((), (2, 2))],
    5: [((3, 2), ()), ((2,), (3,)), ((), (3, 2))],
    6: [((4,), (2,)), ((3, 3), ()), ((1,), (3, 2))],
    7: [((3, 3, 1), ()), ((1,), (3, 3)), ((3,), (4,))],
}


@pytest.mark.parametrize("n", range(1, 9))
def test_cover_pairs_positively_with_every_schur_function(n):
    system = young_system(n)
    assert set(system.cover) <= set(system.characters)
    for lam in partitions_of(n):
        assert any(psi.pairing[lam] > 0 for psi in system.cover), lam
    if n in COVERS:
        assert [(psi.alpha, psi.beta) for psi in system.cover] == COVERS[n]
        assert system.zero_check == YoungCharacter((), (n,))  # e_n, |H| = n!
    if n <= 2:  # the cover is the whole system
        assert system.zero_check == system.extra


def counted_isotypic_dimension(monkeypatch):
    calls = []
    honest = isotypic_dimension

    def counted(d, psi):
        calls.append(psi)
        return honest(d, psi)

    monkeypatch.setattr(coinvariants, "isotypic_dimension", counted)
    return calls


@pytest.mark.parametrize("n, zero, nonzero", [
    (2, (0, 0, 2), (0, 0, 1)),
    (3, (4, 0, 0), (1, 1, 1)),
    (4, (7, 0, 1), (2, 1, 1)),
    (5, (0, 0, 5), (1, 1, 0)),
])
def test_a_zero_cell_costs_the_cover_and_one_check(monkeypatch, n, zero, nonzero):
    system = young_system(n)
    calls = counted_isotypic_dimension(monkeypatch)
    assert component_characters(n, TriDegree(*zero)).dim_quotient == 0
    assert calls == list(system.cover) + [system.zero_check]
    del calls[:]
    assert component_characters(n, TriDegree(*nonzero)).dim_quotient > 0
    assert len(calls) == len(partitions_of(n)) + 1
    assert set(calls) == set(system.characters) | {system.extra}


@pytest.mark.parametrize("d", [TriDegree(5, 0, 2), TriDegree(7, 0, 1)])
def test_wrong_isotypic_rank_at_a_zero_cell(monkeypatch, d):
    # the zero path reads the cover and the zero check only; on those it must
    # raise exactly when the full solve raises, and a +1 on the check raises.
    # A shift on a character it never reads cannot change its answer, and the
    # full solve rejects every such shift.
    n = 4
    system = young_system(n)
    read = system.cover + (system.zero_check,)
    honest = isotypic_dimension
    for target in system.characters + (system.extra,):
        for delta in (1, -1):
            def patched(deg, psi, target=target, delta=delta):
                return honest(deg, psi) + (delta if psi == target else 0)

            monkeypatch.setattr(coinvariants, "isotypic_dimension", patched)
            outcomes = []
            for solve in (component_characters, full_solve):
                try:
                    outcomes.append(solve(n, d))
                except ConsistencyError:
                    outcomes.append(None)
            cover, full = outcomes
            if target in read:
                assert (cover is None) == (full is None), (target, delta)
            else:
                assert cover.dim_quotient == 0 and full is None, (target, delta)
            if target == system.zero_check and delta == 1:
                assert cover is None
    monkeypatch.undo()
    assert component_characters(n, d).dim_quotient == 0


def test_restricted_systems_are_pinned():
    full = young_system(4)
    assert young_system(4, partitions_of(4)) == full and full.support is None
    # no lam: no character, and the first candidate, e_4, checks the zero
    empty = young_system(4, ())
    assert (empty.characters, empty.cover) == ((), ())
    assert empty.multiplicities([]) == dict.fromkeys(partitions_of(4), 0)
    assert empty.zero_check == empty.extra == YoungCharacter((), (4,))
    assert young_system(1, ()).zero_check == YoungCharacter((1,), ())
    # <s_lam, h_4> is 1 at lam = (4) and 0 elsewhere: the trivial character
    # solves the cell, and e_4 checks it
    trivial = young_system(4, ((4,),))
    assert trivial.characters == trivial.cover == (YoungCharacter((4,), ()),)
    assert trivial.multiplicities([5]) == {**dict.fromkeys(partitions_of(4), 0), (4,): 5}
    assert trivial.zero_check == trivial.extra == YoungCharacter((), (4,))
    # the commonest two-lam support at n = 4: (1)|(3) pairs with both lams,
    # so it is the cover, and h_4, which pairs with neither, is the check
    two = young_system(4, ((2, 1, 1), (1, 1, 1, 1)))
    assert two.characters == (YoungCharacter((), (4,)), YoungCharacter((1,), (3,)))
    assert two.cover == (YoungCharacter((1,), (3,)),)
    # K = [[0, 1], [1, 1]]: m_(1,1,1,1) = dim for e_4, m_(2,1,1) the rest of (1)|(3)
    assert two.multiplicities([2, 5]) == {
        **dict.fromkeys(partitions_of(4), 0), (2, 1, 1): 3, (1, 1, 1, 1): 2}
    with pytest.raises(ConsistencyError, match=r"s_\(2, 1, 1\) is -1, not in N"):
        two.multiplicities([3, 2])
    assert two.zero_check == YoungCharacter((), (4,)) and two.extra == YoungCharacter((4,), ())


def test_a_solve_above_its_bound_is_caught():
    d = TriDegree(2, 1, 1)
    comp = component_characters(4, d)
    assert comp.mult == {(4,): 0, (3, 1): 0, (2, 2): 1, (2, 1, 1): 3, (1, 1, 1, 1): 2}
    support = {lam: m for lam, m in comp.mult.items() if m}
    assert component_characters(4, d, support) == comp
    with pytest.raises(ConsistencyError,
                       match=r"at TriDegree\(a=2, b=1, c=1\): multiplicity of s_\(1, 1, 1, 1\) "
                             r"is 2, above its bound 1"):
        component_characters(4, d, support | {(1, 1, 1, 1): 1})


def test_a_cell_above_computed_zeros_only_runs_the_full_cover(monkeypatch):
    # a cell whose computed lower neighbours are all zero lies in the extra
    # band beyond a row's first closed band of zeros; no bound is taken from
    # a zero, so it keeps the full system's cover and zero check
    system = young_system(4)
    calls = counted_isotypic_dimension(monkeypatch)
    worker = coinvariants._component_worker
    runs = {}

    def recording_worker(args):
        start = len(calls)
        comp = worker(args)
        runs[TriDegree(*args[1])] = args[2], calls[start:]
        return comp

    monkeypatch.setattr(coinvariants, "_component_worker", recording_worker)
    components = frobenius_module(4).components
    assert len(calls) == 172  # 240 when every solve runs the full system
    lower = {d: [components[p] for p in ((d.a - 1, d.b, d.c), (d.a, d.b - 1, d.c)) if p in components]
             for d in runs}
    above_zeros = [d for d in runs if lower[d] and not any(c.dim_quotient for c in lower[d])]
    assert len(above_zeros) == 5
    for d in above_zeros:
        assert runs[d] == (None, list(system.cover) + [system.zero_check]), d
    # every other solve but band 0 runs for its support
    assert all((runs[d][0] is None) == (not lower[d]) for d in runs if d not in above_zeros)
