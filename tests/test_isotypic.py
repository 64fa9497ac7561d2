"""The module side by isotypic ranks, checked against the unreduced computation."""

import random
from itertools import permutations, product

import pytest

import superdelta.coinvariants as coinvariants
from superdelta.characters import character_table
from superdelta.coinvariants import (
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
from superdelta.partitions import cycle_type, partitions_of, perm_of_cycle_type
from superdelta.rationals import RAT
from superdelta.superring import (
    TriDegree,
    apply_perm_mono,
    component_dimension,
    enumerate_monomials,
    ideal_generators,
)
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


def test_matches_trace_method_on_sampled_n4_components():
    candidates = sorted(
        TriDegree(a, s - a, c)
        for s in range(7) for a in range(s + 1) for c in range(5)
        if 0 < component_dimension(4, TriDegree(a, s - a, c)) <= 600
    )
    sample = random.Random(20190109).sample(candidates, 8)
    nonzero = 0
    for d in sample:
        comp = component_characters(4, d)
        assert (comp.dim, comp.rank, comp.chars) == reference_characters(4, d), d
        nonzero += comp.dim_quotient > 0
    assert 0 < nonzero < len(sample)  # both kinds of component are covered


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
    gens = [e for _name, e, _gen in ideal_generators(psi.n)
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
    gens = [e for _name, e, _gen in ideal_generators(psi.n)
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


@pytest.mark.parametrize("n, max_ab", [(1, 4), (2, 4), (3, 4), (4, 4), (5, 2)])
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


def test_n5_low_components_match_the_delta_side():
    # each multiplicity is the coefficient of q^a t^b z^c in the Schur
    # coefficient of the delta side at n = 5
    rhs = rhs_series(5)
    for d in low_degrees(5, 3):
        comp = component_characters(5, d)
        for lam, m in comp.mult.items():
            assert m == rhs.coefficient(lam).terms.get((d.a, d.b, d.c), 0), (d, lam)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_young_system_inverts(n):
    system = young_system(n)
    lams = partitions_of(n)
    assert len(system.characters) == len(lams)
    kmat = [[psi.pairing[lam] for lam in lams] for psi in system.characters]
    for i in range(len(lams)):
        for j in range(len(lams)):
            entry = sum(system.inverse[i][k] * kmat[k][j] for k in range(len(lams)))
            assert entry == (1 if i == j else 0)
    if n > 1:
        assert system.extra is not None and system.extra not in system.characters
        assert system.extra == next(p for p in young_candidates(n) if p not in system.characters)


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
    # K^-1 is integral for n <= 7; a Fraction entry must still give int
    # multiplicities (assemble_series takes ints only) or a ConsistencyError
    system = young_system(2)
    halved = YoungSystem(2, system.characters, None, ((RAT(1, 2), 0), (0, 1)))
    mult = halved.multiplicities([2, 3])
    assert mult == {(2,): 1, (1, 1): 3} and all(type(m) is int for m in mult.values())
    with pytest.raises(ConsistencyError, match="1/2"):
        halved.multiplicities([1, 3])
