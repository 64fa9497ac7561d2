import hashlib
import json
import random
from array import array
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import accumulate, permutations, repeat
from math import comb, prod
from operator import add, gt, mul, sub

import pytest

from superdelta import macdonald
from superdelta.characters import kostka
from superdelta.macdonald import (
    HTILDE_SIZE_LIMIT,
    delta_prime_ek_en,
    ek_pleth,
    hhl_htilde,
    htilde_schur,
    macdonald_scalars,
    mono_to_schur,
    rhs_series,
)
from superdelta.partitions import arm, cells, conjugate, leg, partitions_of, syt_count
from superdelta.qtz import ONE, Q, QTZPoly, T, Z
from superdelta.series import FrobeniusSeries
from superdelta.verifier import verify_conjecture


def test_macdonald_scalars_single_box():
    s = macdonald_scalars((1,))
    assert s.b == ONE
    assert s.pi == ONE
    assert s.w == s.m == (ONE - Q) * (ONE - T)


def test_macdonald_scalars_row_two():
    s = macdonald_scalars((2,))
    assert s.b == ONE + Q
    assert s.pi == ONE - Q
    assert s.w == (Q - T) * (ONE - Q * Q) * (ONE - T) * (ONE - Q)


def test_macdonald_scalars_hook():
    s = macdonald_scalars((2, 1))
    assert s.b == ONE + Q + T
    with pytest.raises(ValueError):
        macdonald_scalars(())


def test_ek_pleth():
    assert ek_pleth((3, 2), 0) == ONE
    assert ek_pleth((2,), 1) == Q
    assert ek_pleth((2, 1), 2) == Q * T
    assert ek_pleth((3,), 2) == Q * Q * Q  # e_2 of {q, q^2}
    with pytest.raises(ValueError):
        ek_pleth((2,), 2)


def test_htilde_small():
    assert htilde_schur((1,)).coeffs == {(1,): ONE}
    assert htilde_schur((2,)).coeffs == {(2,): ONE, (1, 1): Q}
    assert htilde_schur((1, 1)).coeffs == {(2,): ONE, (1, 1): T}
    assert htilde_schur((2, 1)).coeffs == {
        (3,): ONE,
        (2, 1): Q + T,
        (1, 1, 1): Q * T,
    }


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


def reference_hhl_htilde(mu) -> dict:
    """H~_mu's monomial coefficients from every filling of every content nu."""
    n = sum(mu)
    cell_list = cells(mu)
    index = {c: i for i, c in enumerate(cell_list)}
    south = [index.get((j - 1, i)) for (j, i) in cell_list]
    legs = [leg(mu, j, i) for (j, i) in cell_list]
    arms = [arm(mu, j, i) for (j, i) in cell_list]
    attacks = []
    for (j, i), u in index.items():
        for (jj, ii), v in index.items():
            if jj == j and ii > i:
                attacks.append((u, v))
            elif jj == j - 1 and ii < i:
                # adjacent rows attack with the cell away from the corner row
                # strictly right of the other; it reads first
                attacks.append((u, v))
    coeffs = {}
    for nu in partitions_of(n):
        word = [letter for letter, mult in enumerate(nu, start=1) for _ in range(mult)]
        acc = {}
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
    return coeffs


def test_hhl_htilde_matches_all_fillings():
    # hhl_htilde tallies the n! standard fillings by inverse descent set
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert hhl_htilde(mu) == reference_hhl_htilde(mu), mu


@cache
def list_standard_fillings(n: int) -> tuple[list[array], array]:
    """The n! standard fillings by column, columns[u][f] being filling f's
    entry at reading position u, and each filling's inverse descent set."""
    columns = [array("b") for _ in range(n)]
    keys = array("H")
    for entries in permutations(range(n)):
        for column, x in zip(columns, entries):
            column.append(x)
        read = sorted(range(n), key=entries.__getitem__)
        keys.append(sum(1 << i for i in range(n - 1) if read[i] > read[i + 1]))
    return columns, keys


def list_tally_htilde(mu) -> dict:
    """hhl_htilde with inv and maj held as one list entry per filling."""
    n = sum(mu)
    columns, keys = list_standard_fillings(n)
    order = sorted(cells(mu), key=lambda c: (-c[0], c[1]))
    index = {c: u for u, c in enumerate(order)}
    inv, maj = [0] * len(keys), [0] * len(keys)
    for (j, i), u in index.items():
        for (jj, ii), v in index.items():
            if (jj == j and ii > i) or (jj == j - 1 and ii < i):
                inv = list(map(add, inv, map(gt, columns[u], columns[v])))
        if (j - 1, i) in index:
            descent = list(map(gt, columns[u], columns[index[j - 1, i]]))
            maj = list(map(add, maj, map(mul, descent, repeat(leg(mu, j, i) + 1))))
            inv = list(map(sub, inv, map(mul, descent, repeat(arm(mu, j, i)))))
    tally: dict[int, dict] = {}
    for (key, a, b), count in Counter(zip(keys, inv, maj)).items():
        tally.setdefault(key, {})[a, b, 0] = count
    coeffs = {}
    for nu in partitions_of(n):
        cuts = sum(1 << (p - 1) for p in accumulate(nu[:-1]))
        acc = Counter()
        for key, terms in tally.items():
            if not key & ~cuts:
                acc.update(terms)
        coeffs[nu] = QTZPoly(acc)
    return coeffs


def test_byte_lanes_match_the_list_tally_where_they_are_fullest():
    # inv and maj of every filling lie in [0, C(n, 2)]; one byte holds them
    # only while C(n, 2) < 256, so raising the limit must not carry silently
    assert comb(HTILDE_SIZE_LIMIT, 2) < 256
    top = 0
    for mu in [*partitions_of(7), (8,), (1,) * 8, (4, 4)]:
        coeffs = hhl_htilde(mu)
        assert coeffs == list_tally_htilde(mu), mu
        top = max(top, max(max(e[:2]) for c in coeffs.values() for e in c.terms))
    assert top == comb(8, 2)  # (8) reaches inv 28 and (1^8) maj 28


def test_htilde_monomial_coefficients():
    m = hhl_htilde((2,))
    assert m[(2,)] == ONE
    assert m[(1, 1)] == ONE + Q


def test_macdonald_property_suite():
    for n in range(1, 6):
        for mu in partitions_of(n):
            h = htilde_schur(mu)
            assert h.coefficient((n,)) == ONE  # normalization
            conj = htilde_schur(conjugate(mu))
            for lam in set(h.coeffs) | set(conj.coeffs):
                c = h.coefficient(lam)
                assert c.is_integral() and c.has_nonnegative_coeffs()
                assert c.evaluate(1, 1, 1) == syt_count(lam)
                assert c.swap_qt() == conj.coefficient(lam)  # q <-> t conjugation


def test_mono_to_schur_examples():
    assert mono_to_schur(2, {(2,): ONE}).coeffs == {(2,): ONE, (1, 1): -ONE}
    f = {(2,): ONE, (1, 1): QTZPoly.constant(2)}
    assert mono_to_schur(2, f).coeffs == {(2,): ONE, (1, 1): ONE}


def schur_to_mono(f: FrobeniusSeries) -> dict:
    """The monomial coefficients of a Schur expansion, through Kostka numbers."""
    out = {}
    for lam, c in f.coeffs.items():
        for nu in partitions_of(f.n):
            k = kostka(lam, nu)
            if k:
                out[nu] = out.get(nu, QTZPoly.zero()) + c * k
    return out


def test_schur_mono_roundtrip():
    rng = random.Random(5)
    for n in range(1, 7):
        coeffs = {}
        for lam in partitions_of(n):
            if rng.random() < 0.6:
                coeffs[lam] = QTZPoly.monomial(
                    rng.randrange(3), rng.randrange(3), 0, rng.randrange(-3, 4)
                )
        f = FrobeniusSeries(n, coeffs)
        assert mono_to_schur(n, schur_to_mono(f)) == f


def test_delta_prime_identity_certificate():
    for n in range(1, 6):
        assert delta_prime_ek_en(n, 0).coeffs == {(1,) * n: ONE}


def reference_divide(num: QTZPoly, den: QTZPoly) -> QTZPoly:
    """Long division in graded lex order; den must have leading coefficient 1."""
    order = lambda e: (sum(e), e)
    lead = max(den.terms, key=order)
    assert den.terms[lead] == 1
    quot = QTZPoly.zero()
    while not num.is_zero():
        e = max(num.terms, key=order)
        shift = tuple(x - y for x, y in zip(e, lead))
        assert min(shift) >= 0, "not divisible"
        term = QTZPoly.monomial(*shift, coeff=num.terms[e])
        quot, num = quot + term, num - term * den
    return quot


def factor_product(atoms) -> QTZPoly:
    """The product of two-term factors ((a1, b1), (a2, b2)) = q^a1 t^b1 - q^a2 t^b2,
    as plain QTZPoly products."""
    return prod(
        (QTZPoly.monomial(*m1) - QTZPoly.monomial(*m2) for m1, m2 in atoms), start=ONE
    )


def reference_delta_prime(n: int, k: int) -> dict:
    """Delta'_{e_k}(e_n) from plain QTZPoly products over the expanded L."""
    scalars = {mu: macdonald._expansion_scalar(mu) for mu in partitions_of(n)}
    l_atoms = Counter()
    for sc in scalars.values():
        l_atoms |= sc.den_atoms
    out = {}
    for lam in partitions_of(n):
        num = QTZPoly.zero()
        for mu, sc in scalars.items():
            cofactor = factor_product(sc.num_atoms.elements()) * factor_product(
                (l_atoms - sc.den_atoms).elements()
            )
            h = htilde_schur(mu).coefficient(lam)
            num = num + sc.bpoly * sc.sign * cofactor * ek_pleth(mu, k) * h
        if not num.is_zero():
            out[lam] = reference_divide(num, factor_product(l_atoms.elements()))
    return out


def test_delta_prime_matches_unpacked_reference():
    for n in range(1, 6):
        for k in range(n):
            assert delta_prime_ek_en(n, k).coeffs == reference_delta_prime(n, k), (n, k)


def test_delta_prime_result_is_a_copy():
    delta_prime_ek_en(3, 1).coeffs.clear()  # must not reach the cached pass
    assert delta_prime_ek_en(3, 1).coeffs == reference_delta_prime(3, 1)


def test_rhs_series_matches_unpacked_reference():
    # rhs_series takes every k from one pass over the products; the reference
    # forms each k's numerators apart, as plain QTZPoly products
    for n in range(1, 6):
        want = {}
        for k in range(1, n + 1):
            for lam, c in reference_delta_prime(n, n - k).items():
                want[lam] = want.get(lam, QTZPoly.zero()) + c.shift_z(k - 1)
        assert rhs_series(n).coeffs == want, n


def test_rhs_series_is_pinned_beyond_the_reference():
    # the unpacked reference reaches n = 5; n = 6 and 7 are pinned to the
    # SHA-256 of their JSON form
    digests = {
        6: "75f48988f56e4d924014322683118f4f132ff7b07e2e268c6682372bdb7f8671",
        7: "32b2bfb941b9697c7664e15a5ed3f7c0d04adbf4b02cdf514cb34f59fa3e305d",
    }
    for n, digest in digests.items():
        text = json.dumps(rhs_series(n).to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


def test_verify_reports_and_cache_files_are_pinned(tmp_path):
    # the report JSON (timing dropped) of verify_conjecture(n) for n <= 4, and
    # every cache file of n = 4 (relative path, NUL, bytes, in path order),
    # are pinned to their SHA-256: a refactor of either side keeps them
    digests = {
        1: "9d1f45371c93316f67f734755d0180ac9eb31636e0d57c3741f5741863c39e30",
        2: "9c9cd9a32cd7b9bae83a041e51211ccf488e29a3992ad6ced03202f48f048567",
        3: "28b9567f24f98cd24ec80040cd49856bfa417e46975bcde4db3080e63c5aa0f9",
        4: "f2b1acb6921adc020cff8111cbf4f88adfcc89217d13be08257419c879cea467",
    }
    for n, digest in digests.items():
        report = verify_conjecture(n, threads=1).to_json_dict(include_timing=False)
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n
    verify_conjecture(4, cache_dir=tmp_path)
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert len(files) == 111
    cache = hashlib.sha256()
    for p in files:
        cache.update(str(p.relative_to(tmp_path)).encode() + b"\0" + p.read_bytes())
    assert cache.hexdigest() == "eeb9d867ba903e24ee7e05e9e622b04f33d3edf7f1aebbff6d66fa50dedfd2ba"


def test_ek_terms_must_fit_the_packing(monkeypatch):
    # a term of q-degree >= D would wrap into the next power of t
    original = macdonald.ek_pleth

    def too_high(mu, k):
        return original(mu, k) + QTZPoly.monomial(10**6)

    monkeypatch.setattr(macdonald, "ek_pleth", too_high)
    macdonald._delta_context.cache_clear()
    try:
        with pytest.raises(ValueError, match="q-degree"):
            delta_prime_ek_en(3, 1)
    finally:
        macdonald._delta_context.cache_clear()


def test_rhs_series_certifies_expansion_scalars(monkeypatch):
    original = macdonald._expansion_scalar

    def corrupted(mu):
        sc = original(mu)
        if mu == (2, 1):
            # adds the polynomial sign * num_atoms to the scalar, so every
            # numerator stays divisible and only the e_0 identity can tell
            sc = replace(sc, bpoly=sc.bpoly + factor_product(sc.den_atoms.elements()))
        return sc

    monkeypatch.setattr(macdonald, "_expansion_scalar", corrupted)
    macdonald._delta_context.cache_clear()
    try:
        assert delta_prime_ek_en(3, 0).coeffs != {(1, 1, 1): ONE}
        with pytest.raises(ValueError, match="e_0"):
            rhs_series(3)
    finally:
        macdonald._delta_context.cache_clear()


def test_delta_prime_examples():
    d = delta_prime_ek_en(2, 1)
    assert d.coeffs == {(2,): ONE, (1, 1): Q + T}
    with pytest.raises(ValueError):
        delta_prime_ek_en(3, 3)


def test_delta_prime_nabla_dimensions():
    for n in range(1, 5):
        top = delta_prime_ek_en(n, n - 1)
        dim = sum(
            syt_count(lam) * c.evaluate(1, 1, 1) for lam, c in top.coeffs.items()
        )
        assert dim == (n + 1) ** (n - 1)


def test_rhs_series_small():
    assert rhs_series(1).coeffs == {(1,): ONE}
    assert rhs_series(2).coeffs == {(2,): ONE, (1, 1): Q + T + Z}
    with pytest.raises(ValueError):
        rhs_series(0)


def test_rhs_series_top_z_slab():
    for n in range(1, 6):
        series = rhs_series(n)
        assert series.z_slab(n - 1) == {(1,) * n: ONE}
        assert series.z_slab(n) == {}


def test_rhs_series_positive():
    for n in range(1, 6):
        assert rhs_series(n).is_schur_positive()


def test_rhs_series_has_the_gl2_shadow():
    # I_n is stable under GL_2 on (x_i, y_i), so at fixed lam and z^c the
    # module's q,t-coefficients form a polynomial GL_2-character: symmetric
    # in q and t, and m(a, b) >= m(a + 1, b - 1) for a >= b.  The delta side
    # is checked for the same shape with nothing shared with the module side.
    checked = 0
    for n in range(1, 7):
        for lam, poly in rhs_series(n).coeffs.items():
            assert poly == poly.swap_qt(), (n, lam)
            for (a, b, c), m in poly.terms.items():
                if a >= b + 2:  # m(a, b) against its inner neighbour m(a - 1, b + 1)
                    assert poly.terms.get((a - 1, b + 1, c), 0) >= m, (n, lam, (a, b, c))
                    checked += 1
    assert checked > 100


def test_htilde_size_limit():
    with pytest.raises(ValueError):
        hhl_htilde((9,))
