"""Acceptance suite: one test per criterion, asserting the stated bounds.

Each test prints a PASS line with the measured quantities; pytest failure
output marks the criterion red otherwise.  Expensive shared artifacts (the
module side for n <= 4, the Delta side for n <= 6) are computed once per
session via module-scoped fixtures and a shared component cache.
"""

import random
import time
from itertools import permutations

import pytest

from superdelta.characters import kostka, mn_character
from superdelta.coinvariants import frobenius_module, ideal_component
from superdelta.macdonald import delta_prime_ek_en, htilde_schur, rhs_series
from superdelta.partitions import (
    conjugate,
    dominates,
    partitions_of,
    syt_count,
    z_mu,
)
from superdelta.qtz import ONE
from superdelta.rationals import RAT
from superdelta.superring import component_dimension
from superdelta.verifier import EQUAL, ComponentCache, verify_conjecture
from unreduced import apply_signed_map, signed_coordinate_map

N_DESK = 4  # module side at desk scale
N_RHS = 6  # Delta side alone


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("components")


@pytest.fixture(scope="module")
def module_results(cache_dir):
    """Cold module-side runs for n = 1..4, timed, populating the cache."""
    results, timings = {}, {}
    for n in range(1, N_DESK + 1):
        t0 = time.monotonic()
        results[n] = frobenius_module(
            n, threads=2, component_cache=ComponentCache(cache_dir)
        )
        timings[n] = time.monotonic() - t0
    return results, timings


@pytest.fixture(scope="module")
def rhs_results():
    """Delta-side series for n = 1..6, timed."""
    results, timings = {}, {}
    for n in range(1, N_RHS + 1):
        t0 = time.monotonic()
        results[n] = rhs_series(n)
        timings[n] = time.monotonic() - t0
    return results, timings


@pytest.fixture(scope="module")
def reports(module_results, cache_dir):
    """verify_conjecture reports for n = 1..4 over the warmed cache."""
    out = {}
    for n in range(1, N_DESK + 1):
        out[n] = verify_conjecture(n, threads=2, cache_dir=cache_dir)
    return out


def test_criterion_1_end_to_end_verification(reports, module_results, rhs_results):
    # n = 1..3 cold, exact equality, under one minute total
    t0 = time.monotonic()
    for n in (1, 2, 3):
        report = verify_conjecture(n)
        assert report.verdict == EQUAL, f"n={n}: {report.verdict}"
        assert report.diffs == []
    small_elapsed = time.monotonic() - t0
    assert small_elapsed < 60.0, f"n<=3 verification took {small_elapsed:.1f}s"

    # n = 4: cold module side plus verification, under thirty minutes
    _, timings = module_results
    t0 = time.monotonic()
    assert reports[4].verdict == EQUAL
    assert reports[4].diffs == []
    n4_elapsed = timings[4] + (time.monotonic() - t0)
    assert n4_elapsed < 1800.0, f"n=4 verification took {n4_elapsed:.1f}s"

    # the Delta side alone completes for n <= 6
    _, rhs_timings = rhs_results
    assert set(rhs_timings) == {1, 2, 3, 4, 5, 6}

    print(
        f"\nACCEPTANCE 1 PASS: EQUAL for n=1..3 in {small_elapsed:.1f}s (< 60s), "
        f"n=4 in {n4_elapsed:.1f}s (< 1800s); delta side n<=6 completed "
        f"(n=6 in {rhs_timings[6]:.1f}s)"
    )


def test_criterion_2_haiman_specialization(module_results):
    results, _ = module_results
    dims = {}
    for n, result in results.items():
        dims[n] = result.series.specialize(z=0).total_dimension()
        assert dims[n] == (n + 1) ** (n - 1), f"n={n}: {dims[n]}"
    assert [dims[n] for n in (1, 2, 3, 4)] == [1, 3, 16, 125]
    print(f"\nACCEPTANCE 2 PASS: z=0, q=t=1 dimensions {dims} equal (n+1)^(n-1)")


def test_criterion_3_forced_identities(module_results, rhs_results):
    results, _ = module_results
    rhs, _ = rhs_results
    for n, result in results.items():
        assert result.series.z_slab(n - 1) == {(1,) * n: ONE}, f"module z^{n-1}, n={n}"
    for n, series in rhs.items():
        assert series.z_slab(n - 1) == {(1,) * n: ONE}, f"delta z^{n-1}, n={n}"
    for n in range(1, N_RHS + 1):
        assert delta_prime_ek_en(n, 0).coeffs == {(1,) * n: ONE}, f"e_0 identity n={n}"
    print(
        "\nACCEPTANCE 3 PASS: z^(n-1) coefficient is s(1^n) on both sides; "
        "Delta'_{e_0}(e_n) = s(1^n) exactly for n <= 6"
    )


def test_criterion_4_macdonald_property_suite():
    checked = 0
    for n in range(1, N_RHS + 1):
        for mu in partitions_of(n):
            h = htilde_schur(mu)
            assert h.coefficient((n,)) == ONE, f"normalization {mu}"
            conj = htilde_schur(conjugate(mu))
            for lam in set(h.coeffs) | set(conj.coeffs):
                c = h.coefficient(lam)
                assert c.is_integral() and c.has_nonnegative_coeffs(), (mu, lam)
                assert c.evaluate(1, 1, 1) == syt_count(lam), (mu, lam)
                assert c.swap_qt() == conj.coefficient(lam), (mu, lam)
            checked += 1
    print(
        f"\nACCEPTANCE 4 PASS: {checked} shapes mu (n <= 6): conjugation symmetry, "
        "normalization, q=t=1 SYT counts, coefficients in N[q,t]"
    )


def test_criterion_5_character_machinery():
    t0 = time.monotonic()
    for n in range(1, 8):
        mus = partitions_of(n)
        weights = {mu: z_mu(mu) for mu in mus}
        for lam in mus:
            for kap in mus:
                total = sum(
                    RAT(mn_character(lam, mu) * mn_character(kap, mu), weights[mu])
                    for mu in mus
                )
                assert total == (1 if lam == kap else 0), (lam, kap)
    ortho_elapsed = time.monotonic() - t0
    assert ortho_elapsed < 60.0, f"orthogonality took {ortho_elapsed:.1f}s"

    for n in range(1, 8):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1
            for nu in partitions_of(n):
                if kostka(lam, nu) != 0:
                    assert dominates(lam, nu), (lam, nu)
    print(
        f"\nACCEPTANCE 5 PASS: character orthogonality n <= 7 in {ortho_elapsed:.1f}s; "
        "Kostka unitriangular n <= 7"
    )


def test_criterion_6_module_internal_consistency(module_results):
    results, _ = module_results
    ncomp = 0
    for n, result in results.items():
        assert result.closed
        identity = (1,) * n
        for d, comp in result.components.items():
            ambient = component_dimension(n, d)
            assert comp.dim == ambient, (n, d)
            assert comp.chars[identity] == ambient - comp.rank, (n, d)
            ncomp += 1
        # the c = n quotient component vanishes
        for d, comp in result.components.items():
            if d.c == n:
                assert comp.dim_quotient == 0, (n, d)
        assert any(d.c == n for d in result.components), f"c=n row unexplored, n={n}"
        # assembled coefficients are integer polynomials
        for poly in result.series.coeffs.values():
            assert poly.is_integral()

    stability_checked = _check_stability(results)
    print(
        f"\nACCEPTANCE 6 PASS: {ncomp} components consistent (chi(1^n) = dim - rank, "
        f"c=n vanishes, integer multiplicities); ideal stability on "
        f"{stability_checked} (component, permutation) pairs"
    )


def _check_stability(results):
    checked = 0
    # exhaustive for n <= 3
    for n in (1, 2, 3):
        perms = list(permutations(range(1, n + 1)))
        for d in results[n].components:
            basis = ideal_component(n, d)
            if basis.rank in (0, basis.dim):
                continue
            index = {m: i for i, m in enumerate(basis.monomials)}
            ech = basis.echelon()
            for sigma in perms:
                cmap = signed_coordinate_map(sigma, basis.monomials, index)
                for row in basis.rows:
                    assert not ech.residual(apply_signed_map(cmap, row)), (n, d, sigma)
                checked += 1
    # sampled for n = 4
    rng = random.Random(20190109)
    candidates = [
        (d, comp)
        for d, comp in results[4].components.items()
        if 0 < comp.dim_quotient and comp.dim <= 600
    ]
    for d, _comp in rng.sample(candidates, min(3, len(candidates))):
        basis = ideal_component(4, d)
        index = {m: i for i, m in enumerate(basis.monomials)}
        ech = basis.echelon()
        for a in rng.sample(range(1, 4), 2):
            sigma = [(2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3)][a - 1]
            cmap = signed_coordinate_map(sigma, basis.monomials, index)
            for row in basis.rows:
                assert not ech.residual(apply_signed_map(cmap, row)), (4, d, sigma)
            checked += 1
    return checked


def test_criterion_7_schur_positivity(module_results, rhs_results):
    results, _ = module_results
    rhs, _ = rhs_results
    for n, result in results.items():
        assert result.series.is_schur_positive(), f"module side n={n}"
    for n, series in rhs.items():
        assert series.is_schur_positive(), f"delta side n={n}"
    print(
        "\nACCEPTANCE 7 PASS: Schur positivity observed, module side n <= 4 "
        "and delta side n <= 6 (all coefficients in N[q,t,z])"
    )


def test_criterion_8_determinism(reports, cache_dir, tmp_path):
    # cold cache vs warm cache vs no cache, and both thread counts
    baseline = reports[3].to_json_dict(include_timing=False)
    cold = verify_conjecture(3, threads=1, cache_dir=tmp_path / "fresh")
    warm = verify_conjecture(3, threads=1, cache_dir=tmp_path / "fresh")
    nocache = verify_conjecture(3, threads=2)
    for other in (cold, warm, nocache):
        assert other.to_json_dict(include_timing=False) == baseline
    two = verify_conjecture(2, threads=2)
    one = verify_conjecture(2, threads=1)
    assert one.to_json_dict(include_timing=False) == two.to_json_dict(
        include_timing=False
    )
    print(
        "\nACCEPTANCE 8 PASS: identical reports across runs, thread counts, "
        "and cold/warm cache (timing section excluded)"
    )
