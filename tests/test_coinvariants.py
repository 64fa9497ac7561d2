import concurrent.futures
import time
from concurrent.futures import Future
from fractions import Fraction

import pytest

import superdelta.coinvariants as coinvariants
from superdelta.coinvariants import (
    ComponentCharacters,
    _modp_is_full_rank,
    assemble_series,
    component_characters,
    frobenius_module,
    ideal_component,
    spanning_vectors,
)
from superdelta.linalg import ConsistencyError, Echelon
from superdelta.partitions import all_permutations, cycle_type
from superdelta.qtz import ONE, Q, T, Z
from superdelta.superring import TriDegree, apply_perm_mono, enumerate_monomials
from superdelta.verifier import EQUAL, verify_conjecture
from unreduced import (
    apply_signed_map,
    signed_coordinate_map,
    trace_on_reduced_basis,
    trace_regular,
)


def brute_trace_regular(sigma, n, d):
    """Independent oracle: sum signs over monomials fixed up to sign."""
    total = 0
    for m in enumerate_monomials(n, d):
        sign, image = apply_perm_mono(sigma, m)
        if image == m:
            total += sign
    return total


def test_trace_regular_examples():
    assert trace_regular((1, 2), 2, TriDegree(0, 0, 2)) == 1
    assert trace_regular((2, 1), 2, TriDegree(0, 0, 2)) == -1
    assert trace_regular((2, 1), 2, TriDegree(0, 0, 1)) == 0
    for d in [(0, 0, 0), (2, 1, 1), (1, 1, 2)]:
        deg = TriDegree(*d)
        assert trace_regular((1, 2, 3), 3, deg) == len(enumerate_monomials(3, deg))


def test_trace_regular_against_bruteforce():
    degrees = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 1), (1, 1, 1),
               (0, 2, 2), (2, 1, 3), (0, 0, 3)]
    for n in (2, 3):
        for sigma in all_permutations(n):
            for d in degrees:
                deg = TriDegree(*d)
                assert trace_regular(sigma, n, deg) == brute_trace_regular(sigma, n, deg)


def test_ideal_component_examples():
    assert ideal_component(2, TriDegree(0, 0, 1)).rank == 1
    assert ideal_component(2, TriDegree(1, 0, 1)).rank == 4
    assert ideal_component(1, TriDegree(1, 0, 0)).rank == 1
    assert ideal_component(3, TriDegree(0, 0, 4)).rank == 0


def exact_rank(n, d):
    monos = enumerate_monomials(n, d)
    index = {m: i for i, m in enumerate(monos)}
    ech = Echelon()
    for vec in spanning_vectors(n, d, index):
        ech.insert(vec)
    return ech.rank


def test_ideal_component_modp_matches_exact():
    certified = deficient = 0
    cases = [(n, d) for n in (2, 3)
             for d in [(0, 0, 1), (1, 0, 1), (1, 1, 0), (2, 1, 0), (2, 1, 1), (3, 0, 0)]]
    # dim >= 120: two full components and a rank-deficient one
    cases += [(3, (4, 3, 0)), (3, (3, 2, 1)), (4, (2, 1, 1))]
    for n, d in cases:
        deg = TriDegree(*d)
        basis = ideal_component(n, deg)
        assert basis.rank == exact_rank(n, deg), (n, d)
        index = {m: i for i, m in enumerate(basis.monomials)}
        full = _modp_is_full_rank(list(spanning_vectors(n, deg, index)), basis.dim)
        assert full == (basis.rank == basis.dim), (n, d)
        if basis.dim >= 120:
            certified += full
            deficient += basis.rank < basis.dim
    assert certified == 2 and deficient == 1


def test_ideal_component_stability_exhaustive():
    # every basis vector stays inside the span under every permutation
    for n in (2, 3):
        for d in [(0, 0, 1), (1, 1, 0), (1, 0, 1), (2, 1, 1), (1, 1, 2)]:
            deg = TriDegree(*d)
            basis = ideal_component(n, deg)
            if basis.rank in (0, basis.dim):
                continue
            monos = basis.monomials
            index = {m: i for i, m in enumerate(monos)}
            ech = basis.echelon()
            for sigma in all_permutations(n):
                cmap = signed_coordinate_map(sigma, monos, index)
                for row in basis.rows:
                    image = apply_signed_map(cmap, row)
                    assert not ech.residual(image), (n, d, sigma)


def test_character_quotient_examples():
    assert component_characters(2, TriDegree(0, 0, 1)).chars[(1, 1)] == 1
    assert component_characters(2, TriDegree(0, 0, 1)).chars[(2,)] == -1
    assert component_characters(1, TriDegree(0, 0, 0)).chars[(1,)] == 1
    with pytest.raises(KeyError):  # (2,) is not a cycle type of S_3
        component_characters(3, TriDegree(0, 0, 0)).chars[(2,)]


def test_character_is_class_function():
    # traces agree for any permutation of a given cycle type
    n = 3
    deg = TriDegree(1, 0, 1)
    comp = component_characters(n, deg)
    basis = ideal_component(n, deg)
    monos = basis.monomials
    index = {m: i for i, m in enumerate(monos)}
    ech = basis.echelon()
    for sigma in all_permutations(n):
        cmap = signed_coordinate_map(sigma, monos, index)
        full = trace_regular(sigma, n, deg)
        ideal_tr = trace_on_reduced_basis(ech, lambda v: apply_signed_map(cmap, v))
        assert full - ideal_tr == comp.chars[cycle_type(sigma)]


def test_support_frontier_examples():
    # the support the frontier scan finds, one theta-row at a time
    def support(n, c):
        return {d for d in frobenius_module(n).series.hilbert() if d.c == c}

    assert support(2, 1) == {TriDegree(0, 0, 1)}
    assert support(2, 2) == set()
    assert support(1, 0) == {TriDegree(0, 0, 0)}


def test_frobenius_module_n1():
    result = frobenius_module(1)
    assert result.closed
    assert result.series.coeffs == {(1,): ONE}


def test_frobenius_module_n2():
    result = frobenius_module(2)
    assert result.closed
    assert result.series.coeffs == {(2,): ONE, (1, 1): Q + T + Z}


def test_frobenius_module_n3_specializations():
    result = frobenius_module(3)
    assert result.closed
    series = result.series
    assert series.specialize(z=0).total_dimension() == 16
    assert series.is_schur_positive()
    # z^(n-1) slab is the sign representation alone
    assert series.z_slab(2) == {(1, 1, 1): ONE}
    # c = n quotient vanishes
    assert not any(d.c == 3 and comp.dim_quotient for d, comp in result.components.items())


def test_hilbert_matches_components():
    result = frobenius_module(3)
    hilbert = result.series.hilbert()
    for d, comp in result.components.items():
        assert hilbert.get(d, 0) == comp.dim_quotient


def test_monotone_vanishing_in_explored_band():
    result = frobenius_module(3, extra_band=2)
    comps = result.components
    for d, comp in comps.items():
        if comp.dim_quotient == 0:
            for succ in (TriDegree(d.a + 1, d.b, d.c), TriDegree(d.a, d.b + 1, d.c)):
                if succ in comps:
                    assert comps[succ].dim_quotient == 0


def test_frobenius_module_threads_deterministic():
    serial = frobenius_module(2, threads=1)
    parallel = frobenius_module(2, threads=2)
    assert serial.series == parallel.series
    assert set(serial.components) == set(parallel.components)


def test_assemble_series_rejects_noninteger():
    comp = ComponentCharacters(
        n=2, degree=TriDegree(0, 0, 0), dim=2,
        mult={(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)},  # not a genuine module
    )
    with pytest.raises(ConsistencyError):
        assemble_series(2, {TriDegree(0, 0, 0): comp})


def test_assemble_series_rejects_negative():
    comp = ComponentCharacters(
        n=2, degree=TriDegree(0, 0, 0), dim=1,
        mult={(2,): -1, (1, 1): 0},  # minus the trivial representation
    )
    with pytest.raises(ConsistencyError):
        assemble_series(2, {TriDegree(0, 0, 0): comp})


def test_spanning_vectors_entries():
    deg = TriDegree(0, 0, 1)
    monos = enumerate_monomials(2, deg)
    index = {m: i for i, m in enumerate(monos)}
    vecs = list(spanning_vectors(2, deg, index))
    assert vecs == [{0: 1, 1: 1}]  # theta_1 + theta_2 only


def test_budget_configuration():
    partial = frobenius_module(3, budget_seconds=0.0)
    assert not partial.closed and partial.components == {}
    assert partial.rows == {c: False for c in range(4)}  # every theta row, each cut short


def test_theta_rows_are_explored_band_by_band(monkeypatch):
    worker = coinvariants._component_worker
    bands = []

    def recording_worker(args):
        _, d = args
        bands.append(d[0] + d[1])
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", recording_worker)
    result = frobenius_module(3)
    assert result.closed and list(result.rows) == [0, 1, 2, 3]
    assert len(bands) == len(result.components)
    assert bands == sorted(bands)  # a + b never falls back for the next theta row


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs each task at once."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("cores, threads, workers", [(2, 100_000, 2), (None, 8, 1), (4, 3, 3)])
def test_pool_size_is_bounded_by_the_cores(monkeypatch, cores, threads, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(coinvariants.os, "cpu_count", lambda: cores)
    InlineExecutor.sizes = []
    report = verify_conjecture(2, threads=threads)
    assert report.verdict == EQUAL and report.timing["threads"] == threads
    assert InlineExecutor.sizes == [workers]


def test_budget_pool_path_stops_early():
    # the pool path waits only for the remaining time, then cancels
    start = time.monotonic()
    partial = frobenius_module(4, threads=2, budget_seconds=0.3)
    assert not partial.closed
    assert time.monotonic() - start < 0.3 + 2.0  # the slowest n = 4 component is ~1.4 s


class RecordingCache:
    """A component cache that never hits and records every put."""

    def __init__(self):
        self.puts = []

    def get(self, n, degree):
        return None

    def put(self, comp):
        self.puts.append(comp.degree)


def test_budget_pool_path_keeps_finished_components():
    # what the pool finished before the deadline is returned, even though no
    # theta row closed
    cache = RecordingCache()
    partial = frobenius_module(4, threads=2, budget_seconds=1.0, component_cache=cache)
    assert not partial.closed and cache.puts
    assert sorted(partial.components) == sorted(cache.puts)
