import os
import tempfile
import time
from fractions import Fraction
from functools import cache
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import superdelta.coinvariants as coinvariants
from superdelta.cli import main
from superdelta.coinvariants import (
    ComponentCharacters,
    ModuleSideResult,
    Plan,
    _modp_is_full_rank,
    assemble_series,
    check_diagonals,
    check_gl2_shape,
    component_characters,
    designated_cells,
    frobenius_module,
    ideal_component,
    spanning_vectors,
)
from superdelta.linalg import ConsistencyError, Echelon
from superdelta.macdonald import rhs_series
from superdelta.partitions import cycle_type, partitions_of
from superdelta.qtz import ONE, Q, T, Z
from superdelta.superring import (
    TriDegree,
    apply_perm_mono,
    component_dimension,
    enumerate_monomials,
)
from superdelta.verifier import EQUAL, ComponentCache, verify_conjecture
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
        for sigma in permutations(range(1, n + 1)):
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
            for sigma in permutations(range(1, n + 1)):
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
    for sigma in permutations(range(1, n + 1)):
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
    # the pool advances the theta rows in whatever order they finish; the
    # result is the serial one
    for n in range(1, 5):
        serial = frobenius_module(n, threads=1)
        pooled = frobenius_module(n, threads=2)
        assert pooled.components == serial.components
        assert pooled.rows == serial.rows and pooled.closed == serial.closed


def test_assemble_series_rejects_noninteger():
    comp = ComponentCharacters(
        n=2, degree=TriDegree(0, 0, 0),
        mult={(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)},  # not a genuine module
    )
    with pytest.raises(ConsistencyError):
        assemble_series(2, {TriDegree(0, 0, 0): comp})


def test_assemble_series_rejects_negative():
    comp = ComponentCharacters(
        n=2, degree=TriDegree(0, 0, 0),
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


def inferred(components):
    """The a - b >= 2 cells whose inner neighbour (a - 1, b + 1, c) is a zero
    among the components: frobenius_module keeps these as zeros, unsolved,
    when no cache brought them in."""
    zeros = {d for d, comp in components.items() if comp.dim_quotient == 0}
    return {d for d in components if d.a - d.b >= 2 and (d.a - 1, d.b + 1, d.c) in zeros}


def read_off(n, components):
    """The designated cells among the components but the inferred zeros and
    the cells of the extra band (every computed lower neighbour zero):
    frobenius_module reads these off their fermionic diagonals, unsolved,
    when no cache brought them in."""
    def extra_band(d):
        lower = [components[p] for p in ((d.a - 1, d.b, d.c), (d.a, d.b - 1, d.c))
                 if p in components]
        return lower and not any(comp.dim_quotient for comp in lower)

    skipped = inferred(components)
    return {d for d in components
            if d in designated_cells(n) and d not in skipped and not extra_band(d)}


def test_theta_rows_are_explored_band_by_band(monkeypatch):
    worker = coinvariants._component_worker
    seen = []

    def recording_worker(args):
        seen.append(TriDegree(*args[1]))
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", recording_worker)
    result = frobenius_module(3)
    assert result.closed and list(result.rows) == [0, 1, 2, 3]
    # every a < b cell is mirrored, every a - b >= 2 cell beyond a zero is
    # inferred and the designated cells outside the extra band are read off
    # their diagonals, so the worker sees each other a >= b cell once
    mirrored = [d for d in result.components if d.a < d.b]
    skipped = inferred(result.components)
    read = read_off(3, result.components)
    assert skipped and all(result.components[d].dim_quotient == 0 for d in skipped)
    assert read and not read & skipped
    assert sorted(seen) == sorted(d for d in result.components
                                  if d.a >= d.b and d not in skipped | read)
    assert len(seen) + len(mirrored) + len(skipped) + len(read) == len(result.components)
    for c in result.rows:  # a + b never falls back within a theta row
        bands = [d.a + d.b for d in seen if d.c == c]
        assert bands == sorted(bands)


class InlineWorkers:
    """Stands in for ForkedWorkers: runs each solve in this process as it is
    submitted, and records the most solves running at once."""

    peaks = []

    def __init__(self):
        self.busy = []  # (args, component or error) of the solves not yet waited on
        self.peaks.append(0)

    def submit(self, args):
        self.busy.append((args, coinvariants._solve(args)))
        self.peaks[-1] = max(self.peaks[-1], len(self.busy))

    def wait(self):
        done, self.busy = self.busy, []
        return done

    def close(self):
        pass


@pytest.mark.parametrize("cores, threads, workers", [(2, 100_000, 2), (None, 8, 1), (4, 3, 3)])
def test_pool_size_is_bounded_by_the_cores(monkeypatch, cores, threads, workers):
    monkeypatch.setattr(coinvariants, "ForkedWorkers", InlineWorkers)
    monkeypatch.setattr(coinvariants.os, "cpu_count", lambda: cores)
    InlineWorkers.peaks = []
    # band 0 of n = 3 queues three solves, (0,0,1) being read off its diagonal
    report = verify_conjecture(3, threads=threads)
    assert report.verdict == EQUAL and report.timing["threads"] == threads
    # one worker is the calling process, so no worker is forked
    assert InlineWorkers.peaks == ([workers] if workers > 1 else [])


def test_both_paths_solve_the_same_cells(monkeypatch):
    worker = coinvariants._component_worker
    seen = []

    def recording_worker(args):
        seen.append(TriDegree(*args[1]))
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", recording_worker)
    result = frobenius_module(4)
    serial = sorted(seen)
    seen.clear()
    monkeypatch.setattr(coinvariants, "ForkedWorkers", InlineWorkers)
    monkeypatch.setattr(coinvariants.os, "cpu_count", lambda: 2)
    frobenius_module(4, threads=2)
    # 111 components: 32 solved, 48 a < b mirrors, 18 zeros inferred from
    # their inner neighbours and 13 cells read off their diagonals
    mirrored = [d for d in result.components if d.a < d.b]
    skipped = inferred(result.components)
    read = read_off(4, result.components)
    assert (len(serial), len(mirrored), len(skipped), len(read)) == (32, 48, 18, 13)
    assert len(serial) + len(mirrored) + len(skipped) + len(read) == len(result.components) == 111
    assert not set(serial) & (set(mirrored) | skipped | read) and sorted(seen) == serial


# The serial schedule of frobenius_module(4) with a cache that never hits:
# "s" and a degree abc is a solve, a bare degree a cache put.  A solve is
# put at once; a copy (a < b), an inferred zero or a cell read off its
# diagonal is put once every cell it waits on is settled, and cells that
# become ready together are put in the order they began to wait (001, which
# waits on its diagonal from band 0, before 010, which waits on 100 from
# band 1).  What a budget-cut run keeps depends on this order.
SERIAL_SCHEDULE_N4 = """
s000 000 s002 002 s003 003 s004 004 s100 100 001 010 s102 102 012 s103 103 013 s104 104
014 s110 110 s112 112 s113 113 203 023 s200 200 020 101 011 s202 202 022 s210 210 120
111 s212 212 122 s300 300 030 201 021 s302 302 032 s220 220 s222 222 312 132 402 042
s310 310 130 211 121 s322 322 232 412 142 502 052 s400 400 040 301 031 s320 320 230 221
s410 410 140 311 131 s500 500 050 401 041 s330 330 s420 420 240 321 231 s510 510 150 411
141 s600 600 060 501 051 s430 430 340 520 331 250 610 421 160 700 241 511 070 151 601
061 s440 440 530 350 620 260 710 170 800 080 s431 431 341 521 251 611 161 701 071
""".split()


def test_the_serial_schedule_is_pinned(monkeypatch):
    worker = coinvariants._component_worker
    log = []

    def recording_worker(args):
        log.append("s" + "".join(map(str, args[1])))
        return worker(args)

    def put(comp):
        log.append("".join(map(str, comp.degree)))

    monkeypatch.setattr(coinvariants, "_component_worker", recording_worker)
    frobenius_module(4, component_cache=SimpleNamespace(get=lambda n, d: None, put=put))
    assert log == SERIAL_SCHEDULE_N4


class DeferredPool:
    """Stands in for ForkedWorkers on two cores: a solve runs only inside
    wait, which finishes the one that the test's choose(pending degrees, in
    submission order) names."""

    def __init__(self, monkeypatch, choose):
        self.choose = choose
        self.busy = {}  # degree -> the solve's args, for the solves pending
        self.submits = []  # (degree, the degrees pending when it was submitted)
        monkeypatch.setattr(coinvariants.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(coinvariants, "ForkedWorkers", lambda: self)

    def submit(self, args):
        degree = TriDegree(*args[1])
        self.submits.append((degree, list(self.busy)))
        self.busy[degree] = args

    def wait(self):
        args = self.busy.pop(self.choose(list(self.busy)))
        return [(args, coinvariants._solve(args))]

    def close(self):
        pass


def cache_files(directory):
    """The bytes of every file under directory, by its path there."""
    return {p.relative_to(directory): p.read_bytes()
            for p in Path(directory).rglob("*") if p.is_file()}


def run_with_cache(n, directory, threads=1):
    """frobenius_module(n) on a fresh cache in directory: its components, its
    rows and the bytes of every cache file, by path."""
    result = frobenius_module(n, threads=threads, component_cache=ComponentCache(directory))
    return result.components, result.rows, cache_files(directory)


@cache
def serial_run(n):
    with tempfile.TemporaryDirectory() as directory:
        return run_with_cache(n, directory)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_reports_do_not_depend_on_the_completion_order(tmp_path, monkeypatch, data):
    # the pool takes completions as they come; whichever pending solve
    # finishes first, the components, rows and cache files are the serial ones
    DeferredPool(monkeypatch, lambda pending: data.draw(st.sampled_from(pending)))
    assert run_with_cache(3, tempfile.mkdtemp(dir=tmp_path), threads=2) == serial_run(3)


@pytest.mark.parametrize("choose", [
    lambda pending: pending[0],
    lambda pending: pending[-1],
    lambda pending: min(pending, key=lambda d: component_dimension(4, d)),
], ids=["oldest", "newest", "smallest"])
def test_n4_reports_do_not_depend_on_the_completion_order(tmp_path, monkeypatch, choose):
    DeferredPool(monkeypatch, choose)
    assert run_with_cache(4, tmp_path, threads=2) == serial_run(4)


def test_a_theta_row_runs_ahead_of_a_pending_row(monkeypatch):
    def hold_row_2(pending):
        return next((d for d in pending if d.c != 2), pending[0])

    # row 2's cells finish only when nothing else is pending, so every later
    # band of rows 0 and 3 goes out while row 2's band 0 is still pending (row
    # 1 solves nothing before row 2: its cells are read off diagonals through
    # row 2, or lie in its extra band)
    pool = DeferredPool(monkeypatch, hold_row_2)
    result = frobenius_module(3, threads=2)
    serial = frobenius_module(3)
    assert result.components == serial.components and result.rows == serial.rows
    ahead = [d for d, before in pool.submits if d.c in (0, 3) and d.a + d.b > 0]
    assert TriDegree(1, 0, 0) in ahead and any(d.a + d.b > 1 for d in ahead)
    assert all(TriDegree(0, 0, 2) in before
               for d, before in pool.submits if d.c in (0, 3) and d.a + d.b > 0)


def test_a_freed_worker_is_refilled_before_the_keep(monkeypatch):
    # band 0 queues (0,0,c) for c = 0, 2, 3 ((0,0,1) is read off its
    # diagonal) and two of them start; when (0,0,0) finishes, the worker it
    # frees takes (0,0,3) before (0,0,0) is kept
    # ("s" and a degree abc is a submit, a bare degree a cache put)
    log = []
    pool = DeferredPool(monkeypatch, lambda pending: pending[0])
    submit = pool.submit

    def logged_submit(args):
        log.append("s" + "".join(map(str, args[1])))
        submit(args)

    def put(comp):
        log.append("".join(map(str, comp.degree)))

    pool.submit = logged_submit
    frobenius_module(3, threads=2, component_cache=SimpleNamespace(get=lambda n, d: None, put=put))
    assert log[:5] == ["s000", "s002", "s003", "000", "s100"]


class SimulatedPool:
    """Stands in for ForkedWorkers on two cores under a simulated clock,
    which it patches in as coinvariants.time: a solve of degree d costs
    component_dimension(n, d) ticks from its submit, and wait finishes the
    running solve that ends first (the earlier submitted on a tie) and moves
    the clock to its end."""

    def __init__(self, monkeypatch):
        self.now = 0
        self.busy = {}  # degree -> (end, submission number, args) of the solves running
        self.starts = []  # (degree, cost, tick) of every submit
        monkeypatch.setattr(coinvariants.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(coinvariants, "ForkedWorkers", lambda: self)
        monkeypatch.setattr(coinvariants, "time", SimpleNamespace(monotonic=lambda: self.now))

    def submit(self, args):
        n, d = args[0], TriDegree(*args[1])
        cost = component_dimension(n, d)
        self.busy[d] = (self.now + cost, len(self.starts), args)
        self.starts.append((d, cost, self.now))

    def wait(self):
        d = min(self.busy, key=lambda d: self.busy[d][:2])
        self.now, _, args = self.busy.pop(d)
        return [(args, coinvariants._solve(args))]

    def close(self):
        pass


# The start order of frobenius_module(4, threads=2)'s 32 solves on two
# workers, each solve costing its ambient dimension in ticks, in
# SERIAL_SCHEDULE_N4's notation; the last solve ends at tick 5,337 (7,752
# when the 13 cells read off their diagonals were solved too).
POOL_SCHEDULE_N4 = """
s000 s002 s003 s004 s100 s103 s102 s104 s110 s113 s112 s200 s210 s202 s300 s220 s212
s310 s400 s320 s302 s222 s410 s500 s330 s322 s420 s510 s600 s430 s440 s431
""".split()
MAKESPAN_N4 = 5337


def test_the_two_worker_schedule_is_pinned(monkeypatch):
    pool = SimulatedPool(monkeypatch)
    result = frobenius_module(4, threads=2)
    assert ["s" + "".join(map(str, d)) for d, _, _ in pool.starts] == POOL_SCHEDULE_N4
    assert pool.now == MAKESPAN_N4 and result.closed and len(result.components) == 111


def test_a_budget_stops_the_simulated_pool_within_one_solve(monkeypatch):
    # a deadline a quarter of the way through the run (its last two solves
    # start before half of it): no solve starts after it, every solve started
    # is kept, and the run ends within one solve of it
    pool = SimulatedPool(monkeypatch)
    deadline = MAKESPAN_N4 / 4
    partial = frobenius_module(4, threads=2, budget_seconds=deadline)
    assert not partial.closed and 0 < len(pool.starts) < len(POOL_SCHEDULE_N4)
    assert all(tick <= deadline for _, _, tick in pool.starts)
    assert {d for d, _, _ in pool.starts} <= set(partial.components)
    assert deadline < pool.now <= deadline + max(cost for _, cost, _ in pool.starts)


@cache
def cold_verify(n):
    """verify_conjecture(n) on a fresh cache: its report without the timing
    and the bytes of every cache file, by path."""
    with tempfile.TemporaryDirectory() as directory:
        report = verify_conjecture(n, cache_dir=directory)
        return report.to_json_dict(include_timing=False), cache_files(directory)


@pytest.mark.parametrize("cut", [
    {"max_ab": 1}, {"max_ab": 3}, {"max_ab": 6},
    {"budget_seconds": MAKESPAN_N4 // 8}, {"budget_seconds": MAKESPAN_N4 // 3},
], ids=["max_ab=1", "max_ab=3", "max_ab=6", "deadline/8", "deadline/3"])
def test_a_cut_run_resumes_to_the_cold_result(tmp_path, monkeypatch, cut):
    # a run cut short by max_ab or by a deadline on the simulated two-worker
    # pool leaves what it kept in its cache; a rerun without the cut on that
    # cache ends with the cold run's report and its 111 cache files, byte for byte
    threads = 1
    if "budget_seconds" in cut:
        SimulatedPool(monkeypatch)
        threads = 2
    partial = frobenius_module(4, threads=threads, component_cache=ComponentCache(tmp_path), **cut)
    assert not partial.closed and 0 < len(cache_files(tmp_path)) < 111
    report = verify_conjecture(4, cache_dir=tmp_path)
    report, files = report.to_json_dict(include_timing=False), cache_files(tmp_path)
    assert len(files) == 111 and (report, files) == cold_verify(4)


def test_the_pool_submits_nothing_after_the_deadline(monkeypatch):
    # the pool-path twin of test_budget_keeps_the_row_in_progress: (1,0,0)
    # finishes as the clock passes the deadline; its mirror (0,1,0) is copied,
    # which puts row 0's band 1 in hand, and (0,0,1) is read off its diagonal
    # at no cost, but the row's band 2 is not submitted; (1,0,2), running on
    # the other worker, is finished and kept, with its mirror
    now = [0.0]
    cut = []
    monkeypatch.setattr(coinvariants, "time", SimpleNamespace(monotonic=lambda: now[0]))

    def first_until_the_deadline(pending):
        if pending[0] == TriDegree(1, 0, 0):
            now[0] = 11
            cut.append(len(pool.submits))
        return pending[0]

    pool = DeferredPool(monkeypatch, first_until_the_deadline)
    partial = frobenius_module(3, threads=2, budget_seconds=10)
    assert cut == [len(pool.submits)]  # no submit after (1,0,0) finished
    band_0 = {TriDegree(0, 0, c) for c in range(4)}
    band_1 = {TriDegree(*d) for d in ((1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 1, 2))}
    assert set(partial.components) == band_0 | band_1
    source, copy = (partial.components[TriDegree(*d)] for d in ((1, 0, 0), (0, 1, 0)))
    assert (copy.dim, copy.mult) == (source.dim, source.mult) and copy.dim_quotient == 2
    assert not partial.closed and partial.rows == {c: False for c in range(4)}


def test_the_serial_run_solves_nothing_after_the_deadline(monkeypatch):
    # the serial twin of the test above: the clock passes the deadline as
    # (1,0,0) finishes, so no component is solved after it, not even the rest
    # of band 1, and its mirror (0,1,0) is still copied and (0,0,1), waiting
    # on its diagonal since band 0, still read off it
    now = [0.0]
    worker = coinvariants._component_worker
    seen = []

    def recording_worker(args):
        seen.append(TriDegree(*args[1]))
        comp = worker(args)
        if seen[-1] == TriDegree(1, 0, 0):
            now[0] = 11
        return comp

    monkeypatch.setattr(coinvariants, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(coinvariants, "_component_worker", recording_worker)
    partial = frobenius_module(3, budget_seconds=10)
    band_0 = {TriDegree(0, 0, c) for c in range(4)}
    read = TriDegree(0, 0, 1)
    assert seen[-1] == TriDegree(1, 0, 0) and set(seen) == band_0 - {read} | {TriDegree(1, 0, 0)}
    assert set(partial.components) == band_0 | {TriDegree(1, 0, 0), TriDegree(0, 1, 0)}
    source, copy = (partial.components[TriDegree(*d)] for d in ((1, 0, 0), (0, 1, 0)))
    assert (copy.dim, copy.mult) == (source.dim, source.mult) and copy.dim_quotient == 2
    assert not partial.closed and partial.rows == {c: False for c in range(4)}


@pytest.mark.parametrize("threads", [1, 2])
def test_an_outer_cell_queued_by_a_cache_hit_is_solved_once(tmp_path, monkeypatch, threads):
    # the cache holds all of n = 3 but (2,0,0), whose inner neighbour (1,1,0)
    # is a nonzero hit: (2,0,0) is queued as the hit is read, so its band has
    # no other solve, and it must wait for (2,0,0) before it finishes
    cold = verify_conjecture(3, cache_dir=tmp_path).to_json_dict(include_timing=False)
    cache = ComponentCache(tmp_path)
    assert cache.get(3, TriDegree(1, 1, 0)).dim_quotient > 0
    path = cache.entry_path(3, TriDegree(2, 0, 0))
    entry = path.read_bytes()
    path.unlink()
    worker = coinvariants._component_worker
    seen = []

    def recording_worker(args):
        seen.append(TriDegree(*args[1]))
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", recording_worker)
    if threads > 1:
        DeferredPool(monkeypatch, lambda pending: pending[0])
    warm = verify_conjecture(3, threads=threads, cache_dir=tmp_path)
    assert seen == [TriDegree(2, 0, 0)]
    assert warm.to_json_dict(include_timing=False) == cold
    assert path.read_bytes() == entry


@pytest.mark.parametrize("threads", [1, 2])
def test_an_outer_cell_is_not_solved_after_the_deadline(monkeypatch, threads):
    # (2,0,0) waits on its inner neighbour (1,1,0), which is nonzero and
    # finishes as the clock passes the deadline: (2,0,0) is queued but never
    # started, so neither it nor its mirror (0,2,0) is kept, and row 0 is open;
    # on the pool the solve running beside (1,1,0) still finishes
    now = [0.0]
    worker = coinvariants._component_worker
    seen, cut = [], []

    def recording_worker(args):
        seen.append(TriDegree(*args[1]))
        comp = worker(args)
        if seen[-1] == TriDegree(1, 1, 0):
            now[0] = 11
            cut.append(len(pool.submits) if pool else None)
        return comp

    monkeypatch.setattr(coinvariants, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(coinvariants, "_component_worker", recording_worker)
    pool = None
    if threads > 1:
        pool = DeferredPool(monkeypatch, lambda pending: pending[0])
    partial = frobenius_module(3, threads=threads, budget_seconds=10)
    assert partial.components[TriDegree(1, 1, 0)].dim_quotient > 0
    assert TriDegree(2, 0, 0) not in seen
    assert not {TriDegree(2, 0, 0), TriDegree(0, 2, 0)} & set(partial.components)
    if pool:
        assert cut == [len(pool.submits)]  # no submit after (1,1,0) finished
        assert TriDegree(2, 0, 0) not in [d for d, _ in pool.submits]
    else:
        assert seen[-1] == TriDegree(1, 1, 0)
    assert not partial.closed and partial.rows[0] is False


@pytest.mark.parametrize("failure, error, message", [
    ("exit", RuntimeError, r"^the worker solving \(1, 0, 0\) died with exit status 7$"),
    ("raise", RuntimeError, r"^the solve at \(1, 0, 0\) raised KeyError: 'planted'$"),
    ("inconsistent", ConsistencyError,
     r"^planted; solved within the bounds set by the cells \(0, 0, 0\), so one"),
], ids=["exit", "raise", "inconsistent"])
def test_a_failing_worker_fails_the_run_and_leaves_no_process(monkeypatch, failure, error,
                                                               message):
    # (1,0,0) fails in a forked worker: it exits, raises an error of its own,
    # or fails a check within the support its lower neighbour (0,0,0) set; the
    # run raises at once, naming the degree, and every worker is reaped
    parent = os.getpid()
    worker = coinvariants._component_worker

    def failing_worker(args):
        if tuple(args[1]) != (1, 0, 0) or os.getpid() == parent:
            return worker(args)
        if failure == "exit":
            os._exit(7)
        raise KeyError("planted") if failure == "raise" else ConsistencyError("planted")

    monkeypatch.setattr(coinvariants, "_component_worker", failing_worker)
    monkeypatch.setattr(coinvariants.os, "cpu_count", lambda: 2)
    start = time.monotonic()
    with pytest.raises(error, match=message):
        frobenius_module(3, threads=2)
    assert time.monotonic() - start < 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_died_idle_fails_the_next_submit_and_is_reaped():
    # two workers each finish a solve, then one is killed while idle: the next
    # solve it is given raises the error of a worker that died busy, naming
    # the degree and the signal, and close reaps both workers
    import signal

    pool = coinvariants.ForkedWorkers()
    for d in ((0, 0, 0), (1, 0, 0)):
        pool.submit((3, TriDegree(*d), None))
    while pool.busy:
        pool.wait()
    pids = [w.pid for w in pool.workers]
    assert len(pids) == 2
    os.kill(pids[0], signal.SIGKILL)
    # wait for the kill to land, leaving the worker unreaped, so that its task
    # pipe has no reader when the task is written
    os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)
    died = r"^the worker solving \(0, 0, 2\) died with exit status -9$"
    with pytest.raises(RuntimeError, match=died):
        pool.submit((3, TriDegree(0, 0, 2), None))
    pool.close()
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, 0)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("degree, planted, error, message", [
    ((1, 0, 0), KeyError("planted"), RuntimeError,
     r"^the solve at \(1, 0, 0\) raised KeyError: 'planted'$"),
    ((1, 0, 0), ConsistencyError("planted"), ConsistencyError,
     r"^planted; solved within the bounds set by the cells \(0, 0, 0\), so one"),
    ((0, 0, 0), ConsistencyError("planted"), ConsistencyError, r"^planted$"),
], ids=["raise", "inconsistent", "unbounded"])
def test_a_failing_solve_raises_the_same_error_at_every_thread_count(
        monkeypatch, threads, degree, planted, error, message):
    # the serial run and the pool read one reply form: an error of the
    # solve's own names its degree, and a failed check names the cells that
    # bounded the solve, or nothing for (0,0,0), which no cell bounds
    worker = coinvariants._component_worker

    def failing_worker(args):
        if tuple(args[1]) == degree:
            raise planted
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", failing_worker)
    monkeypatch.setattr(coinvariants.os, "cpu_count", lambda: 2)
    with pytest.raises(error, match=message):
        frobenius_module(3, threads=threads)


def test_threads_need_fork(monkeypatch):
    # the workers are forked, so more than one thread needs os.fork
    monkeypatch.delattr(coinvariants.os, "fork")
    with pytest.raises(ValueError, match="os.fork"):
        frobenius_module(2, threads=2)
    assert frobenius_module(2, threads=1).closed


def test_budget_pool_path_stops_early():
    # the pool starts no solve after the deadline and finishes those it
    # started; the whole of n = 4 takes about 0.14 s on two cores, and by
    # 0.1 s it may have started its last solve, so 0.02 s cuts it
    start = time.monotonic()
    partial = frobenius_module(4, threads=2, budget_seconds=0.02)
    assert not partial.closed
    assert time.monotonic() - start < 0.02 + 2.0  # the slowest n = 4 component is under 0.1 s


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
    # theta row closed; n = 5 takes minutes, so the budget always cuts it
    cache = RecordingCache()
    partial = frobenius_module(5, threads=2, budget_seconds=1.0, component_cache=cache)
    assert not partial.closed and cache.puts
    assert sorted(partial.components) == sorted(cache.puts)


def shifted_components(monkeypatch, shifts):
    """Every component computed from now on gains m at its (degree, lam) in shifts."""
    honest = component_characters

    def shifted(n, d, support=None):
        comp = honest(n, d, support)
        for (degree, lam), m in shifts.items():
            if d == degree:
                comp.mult[lam] += m
        return comp

    monkeypatch.setattr(coinvariants, "component_characters", shifted)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_rows_have_the_gl2_shape(n):
    # and the fermionic diagonals' relations, on 0, 1, 8 and 46 pairs of a
    # diagonal and a lam with a nonzero multiplicity
    result = frobenius_module(n)
    assert result.closed
    check_gl2_shape(result)
    assert check_diagonals(result) == {1: 0, 2: 1, 3: 8, 4: 46}[n]


def test_one_shifted_multiplicity_breaks_the_gl2_shape(tmp_path):
    # s_(3) at (0,1,0), n = 3, read from the cache: its mirror (1,0,0) keeps 0
    # (a computed a < b cell is taken from its mirror, so only the cache can
    # bring the asymmetry in)
    cache = ComponentCache(tmp_path)
    wrong = component_characters(3, TriDegree(0, 1, 0))
    wrong.mult[(3,)] += 1
    cache.put(wrong)
    assert cache.get(3, TriDegree(0, 1, 0)) == wrong  # a valid entry, so it is read
    result = frobenius_module(3, component_cache=cache)
    assert result.rows[0]  # the frontier law alone does not see it
    with pytest.raises(ConsistencyError, match=r"GL_2 shape at \(1, 0, 0\), s_\(3,\)"):
        check_gl2_shape(result)
    # the CLI's module side runs the check
    assert main(["hilbert", "--n", "3", "--cache-dir", str(tmp_path)]) == 4


def true_cell(directory, n, d):
    """A component cache in directory that holds the true component at d."""
    cache = ComponentCache(directory)
    cache.put(component_characters(n, TriDegree(*d)))
    return cache


def test_a_symmetric_shift_that_breaks_unimodality_is_caught(tmp_path, monkeypatch):
    # s_(2,1) is 1 at (2,0,0), (1,1,0) and (0,2,0); the shift at (2,0,0) reaches
    # (0,2,0) through the mirror, and 2, 1, 2 is symmetric, not unimodal.  The
    # cache holds the true (1,0,1), which is otherwise read off the diagonal of
    # (2,0,0) and breaks its bound first (test_a_cell_read_off_a_shifted_diagonal_names_it)
    shifted_components(monkeypatch, {((2, 0, 0), (2, 1)): 1})
    with pytest.raises(ConsistencyError, match=r"GL_2 shape at \(1, 1, 0\)"):
        check_gl2_shape(frobenius_module(3, component_cache=true_cell(tmp_path, 3, (1, 0, 1))))


def test_open_rows_are_not_shape_checked(tmp_path):
    # cells beyond a row that did not close may be nonzero, so they cannot count
    # as 0; a wrong cached (0,1,0) breaks the symmetry with (1,0,0) in open row 0
    cache = ComponentCache(tmp_path)
    wrong = component_characters(3, TriDegree(0, 1, 0))
    wrong.mult[(3,)] += 1
    cache.put(wrong)
    result = frobenius_module(3, max_ab=1, component_cache=cache)
    assert not result.rows[0] and result.components[TriDegree(0, 1, 0)] == wrong
    check_gl2_shape(result)


def test_a_shape_violation_on_both_sides_is_an_error(tmp_path, monkeypatch):
    # a violation on the module side alone is a difference (DIFFER); one that
    # the delta side shares cannot be compared away
    import superdelta.verifier as verifier

    honest_rhs = verifier.rhs_series

    def shifted_rhs(n):
        series = honest_rhs(n)
        series.set_coefficient((2, 1), series.coefficient((2, 1)) + Q * Q + T * T)
        return series

    # s_(2,1) is 1 at (2,0,0), (1,1,0) and (0,2,0); 2, 1, 2 on both sides is
    # symmetric, not unimodal; (0,2,0) is mirrored from the shifted (2,0,0),
    # and (1,0,1) is read from the cache, not off the shifted diagonal
    shifted_components(monkeypatch, {((2, 0, 0), (2, 1)): 1})
    monkeypatch.setattr(verifier, "rhs_series", shifted_rhs)
    true_cell(tmp_path, 3, (1, 0, 1))
    with pytest.raises(ConsistencyError, match=r"GL_2 shape at \(1, 1, 0\), s_\(2, 1\)"):
        verify_conjecture(3, cache_dir=tmp_path)


def static_wait_graph(n):
    """Every cell of total degree <= n(n - 1) + 2 -> the cells it may wait on:
    a copy (a < b) on its mirror, an outer cell (a - b >= 2) on its inner
    neighbour, a designated cell on every other cell of its diagonal."""
    graph = {}
    for total in range(n * (n - 1) + 3):
        for c in range(min(total, n) + 1):
            for a in range(total - c + 1):
                d = TriDegree(a, total - c - a, c)
                waits = [(d.b, a, c)] if a < d.b else [(a - 1, d.b + 1, c)] if a - d.b >= 2 else []
                if d in designated_cells(n):
                    k = a + c
                    waits += [(k - j, d.b, j) for j in range(min(k, n) + 1) if j != c]
                graph[d] = [TriDegree(*p) for p in waits]
    return graph


@pytest.mark.parametrize("n", range(1, 8))
def test_the_static_wait_graph_is_acyclic(n):
    # at most one designated a >= b cell per diagonal (k = a + c >= 1), every
    # wait joins cells of one total degree, and peeling off the cells that
    # wait on nothing left empties the graph: it has no cycle
    designated = designated_cells(n)
    graph = static_wait_graph(n)
    diagonals = [(d.b, d.a + d.c) for d in designated]
    assert designated <= set(graph) and all(d.a >= d.b and d.a + d.c for d in designated)
    assert len(set(diagonals)) == len(diagonals)
    assert all(sum(p) == sum(d) for d, waits in graph.items() for p in waits)
    left = {d: set(waits) for d, waits in graph.items()}
    while free := [d for d, waits in left.items() if not waits]:
        for d in free:
            del left[d]
        for waits in left.values():
            waits.difference_update(free)
    assert not left


def cells_of(text):
    """Degrees written abc, or a,b,c when a part has two digits."""
    return {TriDegree(*(map(int, tok.split(",")) if "," in tok else map(int, tok)))
            for tok in text.split()}


DESIGNATED = {
    3: cells_of("""
001 101 111 201 211 221 301 311 321 331 401 411 421 431 501 511 521 601 611 701
"""),
    4: cells_of("""
001 101 111 201 211 221 301 311 321 331 401 411 421 431 441 501 502 511 512 521 522
531 532 541 551 552 602 612 622 632 641 642 652 662 702 712 722 732 742 752 802 812
822 832 842 902 912 922 932 10,0,2 10,1,2 10,2,2 11,0,2 11,1,2 12,0,2
"""),
    5: cells_of("""
001 101 111 201 211 221 301 302 311 312 321 331 332 402 412 421 422 432 442 502 512
522 532 542 552 602 612 622 632 642 652 662 702 712 722 732 742 752 762 772 802 812
822 832 842 852 862 872 882 902 912 922 932 942 952 962 972 982 992 10,0,2 10,1,2
10,2,2 10,3,2 10,4,2 10,5,2 10,6,2 10,7,2 10,8,2 10,9,2 10,10,2 11,0,2 11,1,2 11,2,2
11,3,2 11,4,2 11,5,2 11,6,2 11,7,2 11,8,2 11,9,2 12,0,2 12,1,2 12,2,2 12,3,2 12,4,2
12,5,2 12,6,2 12,7,2 12,8,2 13,0,2 13,1,2 13,2,2 13,3,2 13,4,2 13,5,2 13,6,2 13,7,2
14,0,2 14,1,2 14,2,2 14,3,2 14,4,2 14,5,2 14,6,2 15,0,2 15,1,2 15,2,2 15,3,2 15,4,2
15,5,2 16,0,2 16,1,2 16,2,2 16,3,2 16,4,2 17,0,2 17,1,2 17,2,2 17,3,2 18,0,2 18,1,2
18,2,2 19,0,2 19,1,2 20,0,2
"""),
}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_designated_cells_are_pinned(n):
    # a pure function of n, so which cells are read off never depends on timing
    assert designated_cells(n) == DESIGNATED[n]
    assert len(DESIGNATED[n]) == {3: 20, 4: 55, 5: 125}[n]


def test_the_dearest_n6_cells_are_designated():
    # the three dearest n = 6 solves measured so far that a diagonal can give
    assert {(4, 4, 2), (4, 3, 2), (5, 2, 2)} <= designated_cells(6)


def delta_side_worker(n):
    """A _component_worker that reads each solve off rhs_series(n)."""
    rhs = rhs_series(n)

    def solve(args):
        _, d, _ = args
        return ComponentCharacters(n, TriDegree(*d), {
            lam: rhs.coefficient(lam).terms.get(tuple(d), 0) for lam in partitions_of(n)})

    return solve


@pytest.mark.parametrize("pool", ["threads=1", "threads=2", "simulated"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_run_closes_with_no_cell_waiting(monkeypatch, n, pool):
    # the static wait graph is acyclic, so however the solves finish, every
    # row closes: no cell is left waiting on its source or its diagonal, and
    # the result is the delta side.  n = 5's solves are read off the delta
    # side, so its whole plan runs in under a second
    if n == 5:
        monkeypatch.setattr(coinvariants, "_component_worker", delta_side_worker(5))
    monkeypatch.setattr(coinvariants.os, "cpu_count", lambda: 2)
    if pool == "simulated":
        SimulatedPool(monkeypatch)
    result = frobenius_module(n, threads=1 if pool == "threads=1" else 2)
    assert result.closed and result.series == rhs_series(n)


@pytest.mark.parametrize("n, pool", [(n, pool) for n in (1, 2, 3, 4)
                                     for pool in ("threads=1", "simulated")] + [(5, "threads=1")])
def test_plan_waits_only_along_the_static_wait_graph(monkeypatch, n, pool):
    # every wait Plan makes is an edge of static_wait_graph(n), so that
    # graph's acyclicity covers the waits Plan really makes.  A wait is
    # recorded where it ends: Plan.derive takes a cell with the cells it
    # waited on, all settled, and Plan.infer reads a cell off its diagonal.
    # Each run closes, so every wait it made has ended (a snapshot around
    # Plan.advance could miss one made and ended within one call), and none is
    # left waiting or queued
    waits, read, plans = [], [], []  # (cell, the cells it waited on); cells read off
    derive, infer = Plan.derive, Plan.infer

    def recorded_derive(self, d, cells):
        plans.append(self)
        waits.append((d, list(cells)))
        derive(self, d, cells)

    def recorded_infer(self, d):
        read.append(d)
        infer(self, d)

    monkeypatch.setattr(Plan, "derive", recorded_derive)
    monkeypatch.setattr(Plan, "infer", recorded_infer)
    if n == 5:
        monkeypatch.setattr(coinvariants, "_component_worker", delta_side_worker(5))
    if pool == "simulated":
        SimulatedPool(monkeypatch)
    assert frobenius_module(n, threads=1 if pool == "threads=1" else 2).closed
    graph = static_wait_graph(n)
    assert [(d, cells) for d, cells in waits if not set(cells) <= set(graph[d])] == []
    # (waits, waits on a diagonal, cells read off): a designated outer cell
    # whose inner neighbour is zero waits on its diagonal too, and is kept as
    # a zero (2 at n = 4)
    crossed = [d for d, cells in waits if any(p.c != d.c for p in cells)]
    counts = {1: (5, 1, 1), 2: (12, 2, 2), 3: (33, 6, 5), 4: (90, 15, 13), 5: (224, 29, 25)}
    assert (len(waits), len(crossed), len(read)) == counts[n]
    plan, = set(plans)
    assert not plan.waiting and not plan.queued


def test_a_cell_read_off_a_shifted_diagonal_names_it(monkeypatch):
    # the symmetric shift of test_a_symmetric_shift_that_breaks_unimodality_is_caught
    # reaches (1,0,1), read off the diagonal (2,0,0) - (1,0,1) + (0,0,2) = 0,
    # whose unit of s_(2,1) its lower neighbours bound by 1: the error names
    # the diagonal's cells, then the cells below it and those that shaped them
    shifted_components(monkeypatch, {((2, 0, 0), (2, 1)): 1})
    with pytest.raises(ConsistencyError, match=r"^at \(1, 0, 1\), read off its fermionic "
                       r"diagonal, s_\(2, 1\): m = 2 at \(1, 0, 1\), above its bound 1; "
                       r"inferred from the cells \(0, 0, 2\), \(2, 0, 0\), \(0, 0, 1\), "
                       r"\(1, 0, 0\), .* so one of them may be wrong$"):
        frobenius_module(3)


def test_a_moved_multiplicity_breaks_its_diagonal(tmp_path):
    # one unit of s_(2,1) moved along the diagonal b = 0, a + c = 2 of n = 3,
    # from (1,0,1) and its mirror (0,1,1) to (0,0,2): the GL_2 shape holds,
    # but 1 - 0 + 1 is no alternating sum of 0
    result = frobenius_module(3)
    for d, m in (((1, 0, 1), -1), ((0, 1, 1), -1), ((0, 0, 2), 1)):
        result.components[TriDegree(*d)].mult[(2, 1)] += m
    check_gl2_shape(result)
    with pytest.raises(ConsistencyError, match=r"^fermionic diagonal b=0, a\+c=2, s_\(2, 1\): "):
        check_diagonals(result)
    # read from the cache, which holds every cell, the CLI's module side runs the check
    cache = ComponentCache(tmp_path)
    for comp in result.components.values():
        cache.put(comp)
    assert main(["hilbert", "--n", "3", "--cache-dir", str(tmp_path)]) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_delta_side_has_the_diagonal_relations(n):
    # the relations hold on rhs_series(n) as well, read as a closed module
    # side: 622 pairs of a diagonal and a lam with a nonzero multiplicity at n = 6
    rhs = rhs_series(n)
    degrees = {TriDegree(*d) for lam in partitions_of(n) for d in rhs.coefficient(lam).terms}
    components = {d: ComponentCharacters(n, d, {
        lam: rhs.coefficient(lam).terms.get(tuple(d), 0) for lam in partitions_of(n)})
        for d in degrees}
    result = ModuleSideResult(n, rhs, components, dict.fromkeys(range(n + 1), True))
    assert check_diagonals(result) == {2: 1, 3: 8, 4: 46, 5: 176, 6: 622}[n]
