import os
import time
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest

import superdelta.coinvariants as coinvariants
from superdelta.cli import main
from superdelta.coinvariants import (
    ComponentCharacters,
    _modp_is_full_rank,
    assemble_series,
    check_gl2_shape,
    component_characters,
    frobenius_module,
    ideal_component,
    spanning_vectors,
)
from superdelta.linalg import ConsistencyError, Echelon
from superdelta.partitions import cycle_type
from superdelta.qtz import ONE, Q, T, Z
from superdelta.superring import TriDegree, apply_perm_mono, enumerate_monomials
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


def test_theta_rows_are_explored_band_by_band(monkeypatch):
    worker = coinvariants._component_worker
    seen = []

    def recording_worker(args):
        seen.append(TriDegree(*args[1]))
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", recording_worker)
    result = frobenius_module(3)
    assert result.closed and list(result.rows) == [0, 1, 2, 3]
    # every a < b cell is mirrored and every a - b >= 2 cell beyond a zero is
    # inferred, so the worker sees each other a >= b cell once
    mirrored = [d for d in result.components if d.a < d.b]
    skipped = inferred(result.components)
    assert skipped and all(result.components[d].dim_quotient == 0 for d in skipped)
    assert sorted(seen) == sorted(d for d in result.components
                                  if d.a >= d.b and d not in skipped)
    assert len(seen) + len(mirrored) + len(skipped) == len(result.components)
    bands = [d.a + d.b for d in seen]
    assert bands == sorted(bands)  # a + b never falls back for the next theta row


class InlineWorkers:
    """Stands in for ForkedWorkers: runs each solve in this process as it is
    submitted, and records the most solves running at once."""

    peaks = []

    def __init__(self):
        self.done = []
        self.peaks.append(0)

    def submit(self, args):
        self.done.append((args, coinvariants._solve(args)))
        self.peaks[-1] = max(self.peaks[-1], len(self.done))

    def wait(self):
        done, self.done = self.done, []
        return done

    def close(self):
        pass


@pytest.mark.parametrize("cores, threads, workers", [(2, 100_000, 2), (None, 8, 1), (4, 3, 3)])
def test_pool_size_is_bounded_by_the_cores(monkeypatch, cores, threads, workers):
    monkeypatch.setattr(coinvariants, "ForkedWorkers", InlineWorkers)
    monkeypatch.setattr(coinvariants.os, "cpu_count", lambda: cores)
    InlineWorkers.peaks = []
    report = verify_conjecture(2, threads=threads)
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
    # 111 components: 45 solved, 48 a < b mirrors and 18 zeros inferred from
    # their inner neighbours
    mirrored = [d for d in result.components if d.a < d.b]
    skipped = inferred(result.components)
    assert (len(serial), len(mirrored), len(skipped)) == (45, 48, 18)
    assert len(serial) + len(mirrored) + len(skipped) == len(result.components) == 111
    assert not set(serial) & (set(mirrored) | skipped) and sorted(seen) == serial


# The serial schedule of frobenius_module(4) with a cache that never hits:
# "s" and a degree abc is a solve, a bare degree a cache put.  A solve is
# put at once; a copy (a < b) or an inferred zero is put when its source is
# in hand.  What a budget-cut run keeps depends on this order.
SERIAL_SCHEDULE_N4 = """
s000 000 s001 001 s002 002 s003 003 s004 004 s100 100 010 s101 101 011 s102 102 012
s103 103 013 s104 104 014 s110 110 s111 111 s112 112 s113 113 203 023 s200 200 020
s201 201 021 s202 202 022 s210 210 120 s211 211 121 s212 212 122 s300 300 030 s301
301 031 s302 302 032 s220 220 s221 221 s222 222 312 132 402 042 s310 310 130 s311
311 131 s322 322 232 412 142 502 052 s400 400 040 s401 401 041 s320 320 230 s321 321
231 s410 410 140 s411 411 141 s500 500 050 s501 501 051 s330 330 s331 331 421 241
511 151 601 061 s420 420 240 s431 431 341 521 251 611 161 701 071 s510 510 150 s600
600 060 s430 430 340 520 250 610 160 700 070 s440 440 530 350 620 260 710 170 800
080
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
        self.pending = {}  # degree -> the solve's args
        self.submits = []  # (degree, the degrees pending when it was submitted)
        monkeypatch.setattr(coinvariants.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(coinvariants, "ForkedWorkers", lambda: self)

    def submit(self, args):
        degree = TriDegree(*args[1])
        self.submits.append((degree, list(self.pending)))
        self.pending[degree] = args

    def wait(self):
        args = self.pending.pop(self.choose(list(self.pending)))
        return [(args, coinvariants._solve(args))]

    def close(self):
        pass


def test_a_theta_row_runs_ahead_of_a_pending_row(monkeypatch):
    # row 1's cells finish only when nothing else is pending, so every later
    # band of the other rows goes out while row 1's band 0 is still pending
    def hold_row_1(pending):
        return next((d for d in pending if d.c != 1), pending[0])

    pool = DeferredPool(monkeypatch, hold_row_1)
    result = frobenius_module(3, threads=2)
    serial = frobenius_module(3)
    assert result.components == serial.components and result.rows == serial.rows
    ahead = [d for d, before in pool.submits if d.c != 1 and d.a + d.b > 0]
    assert TriDegree(1, 0, 0) in ahead and any(d.a + d.b > 1 for d in ahead)
    assert all(TriDegree(0, 0, 1) in before
               for d, before in pool.submits if d.c != 1 and d.a + d.b > 0)


def test_a_freed_worker_is_refilled_before_the_keep(monkeypatch):
    # band 0 queues (0,0,c) for c = 0..3 and two of them start; when (0,0,0)
    # finishes, the worker it frees takes (0,0,2) before (0,0,0) is kept
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
    assert log[:5] == ["s000", "s001", "s002", "000", "s003"]


def test_the_pool_submits_nothing_after_the_deadline(monkeypatch):
    # the pool-path twin of test_budget_keeps_the_row_in_progress: (1,0,0)
    # finishes as the clock passes the deadline; its mirror (0,1,0) is copied,
    # which puts row 0's band 1 in hand, but the row's band 2 is not submitted;
    # (1,0,1), running on the other worker, is finished and kept, with its mirror
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
    band_1 = {TriDegree(*d) for d in ((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1))}
    assert set(partial.components) == band_0 | band_1
    source, copy = (partial.components[TriDegree(*d)] for d in ((1, 0, 0), (0, 1, 0)))
    assert (copy.dim, copy.mult) == (source.dim, source.mult) and copy.dim_quotient == 2
    assert not partial.closed and partial.rows == {c: False for c in range(4)}


def test_the_serial_run_solves_nothing_after_the_deadline(monkeypatch):
    # the serial twin of the test above: the clock passes the deadline as
    # (1,0,0) finishes, so no component is solved after it, not even the rest
    # of band 1, and its mirror (0,1,0) is still copied
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
    assert seen[-1] == TriDegree(1, 0, 0) and set(seen) == band_0 | {TriDegree(1, 0, 0)}
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
    result = frobenius_module(n)
    assert result.closed
    check_gl2_shape(result)


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
    with pytest.raises(ConsistencyError, match=r"GL_2 shape at \(1,0,0\), s_\(3,\)"):
        check_gl2_shape(result)
    # the CLI's module side runs the check
    assert main(["hilbert", "--n", "3", "--cache-dir", str(tmp_path)]) == 4


def test_a_symmetric_shift_that_breaks_unimodality_is_caught(monkeypatch):
    # s_(2,1) is 1 at (2,0,0), (1,1,0) and (0,2,0); the shift at (2,0,0) reaches
    # (0,2,0) through the mirror, and 2, 1, 2 is symmetric, not unimodal
    shifted_components(monkeypatch, {((2, 0, 0), (2, 1)): 1})
    with pytest.raises(ConsistencyError, match=r"GL_2 shape at \(1,1,0\)"):
        check_gl2_shape(frobenius_module(3))


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


def test_a_shape_violation_on_both_sides_is_an_error(monkeypatch):
    # a violation on the module side alone is a difference (DIFFER); one that
    # the delta side shares cannot be compared away
    import superdelta.verifier as verifier

    honest_rhs = verifier.rhs_series

    def shifted_rhs(n):
        series = honest_rhs(n)
        series.set_coefficient((2, 1), series.coefficient((2, 1)) + Q * Q + T * T)
        return series

    # s_(2,1) is 1 at (2,0,0), (1,1,0) and (0,2,0); 2, 1, 2 on both sides is
    # symmetric, not unimodal; (0,2,0) is mirrored from the shifted (2,0,0)
    shifted_components(monkeypatch, {((2, 0, 0), (2, 1)): 1})
    monkeypatch.setattr(verifier, "rhs_series", shifted_rhs)
    with pytest.raises(ConsistencyError, match=r"GL_2 shape at \(1,1,0\), s_\(2, 1\)"):
        verify_conjecture(3)
