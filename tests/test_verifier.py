import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import superdelta
import superdelta.coinvariants as coinvariants
from superdelta.cli import build_parser, main as cli_main
from superdelta.coinvariants import (
    ComponentCharacters,
    component_characters,
    designated_cells,
    frobenius_module,
    support_bound,
)
from superdelta.linalg import ConsistencyError
from superdelta.macdonald import HTILDE_SIZE_LIMIT
from superdelta.qtz import ONE, Q, T, Z
from superdelta.series import FrobeniusSeries
from superdelta.superring import TriDegree
from superdelta.verifier import (
    CACHE_SCHEMA_VERSION,
    ENGINE_VERSION,
    DIFFER,
    EQUAL,
    INCONCLUSIVE,
    ComponentCache,
    compare_series,
    render_report,
    verify_conjecture,
)


def sample_entry():
    """The cache entry of n = 2, degree (0, 0, 1), as a JSON dict."""
    return {
        "schema_version": CACHE_SCHEMA_VERSION,
        "engine_version": ENGINE_VERSION,
        "n": 2,
        "degree": [0, 0, 1],
        "dim": 1,
        "multiplicities": {"2": 0, "1,1": 1},  # the sign representation
    }


# the exact bytes a cache with schema 2 and engine 0.2.0 holds for sample_entry()
SAMPLE_ENTRY_TEXT = """{
 "degree": [
  0,
  0,
  1
 ],
 "dim": 1,
 "engine_version": "0.2.0",
 "multiplicities": {
  "1,1": 1,
  "2": 0
 },
 "n": 2,
 "schema_version": 2
}"""

SAMPLE_DEGREE = TriDegree(0, 0, 1)


def write_entry(cache, entry):
    """Write entry as the file of n = 2, degree (0, 0, 1), whatever it holds."""
    path = cache.entry_path(2, SAMPLE_DEGREE)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entry, sort_keys=True, indent=1))


def read_entry(cache):
    return json.loads(cache.entry_path(2, SAMPLE_DEGREE).read_text())


def test_cache_roundtrip(tmp_path):
    cache = ComponentCache(tmp_path)
    write_entry(cache, sample_entry())
    comp = cache.get(2, SAMPLE_DEGREE)
    assert comp == ComponentCharacters(2, SAMPLE_DEGREE, {(2,): 0, (1, 1): 1}) and comp.dim == 2
    other = ComponentCache(tmp_path / "other")
    other.put(comp)
    assert read_entry(other) == sample_entry()
    path = other.entry_path(2, SAMPLE_DEGREE)
    assert not list(path.parent.glob("*.tmp"))


def test_cache_file_format_is_pinned(tmp_path):
    cache = ComponentCache(tmp_path)
    path = cache.entry_path(2, SAMPLE_DEGREE)
    path.parent.mkdir(parents=True)
    path.write_text(SAMPLE_ENTRY_TEXT, encoding="utf-8")
    comp = cache.get(2, SAMPLE_DEGREE)
    assert comp is not None and comp.mult == {(2,): 0, (1, 1): 1}
    path.unlink()
    cache.put(comp)
    assert path.read_bytes() == SAMPLE_ENTRY_TEXT.encode("utf-8")


def test_cache_corruption_is_a_miss(tmp_path):
    cache = ComponentCache(tmp_path)
    write_entry(cache, sample_entry())
    cache.entry_path(2, SAMPLE_DEGREE).write_text("{not json")
    assert cache.get(2, SAMPLE_DEGREE) is None


def test_cache_version_bump_ignored(tmp_path):
    cache = ComponentCache(tmp_path)
    for key, value in [("engine_version", "0.0.0-old"),
                       ("schema_version", CACHE_SCHEMA_VERSION + 1),
                       ("schema_version", float(CACHE_SCHEMA_VERSION))]:
        entry = sample_entry()
        entry[key] = value
        write_entry(cache, entry)
        assert cache.get(2, SAMPLE_DEGREE) is None, (key, value)


def tampered_entries():
    """Entries that no genuine module has, each with a valid schema and version."""

    def edited(**fields):
        entry = sample_entry()
        entry.update(fields)
        return entry

    return [
        edited(dim=2),  # the multiplicities say 1
        edited(multiplicities={"2": 0.5, "1,1": 0.5}),  # multiplicities 1/2 and 1/2
        edited(dim=-1, multiplicities={"2": -1, "1,1": 0}),  # minus the trivial rep
        edited(multiplicities={"2": -1, "1,1": 2}),  # dimension 1, but not a module
        # 2 s_2 + s_11, but R_(0,0,1) has dim 2
        edited(dim=3, multiplicities={"2": 2, "1,1": 1}),
        edited(multiplicities={"1,1": 1}),  # no multiplicity of s_2
        edited(multiplicities={"2": 0, "1,1": 1, "1": 0}),  # (1) is not a partition of 2
        # values that are not JSON integers, though int() would turn them into
        # the valid entry
        edited(dim=1.5, multiplicities={"2": 0, "1,1": 1.5}),
        edited(dim=True, multiplicities={"2": 0, "1,1": True}),
        edited(n="2", degree=["0", "0", "1"], dim="1"),
        # multiplicities that are not a JSON object: a list, a string, a number, null
        *(edited(multiplicities=value) for value in ([0, 1], "2:0,1,1:1", 1, None)),
    ]


def test_cache_rejects_tampered_entries(tmp_path):
    cache = ComponentCache(tmp_path)
    for entry in tampered_entries():
        write_entry(cache, entry)
        assert cache.get(2, SAMPLE_DEGREE) is None
    moved = sample_entry()
    moved["degree"] = [1, 0, 0]  # a valid entry filed under another degree
    write_entry(cache, moved)
    assert cache.get(2, SAMPLE_DEGREE) is None


def test_verify_recomputes_tampered_entries(tmp_path):
    for k, entry in enumerate(tampered_entries()):
        cache = ComponentCache(tmp_path / str(k))
        write_entry(cache, entry)
        report = verify_conjecture(2, cache_dir=cache.root)
        assert report.verdict == EQUAL
        assert read_entry(cache) == sample_entry()


def schema_1_entry(cache):
    """Write the entry of n = 2, degree (0, 0, 1) as cache schema 1 stored it:
    valid character values instead of multiplicities."""
    path = cache.entry_path(2, SAMPLE_DEGREE)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "schema_version": 1, "engine_version": ENGINE_VERSION, "n": 2,
        "degree": [0, 0, 1], "dim": 1, "characters": {"2": -1, "1,1": 1},
    }))


def test_schema_1_entry_is_a_miss_and_verify_rewrites_it(tmp_path):
    cache = ComponentCache(tmp_path)
    schema_1_entry(cache)
    assert cache.get(2, SAMPLE_DEGREE) is None
    report = verify_conjecture(2, cache_dir=tmp_path)
    assert report.verdict == EQUAL
    data = read_entry(cache)
    assert data == sample_entry()
    assert data["schema_version"] == CACHE_SCHEMA_VERSION == 2
    assert data["multiplicities"] == {"2": 0, "1,1": 1} and "characters" not in data


def cache_snapshot(root):
    """Every file under root with its bytes and modification time."""
    return {path: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_warm_run_reads_every_component_from_the_cache(tmp_path, monkeypatch):
    import superdelta.coinvariants as coinvariants

    worker = coinvariants._component_worker
    calls = []

    def counted_worker(args):
        calls.append(args)
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", counted_worker)
    cold = verify_conjecture(3, cache_dir=tmp_path)
    assert cold.verdict == EQUAL and calls

    before = cache_snapshot(tmp_path)
    # the worker solves the a >= b cells but the zeros inferred from a zero
    # inner neighbour (a - 1, b + 1, c) and the designated cells read off their
    # diagonals, all but (2, 2, 1), whose lower neighbours are zeros (the extra
    # band); each a < b cell is its mirror's copy
    entries = {TriDegree(*map(int, path.stem.split("_"))): json.loads(data)
               for path, (data, _) in before.items()}
    degrees = list(entries)
    zeros = {d for d, entry in entries.items() if entry["dim"] == 0}
    mirrored = [d for d in degrees if d.a < d.b]
    inferred = [d for d in degrees if d.a - d.b >= 2 and (d.a - 1, d.b + 1, d.c) in zeros]
    read = set(designated_cells(3)) & set(degrees) - set(inferred) - {TriDegree(2, 2, 1)}
    solved = {TriDegree(*d) for _, d, *_ in calls}
    assert mirrored and inferred and len(read) == 5 and len(solved) == len(calls)
    assert solved == set(degrees) - set(mirrored) - set(inferred) - read
    assert len(before) == cold.stats["components_computed"] == (
        len(calls) + len(mirrored) + len(inferred) + len(read))
    calls.clear()
    warm = verify_conjecture(3, cache_dir=tmp_path)
    assert calls == []
    assert cache_snapshot(tmp_path) == before
    assert warm.to_json_dict(include_timing=False) == cold.to_json_dict(
        include_timing=False
    )


def test_a_mirrored_component_is_cached_as_its_direct_solve(tmp_path, monkeypatch):
    # a cell taken from its mirror is written like a computed one, so a cold
    # cache holds every component, each byte-identical to its direct solve
    run = tmp_path / "run"
    cold = verify_conjecture(4, cache_dir=run)
    assert cold.verdict == EQUAL
    before = cache_snapshot(run)
    assert len(before) == cold.stats["components_computed"] == 111
    direct = ComponentCache(tmp_path / "direct")
    for path in before:
        d = TriDegree(*map(int, path.stem.split("_")))
        direct.put(component_characters(4, d))
        assert path == ComponentCache(run).entry_path(4, d)
        assert path.read_bytes() == direct.entry_path(4, d).read_bytes(), d

    worker = coinvariants._component_worker
    calls = []

    def counted_worker(args):
        calls.append(args)
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", counted_worker)
    warm = verify_conjecture(4, cache_dir=run)
    assert calls == [] and cache_snapshot(run) == before
    assert warm.to_json_dict(include_timing=False) == cold.to_json_dict(include_timing=False)


def test_warm_cache_needs_no_budget(tmp_path):
    # cache hits are not computed components, so a spent budget does not stop them
    cold = verify_conjecture(3, cache_dir=tmp_path).to_json_dict(include_timing=False)
    for threads in (1, 2):
        warm = verify_conjecture(3, threads=threads, cache_dir=tmp_path, budget_seconds=0)
        assert warm.verdict == EQUAL
        assert warm.to_json_dict(include_timing=False) == cold


def test_a_partly_warm_cache_keeps_the_same_components_at_any_thread_count(tmp_path):
    # the cache holds row 0 whole and only band a+b = 0 of the other rows; a
    # spent budget solves nothing, so every thread count keeps every cache hit,
    # closes row 0 from its hits and leaves the other rows open, and reads
    # (1, 0, 1) off its diagonal, whose other cells (2, 0, 0) and (0, 0, 2) are
    # hits, with its mirror (0, 1, 1)
    verify_conjecture(3, cache_dir=tmp_path)
    cached = set()
    for path in (tmp_path / "n=3").iterdir():
        d = TriDegree(*map(int, path.stem.split("_")))
        if d.c >= 1 and d.a + d.b > 0:
            path.unlink()
        else:
            cached.add(d)
    serial, pool = (frobenius_module(3, threads=threads, budget_seconds=0,
                                     component_cache=ComponentCache(tmp_path))
                    for threads in (1, 2))
    read = {TriDegree(1, 0, 1), TriDegree(0, 1, 1)}
    assert set(serial.components) == cached | read and serial.components == pool.components
    assert serial.rows == pool.rows == {0: True, 1: False, 2: False, 3: False}
    serial, pool = (verify_conjecture(3, threads=threads, cache_dir=tmp_path, budget_seconds=0)
                    for threads in (1, 2))
    assert serial.to_json_dict(include_timing=False) == pool.to_json_dict(include_timing=False)


def test_report_timing_names_python():
    timing = verify_conjecture(1).timing
    assert timing["python"] == platform.python_version()


FAKE_GMPY2 = """
import fractions, sys, types
gmpy2 = types.ModuleType("gmpy2")
def mpq(*args):
    raise AssertionError("gmpy2.mpq called")
gmpy2.mpq = mpq
sys.modules["gmpy2"] = gmpy2
import superdelta.rationals
from superdelta.verifier import EQUAL, verify_conjecture
assert superdelta.rationals.RAT is fractions.Fraction
assert verify_conjecture(3).verdict == EQUAL
print("ok")
"""


def test_engine_ignores_an_installed_gmpy2():
    proc = run_python(FAKE_GMPY2)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_verify_checks_arguments_before_the_delta_side(monkeypatch):
    import superdelta.verifier as verifier

    def no_delta_side(n):
        raise AssertionError("rhs_series ran before the arguments were checked")

    monkeypatch.setattr(verifier, "rhs_series", no_delta_side)
    with pytest.raises(ValueError, match="extra_band"):
        verify_conjecture(3, extra_band=-1)
    with pytest.raises(ValueError, match="threads"):
        verify_conjecture(3, threads=0)
    with pytest.raises(ValueError, match="max_ab"):
        verify_conjecture(3, max_ab=-1)
    with pytest.raises(ValueError, match="budget_seconds"):
        verify_conjecture(3, budget_seconds=-1.0)


def test_cache_component_roundtrip(tmp_path):
    from superdelta.coinvariants import component_characters

    cache = ComponentCache(tmp_path)
    comp = component_characters(2, TriDegree(0, 0, 1))
    cache.put(comp)
    back = cache.get(2, TriDegree(0, 0, 1))
    assert back == comp


def test_compare_series():
    a = FrobeniusSeries(2, {(2,): ONE, (1, 1): Q})
    b = FrobeniusSeries(2, {(2,): ONE, (1, 1): Q})
    assert compare_series(a, b) == []
    c = FrobeniusSeries(2, {(2,): ONE, (1, 1): Q + ONE})
    diffs = compare_series(a, c)
    assert len(diffs) == 1
    assert diffs[0].lam == (1, 1)
    assert diffs[0].difference == -ONE
    d = FrobeniusSeries(2, {(2,): ONE})
    diffs = compare_series(a, d)
    assert len(diffs) == 1 and diffs[0].rhs.is_zero()
    with pytest.raises(ValueError):
        compare_series(a, FrobeniusSeries(3))


def test_verify_small_equal():
    for n in (1, 2):
        report = verify_conjecture(n)
        assert report.verdict == EQUAL
        assert report.diffs == []
        assert report.stats["frontier_closed"]


def test_verify_budget_inconclusive():
    report = verify_conjecture(2, budget_seconds=0.0)
    assert report.verdict == INCONCLUSIVE


def test_budget_stops_within_one_component(monkeypatch):
    import superdelta.coinvariants as coinvariants

    worker = coinvariants._component_worker

    def slow_worker(args):
        time.sleep(0.2)
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", slow_worker)
    # band a+b = 0 is one component per theta row (0.8 s), so the deadline
    # falls at the third of band 1's four solves (its other four cells are their
    # mirrors); a per-band check would end at 1.6 s, inside the bound, so
    # test_the_serial_run_solves_nothing_after_the_deadline pins the rule
    budget = 1.3
    start = time.monotonic()
    report = verify_conjecture(3, threads=1, budget_seconds=budget)
    elapsed = time.monotonic() - start
    assert report.verdict == INCONCLUSIVE
    assert elapsed < budget + 0.4


def slow_component_worker(args):
    # a solve slowed to 0.3 s; at module level, so that the pool pickles it by
    # name, and a fork pool's workers see it in place of _component_worker
    time.sleep(0.3)
    n, d, support = args
    return component_characters(n, TriDegree(*d), support)


def test_the_pool_budget_stops_within_one_component(monkeypatch):
    # the pool starts a solve only on a free worker and none after the
    # deadline, and finishes and keeps every solve it started.  Two workers
    # solve in rounds of 0.3 s, so the deadline at 0.5 s falls in the second
    # round and the run ends near 0.6 s, within one solve of it; a pool handed
    # every queued solve at once runs some past the deadline, to 0.9 s or later
    monkeypatch.setattr(coinvariants, "_component_worker", slow_component_worker)
    start = time.monotonic()
    partial = frobenius_module(4, threads=2, budget_seconds=0.5)
    assert time.monotonic() - start < 0.5 + 0.3 + 0.05 and not partial.closed
    # a budget shorter than one solve keeps the solves it started
    assert frobenius_module(4, threads=2, budget_seconds=0.1).components


NO_POOL_MACHINERY = """
import os, sys
os.cpu_count = lambda: 2  # two workers are forked on any machine
import superdelta
print("pickle" in sys.modules)
assert superdelta.verify_conjecture(3, threads=2).verdict == "EQUAL"
print(sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""


def test_the_pool_loads_no_pool_machinery():
    # the workers are forked and spoken to in marshal: neither import
    # superdelta nor a pooled run loads pickle's or a process pool's modules
    proc = run_python(NO_POOL_MACHINERY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "[]"]


INTERRUPTED = """
import os, time
os.cpu_count = lambda: 2
import superdelta.coinvariants as coinvariants
solve = coinvariants._component_worker

def slow(args):
    time.sleep(60)
    return solve(args)

coinvariants._component_worker = slow
print("started", flush=True)
coinvariants.frobenius_module(3, threads=THREADS)
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_an_interrupted_pool_leaves_no_process(threads):
    # SIGINT to the whole process group, as a terminal's ^C or timeout -s INT
    # sends it: the workers ignore it, and the run kills their minute-long
    # solves and reaps them before it exits, so nothing of the group is left;
    # on one thread the solve runs in the interrupted process, and the
    # interrupt must end the run as itself, not as a solve's error
    script = INTERRUPTED.replace("THREADS", str(threads))
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=checkout_env(),
                            start_new_session=True)
    try:
        assert proc.stdout.readline() == "started\n"
        time.sleep(1)  # every worker is inside a solve
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=10)
        assert proc.returncode != 0 and err.splitlines()[-1] == "KeyboardInterrupt", err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def kept_cells(calls, components):
    """The cells kept besides those solved in calls: the designated cells read
    off their diagonals, and the mirrors of the kept cells with a > b; assert
    that components holds these and nothing else (every cell of the run has
    its mirror in its band)."""
    computed = [TriDegree(*d) for _, d, *_ in calls]
    read = [d for d in components if d in designated_cells(3) and d not in computed]
    mirrors = [TriDegree(d.b, d.a, d.c) for d in computed + read if d.a > d.b]
    assert len(components) == len(computed) + len(read) + len(mirrors)
    assert set(components) == set(computed) | set(read) | set(mirrors)
    return read


def test_budget_keeps_the_row_in_progress(tmp_path, monkeypatch):
    import superdelta.coinvariants as coinvariants

    worker = coinvariants._component_worker
    calls = []

    def counted_worker(args):
        calls.append(args)
        time.sleep(0.1)
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", counted_worker)
    # band a+b = 0 takes 0.3 s (three solves; (0, 0, 1) is read off its
    # diagonal once (1, 0, 0) is in hand), so the deadline falls in band 1
    # (three solves, 0.3 s, their mirrors and the cells read off diagonals
    # through them), with every row in progress
    partial = coinvariants.frobenius_module(3, threads=1, budget_seconds=0.45)
    assert not partial.closed and calls
    read = kept_cells(calls, partial.components)
    assert read and all(partial.components[d] == component_characters(3, d) for d in read)
    assert any(d.c == 0 for d in partial.components) and partial.rows[0] is False

    calls.clear()
    report = verify_conjecture(3, threads=1, budget_seconds=0.45, cache_dir=tmp_path)
    assert report.verdict == INCONCLUSIVE and calls
    # every kept cell is cached, so the cache holds the components
    cached = {TriDegree(*map(int, path.stem.split("_"))) for path in tmp_path.rglob("*.json")}
    kept_cells(calls, cached)
    assert report.stats["components_computed"] == len(cached)


NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now fails
from superdelta.coinvariants import component_characters
from superdelta.superring import TriDegree
from superdelta.verifier import EQUAL, verify_conjecture
comp = component_characters(3, TriDegree(4, 3, 0))
assert comp.dim == 150 and comp.rank == 150
assert verify_conjecture(3).verdict == EQUAL
print("ok")
"""


def checkout_env():
    """The environment with this checkout's package first on PYTHONPATH, so a
    fresh interpreter imports it without an installed copy."""
    src = str(Path(superdelta.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))


def run_python(code):
    """Run code in a fresh interpreter that imports this checkout's package."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=checkout_env())


def test_engine_and_reference_run_without_numpy():
    proc = run_python(NO_NUMPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_verify_degree_budget_inconclusive():
    report = verify_conjecture(2, max_ab=0)
    assert report.verdict == INCONCLUSIVE


def wrong_component():
    """The n = 3 component (1, 0, 0) with 1 added to the multiplicity of s_3."""
    comp = component_characters(3, TriDegree(1, 0, 0))
    comp.mult[(3,)] += 1
    return comp


def test_a_wrong_component_is_a_differ_under_max_ab(monkeypatch):
    monkeypatch.setattr(coinvariants, "component_characters", lambda n, d, support=None: (
        wrong_component() if d == (1, 0, 0) else component_characters(n, d, support)))
    assert verify_conjecture(3).verdict == DIFFER
    report = verify_conjecture(3, max_ab=2)
    assert not report.stats["frontier_closed"] and report.stats["rhs_support_missing_on_module_side"]
    assert report.verdict == DIFFER
    # the wrong (1, 0, 0) reaches its mirror (0, 1, 0) and (0, 0, 1), read off
    # its diagonal
    assert [(d.lam, d.difference) for d in report.diffs] == [((3,), Q + T + Z)]


def test_a_wrong_cached_component_is_a_differ_under_a_budget(tmp_path):
    # the warm cache holds band a+b = 0 and the wrong (1, 0, 0); a spent budget
    # stops the run at the first component of band 1 it would have to compute,
    # and the mirror (0, 1, 0) is taken from the cached (1, 0, 0) at no cost
    cache = ComponentCache(tmp_path)
    for c in range(4):
        cache.put(component_characters(3, TriDegree(0, 0, c)))
    cache.put(wrong_component())
    report = verify_conjecture(3, cache_dir=tmp_path, budget_seconds=0)
    assert report.stats["components_computed"] == 6 and not report.stats["frontier_closed"]
    assert report.verdict == DIFFER
    assert [(d.lam, d.difference) for d in report.diffs] == [((3,), Q + T)]


def test_a_wrong_cached_zero_spreads_to_its_outer_cells(tmp_path, monkeypatch):
    # a valid but wrong zero at the inner cell (2, 1, 0) makes (3, 0, 0) a zero
    # inferred from it, with nothing solved there, and (1, 2, 0) and (0, 3, 0)
    # their copies; (1, 1, 1) and (2, 0, 1), read off the diagonals through
    # (2, 1, 0) and (3, 0, 0), lose their unit of s_(1,1,1) as well, and so
    # does the copy (0, 2, 1).  The frontier law holds on the wrong rows, so
    # the comparison must catch it: DIFFER, never EQUAL
    cache = ComponentCache(tmp_path)
    true = component_characters(3, TriDegree(2, 1, 0))
    assert true.mult[(1, 1, 1)] == 1
    cache.put(ComponentCharacters(3, true.degree, dict.fromkeys(true.mult, 0)))
    worker = coinvariants._component_worker
    calls = []

    def counted_worker(args):
        calls.append(TriDegree(*args[1]))
        return worker(args)

    monkeypatch.setattr(coinvariants, "_component_worker", counted_worker)
    report = verify_conjecture(3, cache_dir=tmp_path)
    assert report.verdict == DIFFER and report.stats["frontier_closed"]
    assert not {TriDegree(3, 0, 0), TriDegree(0, 3, 0), TriDegree(1, 2, 0)} & set(calls)
    for d in ((3, 0, 0), (0, 3, 0), (1, 2, 0)):
        assert cache.get(3, TriDegree(*d)).dim_quotient == 0, d
    assert [(d.lam, d.difference) for d in report.diffs] == [
        ((1, 1, 1), -(Q ** 3 + Q * Q * T + Q * T * T + T ** 3) - Z * (Q * Q + Q * T + T * T))]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_wrong_cached_lower_cell_is_a_differ(tmp_path, threads):
    # a valid but wrong nonzero (2, 0, 0) at n = 4: s_(3,1) moved to s_(2,1,1),
    # both of dimension 3; the cell above it, (2, 1, 0), is solved for the lams
    # that the wrong cell's Kronecker bound allows, and the comparison must
    # still catch the wrong cell: DIFFER, never EQUAL.  The cache also holds
    # the true (1, 0, 1), which is otherwise read off the wrong cell's diagonal
    # and breaks its bound (test_a_wrong_cached_cell_on_a_diagonal_is_named)
    true = component_characters(4, TriDegree(2, 0, 0))
    assert (true.mult[(3, 1)], true.mult[(2, 1, 1)]) == (1, 0)
    wrong = ComponentCharacters(4, true.degree, {**true.mult, (3, 1): 0, (2, 1, 1): 1})
    ComponentCache(tmp_path).put(wrong)
    ComponentCache(tmp_path).put(component_characters(4, TriDegree(1, 0, 1)))
    inner = component_characters(4, TriDegree(1, 1, 0))
    above = TriDegree(2, 1, 0)
    bounds = [support_bound(4, above, below)[1]
              for below in ({true.degree: wrong, inner.degree: inner},
                            {true.degree: true, inner.degree: inner})]
    assert bounds[0] != bounds[1]
    report = verify_conjecture(4, threads=threads, cache_dir=tmp_path)
    assert report.verdict == DIFFER and report.stats["frontier_closed"]
    # only the wrong cell and its mirror (0, 2, 0) differ
    assert [(d.lam, d.difference) for d in report.diffs] == [
        ((3, 1), -(Q * Q + T * T)), ((2, 1, 1), Q * Q + T * T)]
    assert ComponentCache(tmp_path).get(4, above) == component_characters(4, above)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_wrong_cached_cell_on_a_diagonal_is_named(tmp_path, threads):
    # the wrong (2, 0, 0) of the test above alone in the cache: (1, 0, 1) is
    # read off their diagonal, (2, 0, 0) - (1, 0, 1) + (0, 0, 2) = 0, so it
    # gains the unit of s_(2,1,1) too and breaks the bound its lower
    # neighbours set; the error names the diagonal's cells, the cached one
    # among them
    true = component_characters(4, TriDegree(2, 0, 0))
    wrong = ComponentCharacters(4, true.degree, {**true.mult, (3, 1): 0, (2, 1, 1): 1})
    ComponentCache(tmp_path).put(wrong)
    with pytest.raises(ConsistencyError, match=r"^at \(1, 0, 1\), read off its fermionic diagonal, "
                       r"s_\(2, 1, 1\): .* above its bound 1; inferred from the cells "
                       r"\(0, 0, 2\), \(2, 0, 0\), ") as error:
        verify_conjecture(4, threads=threads, cache_dir=tmp_path)
    assert "TriDegree(" not in str(error.value)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_wrong_cached_cell_that_breaks_a_bound_is_named(tmp_path, threads):
    # a valid but wrong nonzero (1, 1, 0) at n = 4, the only cached cell: its
    # unit of s_(3,1) moved to s_(2,1,1), both of dimension 3; the solve of
    # (2, 1, 0) above it breaks the bound the wrong cell sets, and the error
    # names the cells that set its bounds, the cached one among them
    true = component_characters(4, TriDegree(1, 1, 0))
    assert (true.mult[(3, 1)], true.mult[(2, 1, 1)]) == (1, 1)
    wrong = {**true.mult, (3, 1): 0, (2, 1, 1): 2}
    ComponentCache(tmp_path).put(ComponentCharacters(4, true.degree, wrong))
    with pytest.raises(ConsistencyError, match=r"at \(2, 1, 0\): .* "
                       r"bounds set by the cells \(1, 1, 0\), \(2, 0, 0\),") as error:
        verify_conjecture(4, threads=threads, cache_dir=tmp_path)
    assert "TriDegree(" not in str(error.value)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_wrong_cached_cell_behind_a_frontier_error_is_named(tmp_path, threads):
    # a valid but wrong (0, 0, 0) at n = 4, the only cached cell: its unit of
    # s_(4) moved to s_(1,1,1,1), both of dimension 1.  (1, 0, 0) is solved
    # within the bound it sets and comes back zero, its mirror (0, 1, 0) is a
    # copy and (0, 0, 1), read off its diagonal, is zero too; (0, 2, 0) above
    # the first two and (0, 1, 1) above the last are nonzero.  Whichever
    # frontier-law error comes first (on two workers that depends on which
    # solve finishes first), it names the zero cells below the cell and the
    # cells that shaped them, the cached one last
    true = component_characters(4, TriDegree(0, 0, 0))
    assert (true.mult[(4,)], true.mult[(1, 1, 1, 1)]) == (1, 0)
    wrong = {**true.mult, (4,): 0, (1, 1, 1, 1): 1}
    ComponentCache(tmp_path).put(ComponentCharacters(4, true.degree, wrong))
    with pytest.raises(ConsistencyError, match=r"zero frontier at (\(0, 2, 0\); .* \(0, 1, 0\)|"
                       r"\(0, 1, 1\); .* \(0, 0, 1\)), \(1, 0, 0\), \(0, 0, 0\), "
                       r"so one of them may be wrong") as error:
        verify_conjecture(4, threads=threads, cache_dir=tmp_path)
    assert "TriDegree(" not in str(error.value)


def test_the_frontier_law_reaches_every_cell_verify_computes(monkeypatch):
    # (1, 0, 0) comes back zero, and so do its mirror (0, 1, 0) and (0, 0, 1),
    # read off its diagonal; band 1 of row 1 lies one step above (0, 0, 1)
    # and is nonzero, also where the delta side has support, so the law fails
    # there, before band 2 of row 0 is in hand
    def zero_at_100(n, d, support=None):
        comp = component_characters(n, d, support)
        if d == (1, 0, 0):
            comp.mult = dict.fromkeys(comp.mult, 0)
        return comp

    monkeypatch.setattr(coinvariants, "component_characters", zero_at_100)
    with pytest.raises(ConsistencyError, match=r"zero frontier at \(0, 1, 1\)"):
        verify_conjecture(3)


def test_the_delta_side_steers_nothing(monkeypatch):
    # q^5 at s_(3) lies far beyond row 0's closed frontier: the module side
    # explores exactly its own cells, and the closed row settles (5, 0, 0) as 0
    import superdelta.verifier as verifier

    honest_rhs = verifier.rhs_series

    def rhs_with_q5(n):
        series = honest_rhs(n)
        series.set_coefficient((3,), series.coefficient((3,)) + Q ** 5)
        return series

    monkeypatch.setattr(verifier, "rhs_series", rhs_with_q5)
    report = verify_conjecture(3)
    assert report.verdict == DIFFER
    assert [(d.lam, d.difference) for d in report.diffs] == [((3,), -Q ** 5)]
    assert report.stats["rhs_support_missing_on_module_side"] == []
    assert report.stats["components_computed"] == len(frobenius_module(3).components) == 45


def test_report_renderings():
    report = verify_conjecture(1)
    text = render_report(report, "text")
    assert "EQUAL" in text
    assert "s(1): 1" in text

    payload = json.loads(render_report(report, "json"))
    assert payload["verdict"] == EQUAL
    assert payload["module_series"]["coeffs"] == {"1": "1"}
    assert payload["delta_series"]["coeffs"] == {"1": "1"}

    csv = render_report(report, "csv")
    assert csv.splitlines() == ["lambda,module,delta,difference"]

    latex = render_report(report, "latex")
    assert latex.startswith(r"\begin{tabular}")
    assert "s_{1}" in latex

    with pytest.raises(ValueError):
        render_report(report, "yaml")


def test_report_json_roundtrip_coefficients():
    report = verify_conjecture(2)
    payload = json.loads(render_report(report, "json"))
    assert payload["module_series"] == report.module_series.to_json_dict()
    assert payload["verdict"] == report.verdict


def test_verify_cold_and_warm_cache_identical(tmp_path):
    cold = verify_conjecture(2, cache_dir=tmp_path)
    warm = verify_conjecture(2, cache_dir=tmp_path)
    assert cold.to_json_dict(include_timing=False) == warm.to_json_dict(
        include_timing=False
    )
    no_cache = verify_conjecture(2)
    assert no_cache.to_json_dict(include_timing=False) == cold.to_json_dict(
        include_timing=False
    )


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "superdelta.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=checkout_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_verify_exit_codes():
    rc, out, _ = run_cli("verify", "--n", "1")
    assert rc == 0 and "EQUAL" in out
    rc, _, _ = run_cli("verify", "--n", "1", "--budget-seconds", "0")
    assert rc == 2
    rc, _, err = run_cli("verify", "--n", "5")
    assert rc == 3 and "--long" in err
    rc, _, _ = run_cli("verify", "--n", "2", "--format", "nope")
    assert rc == 3
    rc, _, _ = run_cli("nonsense")
    assert rc == 3


def test_an_interrupted_cli_run_exits_130_with_one_line(monkeypatch, capsys):
    # ^C during a run is no internal error: one stderr line, no traceback
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("superdelta.cli.verify_conjecture", interrupted)
    assert cli_main(["verify", "--n", "2"]) == 130
    out, err = capsys.readouterr()
    assert out == "" and err == "superdelta: interrupted\n"


@pytest.mark.parametrize("spec, expected", [
    ("z=0", "s(2): 1\ns(1,1): t + q\n"),
    ("t=0", "s(2): 1\ns(1,1): q + z\n"),
    ("q=t=1", "s(2): 1\ns(1,1): 2 + z\n"),
])
def test_cli_frobenius_spec(spec, expected):
    rc, out, _ = run_cli("frobenius", "--n", "2", "--side", "delta", "--spec", spec)
    assert rc == 0 and out == expected


def test_cli_subcommands():
    rc, out, _ = run_cli("macdonald", "--mu", "2,1")
    assert rc == 0
    assert "s(2,1): t + q" in out
    rc, out, _ = run_cli("character", "--n", "2", "--degree", "0,0,1")
    assert rc == 0 and "chi(2) = -1" in out
    rc, out, _ = run_cli("frobenius", "--n", "2", "--side", "module")
    assert rc == 0 and "s(1,1): t + q + z" in out
    rc, out, _ = run_cli("hilbert", "--n", "2")
    assert rc == 0 and "0 0 0 1" in out
    # malformed input is a usage error, exit 3, caught before any computation
    for args in [
        ("character", "--n", "2", "--degree", "0,0"),
        ("character", "--n", "2", "--degree", "1,0"),
        ("character", "--n", "2", "--degree", "a,b,c"),
        ("character", "--n", "0", "--degree", "0,0,0"),
        ("verify", "--n", "0"),
        ("frobenius", "--n", "0", "--side", "delta"),
        ("hilbert", "--n", "0"),
        ("macdonald", "--mu", "1,3"),
        ("macdonald", "--mu", "0"),
        ("macdonald", "--mu", "9"),
        ("verify", "--n", "2", "--extra-band", "-1"),
        ("verify", "--n", "2", "--max-degree", "-1"),
        ("verify", "--n", "2", "--budget-seconds", "-1"),
        ("verify", "--n", "2", "--budget-seconds", "nan"),
        # a budget must be finite, on the pool as on the serial run
        ("verify", "--n", "2", "--threads", "2", "--budget-seconds", "inf"),
        ("verify", "--n", "2", "--budget-seconds", "Infinity"),
        ("verify", "--n", "2", "--threads", "0"),
        ("verify", "--n", "2", "--threads", "-1"),
        ("frobenius", "--n", "2", "--side", "module", "--threads", "0"),
        ("hilbert", "--n", "2", "--threads", "-1"),
        # n above the filling-formula limit of the delta side
        ("frobenius", "--n", str(HTILDE_SIZE_LIMIT + 1), "--side", "delta"),
        ("verify", "--n", str(HTILDE_SIZE_LIMIT + 1), "--long"),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli_main(list(args))
        assert exc.value.code == 3, args


def test_cli_accepts_zero_bounds_and_names_the_delta_limit(capsys):
    args = build_parser().parse_args(
        ["verify", "--n", "2", "--extra-band", "0", "--max-degree", "0",
         "--budget-seconds", "0"])
    assert (args.extra_band, args.max_degree, args.budget_seconds) == (0, 0, 0.0)
    assert cli_main(["verify", "--n", "1", "--extra-band", "0"]) == 0
    assert "frontier closed: True" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobenius", "--n", str(HTILDE_SIZE_LIMIT + 1), "--side", "delta"])
    assert exc.value.code == 3
    assert f"n <= {HTILDE_SIZE_LIMIT}" in capsys.readouterr().err


def test_frobenius_module_rejects_negative_band_and_threads():
    with pytest.raises(ValueError):
        frobenius_module(2, extra_band=-1)
    for threads in (0, -1):
        with pytest.raises(ValueError):
            frobenius_module(2, threads=threads)
    with pytest.raises(ValueError, match="max_ab"):
        frobenius_module(2, max_ab=-1)
    with pytest.raises(ValueError, match="budget_seconds"):
        frobenius_module(2, budget_seconds=-1.0)
    assert frobenius_module(2, extra_band=0).closed


def test_cli_verify_json_and_cache(tmp_path):
    rc, out, _ = run_cli(
        "verify", "--n", "2", "--format", "json", "--cache-dir", str(tmp_path)
    )
    assert rc == 0
    first = json.loads(out)
    rc, out, _ = run_cli(
        "verify", "--n", "2", "--format", "json", "--cache-dir", str(tmp_path)
    )
    second = json.loads(out)
    first.pop("timing")
    second.pop("timing")
    assert first == second
    assert (tmp_path / "n=2").exists()


def test_cli_rejects_an_unusable_cache_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    for command in (["verify", "--n", "2"], ["hilbert", "--n", "2"],
                    ["frobenius", "--n", "2", "--side", "module"]):
        for cache_dir in ("", "afile/sub", "afile"):
            with pytest.raises(SystemExit) as exc:
                cli_main([*command, "--cache-dir", cache_dir])
            out, err = capsys.readouterr()
            assert exc.value.code == 3 and out == "", (command, cache_dir)
            assert "--cache-dir" in err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_cli_creates_the_cache_dir_only_where_it_is_used(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "--n", "5", "--cache-dir", "d1"])  # refused: no --long
    assert exc.value.code == 3
    # the delta side reads no cache
    assert cli_main(["frobenius", "--n", "2", "--side", "delta", "--cache-dir", "d2"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert cli_main(["hilbert", "--n", "2", "--cache-dir", "d3"]) == 0
    assert (tmp_path / "d3" / "n=2").is_dir()


def test_module_budget_must_be_finite_and_may_be_huge():
    for budget in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="budget_seconds"):
            verify_conjecture(2, threads=2, budget_seconds=budget)
        with pytest.raises(ValueError, match="budget_seconds"):
            frobenius_module(2, budget_seconds=budget)
    # a budget that no run reaches runs as no budget
    for threads in (1, 2):
        assert verify_conjecture(2, threads=threads, budget_seconds=1e10).verdict == EQUAL
