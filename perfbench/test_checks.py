"""Tests of the benchmark itself: its checks must reject perturbed results,
its tracer must count and nest spans, and its command must keep its output
contract.  Results come from smoke-size runs (verify n=3, the a+b<=2 slice
at n=4, delta n=5), which take seconds.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import workloads
from tracing import TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Decoded smoke-size result of each workload, computed once."""
    scratch = str(tmp_path_factory.mktemp("scratch"))
    out = {}
    for name in workloads.NAMES:
        params = workloads.SIZES["smoke"][name]
        inputs = workloads.prepare(name, params, seed=3, scratch=scratch, trace=False)
        encoded = workloads.encode(name, workloads.call(name, inputs))
        # the worker sends its result through JSON; do the same here
        out[name] = workloads.decode(name, json.loads(json.dumps(encoded)))
    out["reference"] = workloads.reference_series(workloads.SIZES["smoke"]["module-n5-low"]["n"])
    return out


def run_checks(name, result, smoke):
    params = workloads.SIZES["smoke"][name]
    return workloads.check(name, params, result, smoke["reference"])


def failed(items) -> set[str]:
    return {item.name for item in items if not item.ok}


def bump(series, lam, expo, by=1):
    """A copy of series with the coefficient of lam changed by by * q^a t^b z^c."""
    out = copy.deepcopy(series)
    poly = out.setdefault(lam, {})
    poly[expo] = poly.get(expo, 0) + by
    if not poly[expo]:
        del poly[expo]
    return out


# --- independent combinatorics ------------------------------------------------


def test_combinatorics_known_values():
    assert [checks.hook_count(lam) for lam in checks.partitions(4)] == [1, 3, 2, 3, 1]
    assert sum(checks.hook_count(lam) ** 2 for lam in checks.partitions(6)) == 720
    assert [checks.stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    # column orthogonality of the S_4 character table
    for mu in checks.partitions(4):
        norm = sum(checks.sn_character(lam, mu) ** 2 for lam in checks.partitions(4))
        assert norm == checks.centralizer(mu)
    assert checks.sn_character((2, 1), (3,)) == -1
    assert checks.sn_character((1, 1, 1), (2, 1)) == -1


# --- every smoke result passes ------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_results_pass(name, smoke):
    items = run_checks(name, smoke[name], smoke)
    assert items and not failed(items)


def test_module_slice_holds_mirror_pairs(smoke):
    items = run_checks("module-n5-low", smoke["module-n5-low"], smoke)
    mirrors = [item for item in items if item.name.startswith("mirror")]
    assert len(mirrors) == 2 * 5  # (1,0) and (2,0), for c = 0..4


# --- every check rejects a perturbed result -------------------------------------


def test_verify_checks_reject_perturbations(smoke):
    good = smoke["verify-n4"]
    n = workloads.SIZES["smoke"]["verify-n4"]["n"]
    hook = (1,) * n

    assert "verdict_equal" in failed(run_checks("verify-n4", {**good, "verdict": "DIFFER"}, smoke))
    assert "frontier_closed" in failed(
        run_checks("verify-n4", {**good, "frontier_closed": False}, smoke)
    )
    shifted = {**good, "module": bump(good["module"], hook, (1, 0, 0))}
    assert {"verdict_equal", "haiman_dim", "qt_symmetry", "slab_dim[0]"} <= failed(
        run_checks("verify-n4", shifted, smoke)
    )
    for j in range(n):
        bad = {**good, "module": bump(good["module"], hook, (1, 0, j))}
        assert f"slab_dim[{j}]" in failed(run_checks("verify-n4", bad, smoke))
    lam, poly = next(iter(good["module"].items()))
    expo = next(iter(poly))
    negated = {**good, "module": bump(good["module"], lam, expo, by=-2 * poly[expo])}
    assert "nonnegative" in failed(run_checks("verify-n4", negated, smoke))


def test_module_checks_reject_perturbations(smoke):
    good = smoke["module-n5-low"]
    n = workloads.SIZES["smoke"]["module-n5-low"]["n"]
    lam = (n - 1, 1)
    for d in [(1, 0, 0), (2, 0, 1), (0, 1, 2)]:
        comps = copy.deepcopy(good["components"])
        chars = comps[d]["chars"]
        for mu in chars:
            chars[mu] += checks.sn_character(lam, mu)  # one more copy of s(lam)
        bad = failed(run_checks("module-n5-low", {"components": comps}, smoke))
        assert f"mult_match[{d}]" in bad
        a, b, c = d
        assert f"mirror[{(max(a, b), min(a, b), c)}]" in bad

        comps = copy.deepcopy(good["components"])
        comps[d]["rank"] += 1
        assert f"dim_match[{d}]" in failed(
            run_checks("module-n5-low", {"components": comps}, smoke)
        )
    # a character that is not a genuine character gives a fractional multiplicity
    comps = copy.deepcopy(good["components"])
    comps[(1, 0, 0)]["chars"][(n,)] += 1
    assert "mult_match[(1, 0, 0)]" in failed(run_checks("module-n5-low", {"components": comps}, smoke))


def test_delta_checks_reject_perturbations(smoke):
    good = smoke["delta-n7"]["series"]
    n = workloads.SIZES["smoke"]["delta-n7"]["n"]

    def bad_checks(series):
        return failed(run_checks("delta-n7", {"series": series}, smoke))

    for j in range(n):
        assert f"slab_dim[{j}]" in bad_checks(bump(good, (n,), (1, 0, j)))
    assert "haiman_dim" in bad_checks(bump(good, (n - 1, 1), (1, 1, 0)))
    assert "top_slab" in bad_checks(bump(good, (2,) + (1,) * (n - 2), (0, 0, n - 1)))
    assert "qt_symmetry" in bad_checks(bump(good, (n - 1, 1), (1, 0, 0)))
    lam, poly = next(iter(good.items()))
    expo = next(iter(poly))
    assert "schur_positive" in bad_checks(bump(good, lam, expo, by=-2 * poly[expo]))
    halved = copy.deepcopy(good)
    halved[lam][expo] = Fraction(1, 2)
    assert "schur_positive" in bad_checks(halved)


# --- the tracer ---------------------------------------------------------------


def test_tracer_nests_spans_and_counts():
    tracer = Tracer()

    def inner(k):
        return sum(range(k))

    traced_inner = tracer.wrap("inner", inner, lambda args, r: {"items": args[0]})

    def rows(k):
        for i in range(k):
            yield traced_inner(i)

    traced_rows = tracer.wrap("rows", rows)

    def outer():
        return list(traced_rows(5)) + [traced_inner(1000)]

    assert tracer.wrap("outer", outer)() == [0, 0, 1, 3, 6, 499500]
    layers = tracer.layers
    assert layers["inner"].calls == 6 and layers["inner"].counters["items"] == 1010
    assert layers["rows"].calls == 1 and layers["rows"].counters["rows"] == 5
    for layer in layers.values():
        assert 0 <= layer.self_s <= layer.s
    by_name = {}
    for sid, parent, name, start, end, extra in tracer.records:
        by_name.setdefault(name, []).append((sid, parent, start, end, extra))
        assert start <= end
    (outer_id, root, *_), = by_name["outer"]
    (rows_id, rows_parent, _, _, extra), = by_name["rows"]  # one record per generator
    assert root == 0 and rows_parent == outer_id and extra["rows"] == 5
    assert sorted(parent for _, parent, *_ in by_name["inner"]) == [outer_id] + [rows_id] * 5


def test_tracer_installs_skips_absent_and_restores():
    import superdelta.coinvariants as coinvariants
    import superdelta.qtz as qtz
    import superdelta.superring as superring

    original_mul = qtz.QTZPoly.__mul__
    original_enum = superring.enumerate_monomials
    tracer = Tracer()
    tracer.install(TARGETS + [("superdelta.qtz", "no_such_function", "qtz.absent", None)])
    try:
        assert tracer.absent == ["qtz.absent"]
        # the alias bound by `from .superring import enumerate_monomials` is covered
        assert coinvariants.enumerate_monomials is superring.enumerate_monomials
        assert superring.enumerate_monomials is not original_enum
        assert qtz.QTZPoly.__rmul__ is qtz.QTZPoly.__mul__
        a = qtz.QTZPoly({(0, 0, 0): 1, (1, 0, 0): 1})
        b = qtz.QTZPoly({(0, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 2})
        a * b
        a * 3
    finally:
        tracer.uninstall()
    assert qtz.QTZPoly.__mul__ is original_mul and qtz.QTZPoly.__rmul__ is original_mul
    assert superring.enumerate_monomials is original_enum
    assert coinvariants.enumerate_monomials is original_enum
    metrics = tracer.metrics()
    assert metrics["qtz.mul.calls"] == 2 and metrics["qtz.mul.term_pairs"] == 2 * 3 + 2
    assert metrics["coinvariants.modp_certificate.calls"] == 0


# --- the command ----------------------------------------------------------------


def _run(args, cwd, record_dir):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--record-dir", str(record_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_contract_line(trace, tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(["--workload", "delta-n7", "--size", "smoke", "--seed", "5",
                 "--seconds", "0", "--trace", str(trace)], ROOT, tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] == 9
    kind = "per_layer" if trace else "end_to_end"
    assert {m["name"]: m["unit"] for m in bench[kind]} == {
        name: m["unit"] for name, m in last["metrics"].items()
    }
    record = json.loads(next(tmp_path.iterdir()).read_text())
    assert {"python", "numpy", "rat_backend", "nproc", "threads", "src_lines"} <= set(
        record["environment"]
    )


def test_command_fails_without_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "delta-n7", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path, tmp_path / "records")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
