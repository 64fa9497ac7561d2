"""Orchestration: compute both sides, compare, cache, report.

The two sides are computed independently: the module side explores its own
frontier, with its extra verification band, and never sees the Delta side.
A degree is settled once the module side computed it or closed its theta
row, whose cells beyond the frontier the vanishing law makes zero.  EQUAL is
only reported when every theta-row closed and every Schur coefficient
matched exactly.  A disagreement at any settled degree is DIFFER, also on a
run cut short by its budget or max_ab; otherwise such a run is
INCONCLUSIVE, never a false EQUAL.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

from .coinvariants import (
    ComponentCharacters,
    check_gl2_shape,
    check_module_arguments,
    frobenius_module,
)
from .macdonald import rhs_series
from .partitions import Partition, partition_to_str, partitions_of
from .qtz import QTZPoly
from .series import FrobeniusSeries
from .superring import TriDegree

ENGINE_VERSION = "0.2.0"
CACHE_SCHEMA_VERSION = 2

EQUAL = "EQUAL"
DIFFER = "DIFFER"
INCONCLUSIVE = "INCONCLUSIVE"


# --- component cache ----------------------------------------------------------


class ComponentCache:
    """One JSON document per component under cache_dir/n=N/a_b_c.json.

    Writes are atomic (temp file + rename).  `get` treats an entry as a
    miss, and leaves it alone, when the file is absent, unreadable or not
    JSON; when its schema or engine version differs from this one; when
    `n`, `degree`, `dim` or a multiplicity is not a JSON integer; when `n`
    or `degree` differ from the path; when the multiplicity keys are not
    exactly the partitions of n; or when the entry is not a genuine
    quotient component: a negative multiplicity, sum_lam m_lam f^lam other
    than `dim`, or `dim` above the ambient dimension.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.made: set[Path] = set()  # the entry directories made by put

    def entry_path(self, n: int, d: TriDegree) -> Path:
        return self.root / f"n={n}" / f"{d.a}_{d.b}_{d.c}.json"

    def get(self, n: int, d: TriDegree) -> ComponentCharacters | None:
        d = TriDegree(*d)
        try:
            with open(self.entry_path(n, d), "r", encoding="utf-8") as fh:
                data = json.load(fh)
            mult = data["multiplicities"]
            ints = [data["schema_version"], data["n"], *data["degree"], data["dim"],
                    *mult.values()]
            version = (data["schema_version"], data["engine_version"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None
        if any(type(v) is not int for v in ints):  # a float, bool or string
            return None
        if version != (CACHE_SCHEMA_VERSION, ENGINE_VERSION):
            return None
        if data["n"] != n or data["degree"] != list(d):
            return None
        lams = {partition_to_str(lam): lam for lam in partitions_of(n)}
        if set(mult) != set(lams):
            return None
        comp = ComponentCharacters(n, d, {lam: mult[key] for key, lam in lams.items()})
        if any(m < 0 for m in comp.mult.values()):
            return None
        if comp.dim_quotient != data["dim"] or comp.rank < 0:  # dim above the ambient
            return None
        return comp

    def put(self, comp: ComponentCharacters) -> None:
        path = self.entry_path(comp.n, comp.degree)
        if path.parent not in self.made:
            path.parent.mkdir(parents=True, exist_ok=True)
            self.made.add(path.parent)
        payload = json.dumps({
            "schema_version": CACHE_SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "n": comp.n,
            "degree": list(comp.degree),
            "dim": comp.dim_quotient,
            "multiplicities": {partition_to_str(lam): m for lam, m in comp.mult.items()},
        }, sort_keys=True, indent=1).encode("utf-8")
        tmp = f"{path}.{os.getpid()}.tmp"  # the pid keeps two processes apart
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
            try:
                view = memoryview(payload)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# --- comparison and report ----------------------------------------------------


@dataclass
class DiffEntry:
    lam: Partition
    lhs: QTZPoly
    rhs: QTZPoly

    @property
    def difference(self) -> QTZPoly:
        return self.lhs - self.rhs

    def to_json_dict(self) -> dict:
        return {
            "lambda": partition_to_str(self.lam),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "difference": str(self.difference),
        }


def compare_series(lhs: FrobeniusSeries, rhs: FrobeniusSeries) -> list[DiffEntry]:
    """Per-partition differences; empty exactly when the series agree."""
    if lhs.n != rhs.n:
        raise ValueError(f"cannot compare series of degree {lhs.n} and {rhs.n}")
    diffs = []
    for lam in partitions_of(lhs.n):
        a, b = lhs.coefficient(lam), rhs.coefficient(lam)
        if a != b:
            diffs.append(DiffEntry(lam, a, b))
    return diffs


@dataclass
class VerificationReport:
    n: int
    verdict: str
    diffs: list[DiffEntry]
    module_series: FrobeniusSeries
    delta_series: FrobeniusSeries
    specializations: dict
    stats: dict
    timing: dict = field(default_factory=dict)

    def to_json_dict(self, include_timing: bool = True) -> dict:
        data = {
            "engine_version": ENGINE_VERSION,
            "n": self.n,
            "verdict": self.verdict,
            "diffs": [d.to_json_dict() for d in self.diffs],
            "module_series": self.module_series.to_json_dict(),
            "delta_series": self.delta_series.to_json_dict(),
            "specializations": self.specializations,
            "stats": self.stats,
        }
        if include_timing:
            data["timing"] = self.timing
        return data


def verify_conjecture(
    n: int,
    extra_band: int = 1,
    threads: int = 1,
    cache_dir: str | Path | None = None,
    budget_seconds: float | None = None,
    max_ab: int | None = None,
) -> VerificationReport:
    """Compute both sides for n and compare them coefficient by coefficient."""
    check_module_arguments(n, extra_band, threads, budget_seconds, max_ab)
    t0 = time.monotonic()
    rhs = rhs_series(n)
    t_rhs = time.monotonic() - t0
    support = rhs.support()

    cache = ComponentCache(cache_dir) if cache_dir is not None else None
    remaining = None
    if budget_seconds is not None:
        remaining = max(0.0, budget_seconds - t_rhs)
    t1 = time.monotonic()
    module = frobenius_module(
        n,
        extra_band=extra_band,
        threads=threads,
        max_ab=max_ab,
        budget_seconds=remaining,
        component_cache=cache,
    )
    t_module = time.monotonic() - t1

    settled = set(module.components) | {d for d in support if module.rows[d.c]}
    missing = sorted(support - settled)
    # a computed component and a closed row are final, so a disagreement on
    # them is a DIFFER even when the run stopped short; on a closed run every
    # degree is settled and this is the full comparison
    diffs = compare_series(module.series, rhs.restricted(settled))
    if diffs:
        verdict = DIFFER
    else:
        # the delta side has the GL_2 shape too, so a module side without it
        # differs above; a violation here is on both sides
        check_gl2_shape(module)
        if module.closed:
            verdict = EQUAL
        else:
            verdict = INCONCLUSIVE
            diffs = compare_series(module.series, rhs)

    z0 = module.series.specialize(z=0)
    specializations = {
        "z0_q1_t1_dimension": z0.total_dimension(),
        "q1_t1_z1_dimension": module.series.total_dimension(),
        "t0_module_series": module.series.specialize(t=0).to_json_dict()["coeffs"],
        "t0_delta_series": rhs.specialize(t=0).to_json_dict()["coeffs"],
    }
    rows = {
        str(c): {"closed": closed, "components": sum(d.c == c for d in module.components)}
        for c, closed in sorted(module.rows.items())
    }
    stats = {
        "components_computed": len(module.components),
        "max_component_dimension": max(
            (comp.dim for comp in module.components.values()), default=0
        ),
        "frontier_closed": module.closed,
        "rhs_support_size": len(support),
        "rhs_support_missing_on_module_side": [list(d) for d in missing],
        "theta_rows": rows,
        "extra_band": extra_band,
        "schur_positive_module": module.series.is_schur_positive(),
        "schur_positive_delta": rhs.is_schur_positive(),
    }
    timing = {
        "delta_side_seconds": round(t_rhs, 3),
        "module_side_seconds": round(t_module, 3),
        "total_seconds": round(time.monotonic() - t0, 3),
        "threads": threads,
        "python": platform.python_version(),
    }
    return VerificationReport(
        n=n,
        verdict=verdict,
        diffs=diffs,
        module_series=module.series,
        delta_series=rhs,
        specializations=specializations,
        stats=stats,
        timing=timing,
    )


# --- rendering ----------------------------------------------------------------


def render_report(report: VerificationReport, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    if fmt == "csv":
        lines = ["lambda,module,delta,difference"]
        for d in report.diffs:
            lines.append(
                f'"{partition_to_str(d.lam)}","{d.lhs}","{d.rhs}","{d.difference}"'
            )
        return "\n".join(lines)
    if fmt == "latex":
        return _render_latex(report)
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown format {fmt!r}")


def _sorted_lams(report: VerificationReport) -> list[Partition]:
    lams = set(report.module_series.coeffs) | set(report.delta_series.coeffs)
    return [lam for lam in partitions_of(report.n) if lam in lams]


def _render_text(report: VerificationReport) -> str:
    lines = [f"verification n={report.n}: {report.verdict}"]
    lines.append(
        "module components: {} (frontier closed: {})".format(
            report.stats["components_computed"], report.stats["frontier_closed"]
        )
    )
    if report.verdict == EQUAL:
        lines.append("schur expansion (both sides agree):")
        lines += [f"  {line}" for line in report.module_series.pretty_lines()]
    else:
        lines.append("module side:")
        lines += [f"  {line}" for line in report.module_series.pretty_lines()]
        lines.append("delta side:")
        lines += [f"  {line}" for line in report.delta_series.pretty_lines()]
        if report.diffs:
            lines.append("differences:")
            for d in report.diffs:
                lines.append(f"  s({partition_to_str(d.lam)}): {d.difference}")
    spec = report.specializations
    lines.append(
        "specializations: z=0,q=t=1 -> {}; q=t=z=1 -> {}".format(
            spec["z0_q1_t1_dimension"], spec["q1_t1_z1_dimension"]
        )
    )
    lines.append(
        "timing: delta {}s, module {}s".format(
            report.timing.get("delta_side_seconds", "?"),
            report.timing.get("module_side_seconds", "?"),
        )
    )
    return "\n".join(lines)


def _render_latex(report: VerificationReport) -> str:
    lines = [
        r"\begin{tabular}{lll}",
        r"$\lambda$ & module & $\Delta'$ series \\ \hline",
    ]
    for lam in _sorted_lams(report):
        name = partition_to_str(lam)
        lhs = report.module_series.coefficient(lam)
        rhs = report.delta_series.coefficient(lam)
        lines.append(rf"$s_{{{name}}}$ & ${lhs}$ & ${rhs}$ \\")
    lines.append(r"\end{tabular}")
    lines.append(rf"% verdict: {report.verdict}")
    return "\n".join(lines)
