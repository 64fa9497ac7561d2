"""Checks of engine output against known theorems, made apart from the engine.

Nothing here imports superdelta.  Series arrive as plain data,
``{partition: {(a, b, c): int}}`` (partitions as tuples), and every number a
check compares against is computed in this file: hook-length counts,
Stirling numbers, Murnaghan-Nakayama characters, centralizer orders.

Each check returns a list of ``Check`` items; one item is one operation of
the benchmark, attempted and either passed or failed.  Item names are stable
so that the perturbation tests can name the check they expect to fail.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import NamedTuple


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


# --- combinatorics, computed here -------------------------------------------


@cache
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n, largest first part first."""

    def gen(rest: int, largest: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def hook_count(lam: tuple[int, ...]) -> int:
    """f^lam, the number of standard Young tableaux, by the hook length formula."""
    n = sum(lam)
    conj = [sum(1 for part in lam if part > i) for i in range(lam[0])] if lam else []
    hooks = 1
    for j, row in enumerate(lam):
        for i in range(row):
            hooks *= (row - i - 1) + (conj[i] - j - 1) + 1
    return factorial(n) // hooks


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def centralizer(mu: tuple[int, ...]) -> int:
    out = 1
    for part in set(mu):
        m = mu.count(part)
        out *= part**m * factorial(m)
    return out


@cache
def sn_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^lam(mu) by Murnaghan-Nakayama on beta-sets (border strip removal)."""
    if not mu:
        return 1 if not lam else 0
    r, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    members = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in members:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((nb if x == b else x for x in beta), reverse=True)
        k = len(new_beta)
        shape = tuple(p for p in (new_beta[i] - (k - 1 - i) for i in range(k)) if p)
        total += (-1) ** height * sn_character(shape, rest)
    return total


# --- helpers on plain series ------------------------------------------------


def dimension_z0(series: dict) -> int:
    """Dimension at z = 0, q = t = 1: sum over lam of f^lam * coefficient(lam)."""
    return sum(
        hook_count(lam) * sum(x for (a, b, c), x in poly.items() if c == 0)
        for lam, poly in series.items()
    )


def slab_dimension(series: dict, j: int) -> int:
    """Dimension of the z^j slab at t = 0, q = 1."""
    total = 0
    for lam, poly in series.items():
        total += hook_count(lam) * sum(x for (a, b, c), x in poly.items() if c == j and b == 0)
    return total


def multiplicities(n: int, chars: dict) -> dict:
    """Schur multiplicities <chi, chi^lam> of one component; Fractions if not integral."""
    out = {}
    for lam in partitions(n):
        total = sum(
            Fraction(chars[mu] * sn_character(lam, mu), centralizer(mu)) for mu in partitions(n)
        )
        if total:
            out[lam] = total
    return out


# --- the checks --------------------------------------------------------------


def check_slabs(n: int, series: dict) -> list[Check]:
    """z^j slab at t=0, q=1 has dimension (n-j)! S(n, n-j) (Haglund-Rhoades-Shimozono)."""
    out = []
    for j in range(n):
        want = factorial(n - j) * stirling2(n, n - j)
        got = slab_dimension(series, j)
        out.append(Check(f"slab_dim[{j}]", got == want, f"{got} != {want}"))
    return out


def check_haiman(n: int, series: dict) -> Check:
    """z=0, q=t=1 dimension (n+1)^(n-1) (Haiman)."""
    got = dimension_z0(series)
    want = (n + 1) ** (n - 1)
    return Check("haiman_dim", got == want, f"{got} != {want}")


def check_qt_symmetry(series: dict) -> Check:
    bad = [
        lam for lam, poly in series.items()
        if poly != {(b, a, c): x for (a, b, c), x in poly.items()}
    ]
    return Check("qt_symmetry", not bad, f"not symmetric at {bad[:3]}")


def check_positive(series: dict, name: str) -> Check:
    bad = [
        lam for lam, poly in series.items()
        if any(not isinstance(x, int) or x <= 0 for x in poly.values())
    ]
    return Check(name, not bad, f"coefficients outside N[q,t,z] at {bad[:3]}")


def check_verify(n: int, result: dict) -> list[Check]:
    """verify_conjecture(n): verdict, frontier, and the module series' theorems."""
    module, delta = result["module"], result["delta"]
    out = [
        Check(
            "verdict_equal",
            result["verdict"] == "EQUAL" and module == delta,
            f"verdict {result['verdict']}, series equal: {module == delta}",
        ),
        Check("frontier_closed", result["frontier_closed"] is True),
        check_haiman(n, module),
    ]
    out += check_slabs(n, module)
    out.append(check_qt_symmetry(module))
    out.append(check_positive(module, "nonnegative"))
    return out


def check_module_components(n: int, result: dict, reference: dict) -> list[Check]:
    """component_characters at each degree against the delta side and the mirror.

    reference is the delta side's series for the same n.
    """
    comps = result["components"]
    out = []
    for d, comp in sorted(comps.items()):
        mults = multiplicities(n, comp["chars"])
        want = {lam: poly[d] for lam, poly in reference.items() if d in poly}
        out.append(Check(f"mult_match[{d}]", mults == want, f"{mults} != {want}"))
        dim_quotient = comp["dim"] - comp["rank"]
        got = sum(m * hook_count(lam) for lam, m in mults.items())
        out.append(Check(f"dim_match[{d}]", got == dim_quotient, f"{got} != {dim_quotient}"))
    for (a, b, c), comp in sorted(comps.items()):
        if a > b and (b, a, c) in comps:
            other = comps[(b, a, c)]
            out.append(
                Check(
                    f"mirror[{(a, b, c)}]",
                    comp["chars"] == other["chars"],
                    f"characters differ from ({b}, {a}, {c})",
                )
            )
    return out


def check_delta(n: int, result: dict) -> list[Check]:
    """rhs_series(n): slabs, Haiman, top slab s(1^n), symmetry, Schur positivity."""
    series = result["series"]
    out = check_slabs(n, series)
    out.append(check_haiman(n, series))
    top = {
        lam: {(a, b, 0): x for (a, b, c), x in poly.items() if c == n - 1}
        for lam, poly in series.items()
    }
    top = {lam: poly for lam, poly in top.items() if poly}
    out.append(Check("top_slab", top == {(1,) * n: {(0, 0, 0): 1}}, f"z^{n - 1} slab {top}"))
    out.append(check_qt_symmetry(series))
    out.append(check_positive(series, "schur_positive"))
    return out
