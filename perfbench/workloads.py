"""The benchmark's workloads: their inputs, the engine call each times, and
the plain-data form of each result that the checks read.

``prepare`` and ``call`` run inside a fresh worker process; ``prepare`` is
set-up, ``call`` is the timed section.  ``encode`` turns the engine's
result into JSON-able plain data, ``decode`` turns that into the form
checks.py reads, and ``check`` runs the checks on it.
"""

from __future__ import annotations

import random
import tempfile
from fractions import Fraction

import checks

# workload -> parameters; "smoke" is the small size the tests use
SIZES = {
    "full": {
        "verify-n4": {"n": 4, "threads": 2},
        "module-n5-low": {"n": 5, "max_ab": 3},
        "delta-n7": {"n": 7},
    },
    "smoke": {
        "verify-n4": {"n": 3, "threads": 2},
        "module-n5-low": {"n": 4, "max_ab": 2},
        "delta-n7": {"n": 5},
    },
}
NAMES = tuple(SIZES["full"])


def module_degrees(n: int, max_ab: int, seed: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a + b <= max_ab and 0 <= c <= n, in a seeded order."""
    degrees = [
        (a, s - a, c) for s in range(max_ab + 1) for a in range(s + 1) for c in range(n + 1)
    ]
    random.Random(seed).shuffle(degrees)
    return degrees


def prepare(workload: str, params: dict, seed: int, scratch: str, trace: bool) -> dict:
    """Set-up done before the clock starts: build the inputs of one round."""
    if workload == "verify-n4":
        return {
            "n": params["n"],
            # the traced run stays in one process so every span has a parent
            "threads": 1 if trace else params["threads"],
            "cache_dir": tempfile.mkdtemp(prefix="cache-", dir=scratch),
        }
    if workload == "module-n5-low":
        from superdelta.superring import TriDegree

        degrees = module_degrees(params["n"], params["max_ab"], seed)
        return {"n": params["n"], "degrees": [TriDegree(*d) for d in degrees]}
    if workload == "delta-n7":
        return {"n": params["n"]}
    raise ValueError(f"unknown workload {workload!r}")


def call(workload: str, inputs: dict):
    """The timed engine call.  Functions are looked up at call time, so a
    tracer installed after import sees every call."""
    import superdelta.coinvariants as coinvariants
    import superdelta.macdonald as macdonald
    import superdelta.verifier as verifier

    n = inputs["n"]
    if workload == "verify-n4":
        return verifier.verify_conjecture(
            n, threads=inputs["threads"], cache_dir=inputs["cache_dir"]
        )
    if workload == "module-n5-low":
        return [coinvariants.component_characters(n, d) for d in inputs["degrees"]]
    return macdonald.rhs_series(n)


def _series(series) -> dict:
    return {
        ",".join(map(str, lam)): [[a, b, c, _scalar(x)] for (a, b, c), x in poly.terms.items()]
        for lam, poly in series.coeffs.items()
    }


def _scalar(x):
    return x if isinstance(x, int) else str(x)  # a non-integer fails the checks


def encode(workload: str, result) -> dict:
    if workload == "verify-n4":
        return {
            "verdict": result.verdict,
            "frontier_closed": result.stats["frontier_closed"],
            "components": result.stats["components_computed"],
            "module": _series(result.module_series),
            "delta": _series(result.delta_series),
        }
    if workload == "module-n5-low":
        return {
            "components": [
                {
                    "degree": list(comp.degree),
                    "dim": comp.dim,
                    "rank": comp.rank,
                    "chars": {",".join(map(str, mu)): v for mu, v in comp.chars.items()},
                }
                for comp in result
            ]
        }
    return {"series": _series(result)}


def _partition(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",")) if text else ()


def decode_series(data: dict) -> dict:
    return {
        _partition(lam): {(a, b, c): x if isinstance(x, int) else Fraction(x)
                          for a, b, c, x in terms}
        for lam, terms in data.items()
    }


def decode(workload: str, data: dict) -> dict:
    if workload == "verify-n4":
        return {**data, "module": decode_series(data["module"]),
                "delta": decode_series(data["delta"])}
    if workload == "module-n5-low":
        return {
            "components": {
                tuple(comp["degree"]): {
                    "dim": comp["dim"],
                    "rank": comp["rank"],
                    "chars": {_partition(mu): v for mu, v in comp["chars"].items()},
                }
                for comp in data["components"]
            }
        }
    return {"series": decode_series(data["series"])}


def check(workload: str, params: dict, result: dict, reference: dict | None) -> list:
    """All checks of one round.  reference: the delta series for module-n5-low."""
    n = params["n"]
    if workload == "verify-n4":
        return checks.check_verify(n, result)
    if workload == "module-n5-low":
        return checks.check_module_components(n, result, reference)
    return checks.check_delta(n, result)


def reference_series(n: int) -> dict:
    """The delta side's series, as plain data, for the module-n5-low checks."""
    from superdelta.macdonald import rhs_series

    return decode_series(_series(rhs_series(n)))
