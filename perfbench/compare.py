"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records run.py writes (--record-dir).  For
every workload and metric the table gives each set's run count, median and
quartiles, the spread (quartile distance over median) and the change of the
new median against the base median, signed so that positive is worse.  An
end-to-end metric is within bound when that change does not exceed the
metric's bound in BENCHMARK.json; the share of failed operations must also
be equal.  Per-layer metrics from traced runs are listed without a bound.
Exits 1 when any end-to-end metric is out of bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """(workload, size, trace) -> list of run records."""
    groups: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        groups.setdefault((rec["workload"], rec["size"], rec["trace"]), []).append(rec)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records: list, metric: str) -> dict:
    values = [rec["metrics"][metric]["value"] for rec in records]
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def failed_share(records: list) -> str:
    failed = sum(rec["failed"] for rec in records)
    attempted = sum(rec["attempted"] for rec in records)
    return f"{failed}/{attempted}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {0: bench["end_to_end"], 1: bench["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    ok = True
    for key in sorted(set(base) & set(new)):
        workload, size, trace = key
        a, b = base[key], new[key]
        share_a, share_b = failed_share(a), failed_share(b)
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        print(f"\n{workload} ({size}, trace {trace}): failed {share_a} vs {share_b}"
              + ("" if fa == fb else "  FAILED SHARE DIFFERS"))
        if not trace:
            ok &= fa == fb
        print(f"  {'metric':44} {'base median [q1, q3]':>30} {'new median [q1, q3]':>30}"
              f" {'spread':>13} {'change':>8}")
        for m in metrics[trace]:
            sa, sb = summarize(a, m["name"]), summarize(b, m["name"])
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
            verdict = ""
            if "bound" in m:
                within = change <= m["bound"]
                ok &= within
                verdict = f"  {'within' if within else 'OUT OF'} bound {m['bound']:g}"
            print(
                f"  {m['name']:44}"
                f" {sa['median']:>12.5g} [{sa['q1']:.5g}, {sa['q3']:.5g}]"
                f" {sb['median']:>12.5g} [{sb['q1']:.5g}, {sb['q3']:.5g}]"
                f" {sa['spread']:>6.3f}/{sb['spread']:<6.3f} {change:>+8.3f}{verdict}"
            )
    only = sorted(set(base) ^ set(new))
    if only:
        print("\nin one set only: " + ", ".join(f"{w} ({s}, trace {t})" for w, s, t in only))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
