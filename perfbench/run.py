"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-n4 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds src/superdelta.  Each round
starts a fresh interpreter (worker.py) that imports the engine, builds its
inputs and times one engine call; rounds repeat until the timed sections add
up to --seconds (at least one round).  Set-up is also probed on its own a few
times.  After the rounds, every result is checked against known theorems
(checks.py); each checked item is one operation attempted.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the engine's layers are wrapped from outside (tracing.py) and the
per-layer ones are reported instead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A record
of the run, with environment metadata, goes to --record-dir for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_PROBES = 11

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class WorkerError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py with args; return its JSON line.  Kills its whole process
    group if the run's deadline passes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(spawned_at)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker ran past the {RUN_LIMIT_S} s limit: {' '.join(args)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker failed ({proc.returncode}):\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "superdelta").rglob("*.py"))
    )


def environment(threads: int) -> dict:
    from superdelta.rationals import RAT

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "rat_backend": "gmpy2" if RAT.__module__.startswith("gmpy2") else "fraction",
        "nproc": os.cpu_count(),
        "threads": threads,
        "src_lines": src_lines(),
        "machine": platform.machine(),
    }


def run(args) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    params = workloads.SIZES[args.size][args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        common = [args.workload, "--size", args.size, "--seed", str(args.seed),
                  "--scratch", scratch]
        setups = [
            spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        rounds = []
        trace_dir = out_dir / "trace"
        while not rounds or sum(r["wall_s"] for r in rounds) < args.seconds:
            extra = ["--trace", str(args.trace)]
            if args.trace:
                trace_dir.mkdir(exist_ok=True)
                extra += ["--trace-prefix", str(trace_dir / f"{args.workload}-{args.size}")]
            rounds.append(spawn(common + extra, deadline))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    reference = None
    if args.workload == "module-n5-low":
        reference = workloads.reference_series(params["n"])
    items = []
    for r in rounds:
        items += workloads.check(
            args.workload, params, workloads.decode(args.workload, r["result"]), reference
        )
    failures = [item for item in items if not item.ok]

    if args.trace:
        values = {
            name: statistics.median(r["layers"][name] for r in rounds)
            for name in units if name != "src.lines"
        }
        values["src.lines"] = src_lines()
    else:
        values = {
            name: statistics.median(r[name] for r in rounds)
            for name in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        values["setup_s"] = statistics.median(setups + [r["setup_s"] for r in rounds])
    missing = set(units) ^ set(values)
    if missing:
        raise WorkerError(f"metrics do not match BENCHMARK.json {kind}: {sorted(missing)}")
    env = environment(rounds[0]["threads"])
    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "rounds": [{k: v for k, v in r.items() if k != "result"} for r in rounds],
        "setup_probes": setups,
        "attempted": len(items),
        "failed": len(failures),
        "failures": [f"{item.name}: {item.detail}" for item in failures],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="smoke runs each workload at a small size, in seconds")
    ap.add_argument("--record-dir", default=str(HERE / "out" / "runs"),
                    help="where the JSON record of this run is written")
    args = ap.parse_args()

    if not (ROOT / "src" / "superdelta" / "__init__.py").is_file():
        print(f"no engine source under {ROOT / 'src' / 'superdelta'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        record = run(args)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    env = record["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    rounds = record["rounds"]
    print(f"workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{len(rounds)} round(s), trace {args.trace}")
    for line in record["failures"]:
        print(f"FAILED {line}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        absent = rounds[0]["trace_summary"]["absent"]
        if absent:
            print("absent layers (read as 0): " + ", ".join(absent))

    record_dir = Path(args.record_dir)
    record_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (record_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
