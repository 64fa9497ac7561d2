"""One round of one workload, in a fresh interpreter.

run.py starts this file once per round (and once per set-up probe), so the
engine's functools caches start cold as they do for a user.  It prints one
JSON line: set-up seconds, the timed section's wall and CPU seconds and
peak RSS, the encoded result, and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-prefix", default=None)
    args = ap.parse_args()

    import superdelta  # noqa: F401  (set-up: the import a user pays)
    import workloads

    params = workloads.SIZES[args.size][args.workload]
    inputs = workloads.prepare(args.workload, params, args.seed, args.scratch, bool(args.trace))
    out = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(out))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    self0, children0 = _usage()
    w0 = time.perf_counter()
    result = workloads.call(args.workload, inputs)
    wall = time.perf_counter() - w0
    self1, children1 = _usage()
    if tracer is not None:
        tracer.uninstall()

    out["wall_s"] = wall
    out["cpu_s"] = _cpu(self1) - _cpu(self0) + _cpu(children1) - _cpu(children0)
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest reaped child
    out["peak_rss_mb"] = max(self1.ru_maxrss, children1.ru_maxrss) / 1024
    out["threads"] = inputs.get("threads", 1)
    out["result"] = workloads.encode(args.workload, result)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["trace_summary"] = tracer.summary()
        if args.trace_prefix:
            tracer.write_jsonl(args.trace_prefix + ".spans.jsonl")
            with open(args.trace_prefix + ".summary.json", "w", encoding="utf-8") as fh:
                json.dump(out["trace_summary"], fh, indent=1, sort_keys=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
