"""Spans around the engine's layers, recorded from outside the engine.

``Tracer.install`` replaces each listed function at its module attribute
(and at every other superdelta module or class attribute bound to the same
object, so ``from .x import f`` call sites are covered) with a wrapper that
opens a span, calls the original and closes the span.  Spans stay in memory
as tuples and are written out at the end.  The process is single-threaded
while traced, so one stack gives every span its parent, and a span's self
time is its duration minus the durations of its direct children.

A generator function gets one span per resumption on the stack (so the
work done between two yields is charged to it and calls made inside it are
its children) but one record in the JSONL output, with its busy time.

A target that a later version of the engine no longer has is skipped and
reported as absent; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field


def _pairs(args, result):
    a, b = args[0], args[1]
    return {"term_pairs": len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)}


# (module, attribute path, span name, counter function(args, result) -> {counter: increment})
TARGETS = [
    ("superdelta.coinvariants", "_modp_is_full_rank", "coinvariants.modp_certificate",
     lambda args, r: {"certified": int(bool(r))}),
    ("superdelta.coinvariants", "spanning_vectors", "coinvariants.spanning_vectors", None),
    ("superdelta.linalg", "Echelon.insert", "linalg.echelon.insert",
     lambda args, r: {"pivots": int(r is not None)}),
    ("superdelta.linalg", "Echelon.reduce_fully", "linalg.echelon.reduce_fully", None),
    ("superdelta.coinvariants", "ideal_component", "coinvariants.ideal_component", None),
    ("superdelta.coinvariants", "component_characters", "coinvariants.component_characters",
     lambda args, r: {"nonzero": int(r.dim_quotient > 0), "max_ambient_dim": ("max", r.dim)}),
    ("superdelta.superring", "enumerate_monomials", "superring.enumerate_monomials", None),
    ("superdelta.coinvariants", "assemble_series", "coinvariants.assemble_series", None),
    ("superdelta.verifier", "compare_series", "verifier.compare_series", None),
    ("superdelta.verifier", "ComponentCache.put", "verifier.cache.put", None),
    ("superdelta.qtz", "QTZPoly.__mul__", "qtz.mul", _pairs),
    ("superdelta.qtz", "divide_exact", "qtz.divide_exact",
     lambda args, r: {"quotient_terms": len(r.terms)}),
    ("superdelta.macdonald", "_delta_context", "macdonald.delta_context", None),
    ("superdelta.macdonald", "delta_prime_ek_en", "macdonald.delta_prime_ek_en", None),
    ("superdelta.macdonald", "ek_pleth", "macdonald.ek_pleth", None),
    ("superdelta.macdonald", "hhl_htilde", "macdonald.hhl_htilde", None),
    ("superdelta.macdonald", "htilde_schur", "macdonald.htilde_schur", None),
]

# per-layer metric -> (span name, field); fields: calls, s (total), self_s, or a counter
METRICS = {
    "coinvariants.modp_certificate.calls": ("coinvariants.modp_certificate", "calls"),
    "coinvariants.modp_certificate.certified": ("coinvariants.modp_certificate", "certified"),
    "coinvariants.modp_certificate.s": ("coinvariants.modp_certificate", "s"),
    "coinvariants.spanning_vectors.rows": ("coinvariants.spanning_vectors", "rows"),
    "coinvariants.spanning_vectors.s": ("coinvariants.spanning_vectors", "s"),
    "linalg.echelon.inserts": ("linalg.echelon.insert", "calls"),
    "linalg.echelon.pivots": ("linalg.echelon.insert", "pivots"),
    "linalg.echelon.insert.s": ("linalg.echelon.insert", "s"),
    "linalg.echelon.reduce_fully.s": ("linalg.echelon.reduce_fully", "s"),
    "coinvariants.ideal_component.calls": ("coinvariants.ideal_component", "calls"),
    "coinvariants.ideal_component.self_s": ("coinvariants.ideal_component", "self_s"),
    "coinvariants.component_characters.calls": ("coinvariants.component_characters", "calls"),
    "coinvariants.component_characters.nonzero": ("coinvariants.component_characters", "nonzero"),
    "coinvariants.component_characters.self_s": ("coinvariants.component_characters", "self_s"),
    "coinvariants.max_ambient_dim": ("coinvariants.component_characters", "max_ambient_dim"),
    "superring.enumerate_monomials.calls": ("superring.enumerate_monomials", "calls"),
    "superring.enumerate_monomials.s": ("superring.enumerate_monomials", "s"),
    "coinvariants.assemble_series.s": ("coinvariants.assemble_series", "s"),
    "verifier.compare_series.s": ("verifier.compare_series", "s"),
    "verifier.cache.puts": ("verifier.cache.put", "calls"),
    "verifier.cache.put.s": ("verifier.cache.put", "s"),
    "qtz.mul.calls": ("qtz.mul", "calls"),
    "qtz.mul.term_pairs": ("qtz.mul", "term_pairs"),
    "qtz.mul.s": ("qtz.mul", "s"),
    "qtz.divide_exact.calls": ("qtz.divide_exact", "calls"),
    "qtz.divide_exact.quotient_terms": ("qtz.divide_exact", "quotient_terms"),
    "qtz.divide_exact.s": ("qtz.divide_exact", "s"),
    "macdonald.delta_context.self_s": ("macdonald.delta_context", "self_s"),
    "macdonald.delta_prime_ek_en.self_s": ("macdonald.delta_prime_ek_en", "self_s"),
    "macdonald.ek_pleth.s": ("macdonald.ek_pleth", "s"),
    "macdonald.hhl_htilde.s": ("macdonald.hhl_htilde", "s"),
    "macdonald.htilde_schur.self_s": ("macdonald.htilde_schur", "self_s"),
}


@dataclass
class Layer:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def get(self, key: str):
        if key in ("calls", "s", "self_s"):
            return getattr(self, key)
        return self.counters.get(key, 0)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.records: list[tuple] = []  # (id, parent, name, start, end, extra)
        self.layers: dict[str, Layer] = {}
        self.absent: list[str] = []
        self.opened = 0
        # stack frames: [span id, child seconds]
        self._stack: list[list] = [[0, 0.0]]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, sid: int) -> float:
        self._stack.append([sid, 0.0])
        self.opened += 1
        return self.clock()

    def _close(self, name: str, start: float) -> tuple[float, int]:
        end = self.clock()
        _sid, child = self._stack.pop()
        dur = end - start
        layer = self.layers[name]
        layer.s += dur
        layer.self_s += dur - child
        self._stack[-1][1] += dur
        return end, self._stack[-1][0]

    def _count(self, name: str, counter, args, result) -> None:
        if counter is None:
            return
        counters = self.layers[name].counters
        for key, inc in counter(args, result).items():
            if isinstance(inc, tuple):  # ("max", value)
                counters[key] = max(counters.get(key, 0), inc[1])
            else:
                counters[key] = counters.get(key, 0) + inc

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        self.layers.setdefault(name, Layer())
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._new_id()
            start = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end, parent = tracer._close(name, start)
                tracer.layers[name].calls += 1
                tracer.records.append((sid, parent, name, start, end, None))
            tracer._count(name, counter, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            sid = tracer._new_id()
            tracer.layers[name].calls += 1
            first = parent = last = None
            busy = 0.0
            rows = 0
            try:
                while True:
                    start = tracer._open(sid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        last, parent = tracer._close(name, start)
                        busy += last - start
                        if first is None:
                            first = start
                    rows += 1
                    yield item
            finally:
                gen.close()
                layer = tracer.layers[name]
                layer.counters["rows"] = layer.counters.get("rows", 0) + rows
                if first is not None:
                    tracer.records.append(
                        (sid, parent, name, first, last, {"busy_s": busy, "rows": rows})
                    )

        traced.__wrapped__ = fn
        return traced

    # -- installing ---------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for module_name, path, name, counter in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                self.layers.setdefault(name, Layer())
                continue
            wrapped = self.wrap(name, original, counter)
            if outer:  # a class attribute; cover aliases such as __rmul__ = __mul__
                holders = [owner]
            else:
                holders = [
                    mod for key, mod in list(sys.modules.items())
                    if key == "superdelta" or key.startswith("superdelta.")
                ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, value))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def overhead_per_span(self, calls: int = 20000) -> float:
        """Seconds one wrapped call costs over a plain call, measured on a no-op."""

        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap("probe", noop)
        best = []
        for fn in (noop, wrapped, noop, wrapped):
            t0 = self.clock()
            for _ in range(calls):
                fn()
            best.append(self.clock() - t0)
        plain = min(best[0], best[2])
        traced = min(best[1], best[3])
        return max(traced - plain, 0.0) / calls

    def metrics(self) -> dict[str, float]:
        out = {}
        for metric, (name, key) in METRICS.items():
            layer = self.layers.get(name)
            out[metric] = layer.get(key) if layer is not None else 0
        out["trace.overhead_s"] = self.opened * self.overhead_per_span()
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, extra in self.records:
                rec = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")

    def summary(self) -> dict:
        return {
            "layers": {
                name: {"calls": layer.calls, "s": layer.s, "self_s": layer.self_s,
                       **layer.counters}
                for name, layer in sorted(self.layers.items())
            },
            "absent": self.absent,
            "spans": len(self.records),
        }
