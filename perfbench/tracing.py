"""Outside-in per-layer tracing of godelmodal for the traced benchmark run.

The tracer replaces chosen public functions of the package by wrappers that
record one span each: function, start, end, parent span and op id.  A
wrapper is installed under every name, in every ``godelmodal.*`` module, that
is bound to the original function object, because ``cli`` and ``decider``
import names directly.  Spans stay in memory; self time is a span's duration
minus the durations of its child spans.

A traced function that the package no longer defines is skipped, and the
metrics built on it read null.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# Layer metric group -> the (module, function) pairs whose spans it sums.
GROUPS = {
    "syntax.parse": (("syntax", "parse"),),
    "algebra.round": (("algebra", "round_down"), ("algebra", "round_up")),
    "semantics.eval": (("semantics", "eval_pig"), ("semantics", "eval_pigf"), ("semantics", "eval_rel")),
    "semantics.frame_report": (("semantics", "frame_report"),),
    "semantics.filtrate": (("semantics", "filtrate"),),
    "semantics.transport": (("semantics", "transport"),),
    "semantics.json": (("semantics", "model_to_json"), ("semantics", "model_from_json")),
    "decider.sample": (("decider", "random_pigf_model"),),
    "decider.random_search": (("decider", "random_search"),),
    "decider.exhaustive": (("decider", "decide"),),
    "decider.shrink": (("decider", "shrink"),),
    "decider.verdict_json": (("decider", "verdict_to_json"),),
    "cli.run": (("cli", "run"),),
}

# name -> unit of every per-layer metric, in report order.
METRICS = {
    "decider.sample.models": "count",
    "decider.sample.self_s": "s",
    "decider.random_search.calls": "count",
    "decider.random_search.self_s": "s",
    "decider.random.hit_ratio": "ratio",
    "decider.exhaustive.models_checked": "count",
    "decider.exhaustive.self_s": "s",
    "decider.exhaustive.models_per_s": "1/s",
    "decider.hybrid.fallback_ratio": "ratio",
    "decider.shrink.calls": "count",
    "decider.shrink.self_s": "s",
    "decider.shrink.size_ratio": "ratio",
    "decider.verdict_json.self_s": "s",
    "semantics.json.self_s": "s",
    "semantics.eval.calls": "count",
    "semantics.eval.self_s": "s",
    "semantics.frame_report.self_s": "s",
    "semantics.filtrate.self_s": "s",
    "semantics.transport.self_s": "s",
    "algebra.round.calls": "count",
    "algebra.round.self_s": "s",
    "syntax.parse.calls": "count",
    "syntax.parse.self_s": "s",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "trace.overhead_s": "s",
    "ops.share_sweep": "ratio",
    "ops.share_shrink": "ratio",
    "ops.share_eval_rel": "ratio",
}


def _size(model) -> int:
    return len(model.worlds) + len(model.truth_set)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.present: set[str] = set()
        self.restore: list[tuple[object, str, object]] = []
        # counters read off arguments and results at layer boundaries
        self.random_hits = 0
        self.last_random_hit = False
        self.hybrid_calls = 0
        self.fallbacks = 0
        self.models_checked = 0
        self.sweep_ops: set[int] = set()
        self.shrink_before = 0
        self.shrink_after = 0

    # -- hooks --------------------------------------------------------------

    def _after_random_search(self, args, kwargs, result) -> None:
        self.last_random_hit = result is not None
        self.random_hits += self.last_random_hit

    def _after_decide(self, args, kwargs, result) -> None:
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        mode = getattr(cfg, "mode", "hybrid")
        # hybrid runs random search first and reaches the sweep only when
        # that search came back empty
        fell_back = mode == "hybrid" and not self.last_random_hit
        self.hybrid_calls += mode == "hybrid"
        self.fallbacks += fell_back
        if mode == "exhaustive" or fell_back:
            self.sweep_ops.add(self.op_id)
        if type(result).__name__ == "Valid":
            self.models_checked += result.models_checked

    def _after_shrink(self, args, kwargs, result) -> None:
        self.shrink_before += _size(args[0])
        self.shrink_after += _size(result[0])

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_of.append(name_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "decider.random_search": self._after_random_search,
            "decider.decide": self._after_decide,
            "decider.shrink": self._after_shrink,
        }
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "godelmodal" or name.startswith("godelmodal."))]
        for pairs in GROUPS.values():
            for mod, fn_name in pairs:
                owner = sys.modules.get(f"godelmodal.{mod}")
                fn = getattr(owner, fn_name, None)
                if fn is None:
                    continue
                qualified = f"{mod}.{fn_name}"
                self.present.add(qualified)
                wrapper = self._wrap(qualified, fn, hooks.get(qualified))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self.restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.restore):
            setattr(module, attr, fn)
        self.restore.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def metrics(self, n_ops: int, overhead_s: float) -> dict[str, float | None]:
        own = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        ops_by_name: dict[str, set[int]] = {}
        for idx, name_id in enumerate(self.name_of):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[idx]
            ops_by_name.setdefault(name, set()).add(self.op[idx])

        def group(label: str, table: dict, empty):
            names = [f"{m}.{f}" for m, f in GROUPS[label]]
            if not any(n in self.present for n in names):
                return None
            return sum((table.get(n, empty) for n in names), empty)

        def ratio(num, den):
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        def share(label: str, ops: set[int]):
            return None if label not in self.present else len(ops) / n_ops

        out: dict[str, float | None] = {}
        for label in GROUPS:
            out[f"{label}.calls"] = group(label, calls, 0)
            out[f"{label}.self_s"] = group(label, self_s, 0.0)
        searched = out["decider.random_search.calls"]
        deciding = out["decider.exhaustive.calls"]
        shrinking = out["decider.shrink.calls"]
        out["decider.sample.models"] = out["decider.sample.calls"]
        out["decider.random.hit_ratio"] = ratio(None if searched is None else self.random_hits, searched)
        out["decider.exhaustive.models_checked"] = None if deciding is None else self.models_checked
        out["decider.exhaustive.models_per_s"] = ratio(
            out["decider.exhaustive.models_checked"], out["decider.exhaustive.self_s"])
        # a hybrid decision's fallback is read off its random search
        known = deciding is not None and searched is not None
        out["decider.hybrid.fallback_ratio"] = ratio(
            self.fallbacks if known else None, self.hybrid_calls if known else None)
        out["decider.shrink.size_ratio"] = ratio(
            None if shrinking is None else self.shrink_after, None if shrinking is None else self.shrink_before)
        out["trace.overhead_s"] = overhead_s
        out["ops.share_sweep"] = len(self.sweep_ops) / n_ops if known else None
        out["ops.share_shrink"] = share("decider.shrink", ops_by_name.get("decider.shrink", set()))
        out["ops.share_eval_rel"] = share("semantics.eval_rel", ops_by_name.get("semantics.eval_rel", set()))
        return {name: out[name] for name in METRICS}

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, function, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tfunction\tstart\tend\tparent\top\n")
            for idx, name_id in enumerate(self.name_of):
                fh.write(f"{idx}\t{self.names[name_id]}\t{self.start[idx]!r}\t{self.end[idx]!r}"
                         f"\t{self.parent[idx]}\t{self.op[idx]}\n")
