"""Benchmark of godelmodal: one closed-loop client, in process, no threads.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The seed makes the inputs; godelmodal only sees those inputs.
Every output is checked against the reference semantics in reference.py.

--trace 0 measures the end-to-end metrics: the workload's op list (at least
100 ops) runs in whole passes for about --seconds, each op timed on its own
and scaled to a fixed host speed by the yardstick timed beside it (see
Yardstick).  Throughput and latency percentiles are taken over the ops'
median scaled times, see _measure; the unscaled figures go on the summary
line.  --trace 1 runs two passes untraced and one traced and reports the
per-layer metrics of the traced pass (see tracing.py); the spans go to
.bench_out/.

The last line of stdout is the result, one JSON object; lines before it give
provenance and a summary.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import reference as ref
from tracing import METRICS, Tracer
from workloads import BUILDERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# p90 needs at least ten samples beyond it; a per-op median needs a few
# repeats
MIN_OPS = 100
MIN_PASSES = 3
SETUP_REPEATS = 9
# yardstick times on either side of an op that give its host speed, and the
# yardstick runs around each set-up
YARDSTICK_WINDOW = 2
YARDSTICK_SETUP_RUNS = 15
MAX_REPORTED_FAILURES = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


class Yardstick:
    """A fixed piece of work whose time tracks the host's speed.

    The host is shared: other tenants' load slows every instruction by 15-40%
    for seconds to minutes at a time, longer than any one run.  The yardstick
    is reference.py's evaluator (pure Python, Fractions, dicts and recursion,
    like godelmodal) on one fixed 12-world model and formula; it shares no
    code with godelmodal, so a change to the package never moves it.  An op
    time t measured while the yardstick took y is reported as
    t * NOMINAL_S / y: the op's time on a host where the yardstick takes
    NOMINAL_S, its typical time on the 2-vCPU Xeon VM the bounds were set on.
    Set-up times are scaled the same way, by yardstick runs around each
    set-up.
    """

    NOMINAL_S = 0.32e-3
    FORMULA = "[](p -> <>q) & (<>p | ~[]q) -> [](q <-> <>~p)"

    def __init__(self) -> None:
        self.model = ref.random_model(random.Random(12345), 12, "kd45", n_truth=4)
        self.formula = ref.parse(self.FORMULA)
        for _ in range(20):
            self.time()

    def time(self) -> float:
        t0 = perf_counter()
        ref.evaluate(self.model, self.formula)
        return perf_counter() - t0

    def scale(self, yard_times: list[float]) -> float:
        """The factor that turns times measured beside these yardstick times
        into times at the nominal host speed."""
        return self.NOMINAL_S / statistics.median(yard_times)


def _setup(workload: str, seed: int, work: Path):
    """Import godelmodal afresh, build the inputs and model files, and run
    the first op once so lazy work is done before timing."""
    for name in [n for n in sys.modules if n == "godelmodal" or n.startswith("godelmodal.")]:
        del sys.modules[name]
    gm = importlib.import_module("godelmodal")
    cli = importlib.import_module("godelmodal.cli")
    ops = BUILDERS[workload](gm, cli, seed, work)
    try:
        ops[0].call()
    except Exception:  # the measured runs record this op's failure
        pass
    return ops


class Checker:
    """Checks each op's first output fully; later outputs of the same op must
    repeat it exactly, since godelmodal is deterministic."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.digests: list[object] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0

    def run(self, idx: int) -> float:
        op = self.ops[idx]
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an op that raises is a failed op
            elapsed = perf_counter() - t0
            self._fail(idx, f"raised {exc!r}")
            return elapsed
        elapsed = perf_counter() - t0
        digest = op.digest(out)
        if self.digests[idx] is None:
            reason = op.check(out)
            if reason is None:
                self.digests[idx] = digest
        else:
            reason = None if digest == self.digests[idx] else "output differs from the first run of this op"
        if reason is not None:
            self._fail(idx, reason)
        return elapsed

    def _fail(self, idx: int, reason: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"op {idx} failed: {reason}", file=sys.stderr)


def _measure(ops, seconds: float, yard: Yardstick) -> tuple[Checker, list[float], list[float], int]:
    """Run whole passes over the ops until the next pass would overrun the
    time, and return each op's median scaled and median raw latency.

    The yardstick runs right before every op.  An op time is scaled by the
    median of the yardstick times on either side of it, so a stretch of host
    slowdown, which slows both, cancels out.  The median over passes then
    drops the samples the scaling could not correct.
    """
    checker = Checker(ops)
    op_times: list[float] = []
    yard_times: list[float] = []
    passes = 0
    t_start = perf_counter()
    while True:
        for i in range(len(ops)):
            yard_times.append(yard.time())
            op_times.append(checker.run(i))
        passes += 1
        elapsed = perf_counter() - t_start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    scaled: list[list[float]] = [[] for _ in ops]
    raw: list[list[float]] = [[] for _ in ops]
    for k, t in enumerate(op_times):
        window = yard_times[max(0, k - YARDSTICK_WINDOW):k + YARDSTICK_WINDOW + 1]
        scaled[k % len(ops)].append(t * yard.scale(window))
        raw[k % len(ops)].append(t)
    return checker, [statistics.median(s) for s in scaled], [statistics.median(r) for r in raw], passes


def _latencies(per_op: list[float]) -> dict:
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "latency_p50_ms": statistics.median(per_op) * 1e3,
        "latency_p90_ms": statistics.quantiles(per_op, n=10)[8] * 1e3,
    }


def _trace(ops, spans_path: Path) -> tuple[Checker, dict]:
    checker = Checker(ops)
    # The first pass checks every output in full; the garbage those checks
    # leave would slow the next pass, so the untraced baseline is the second.
    for i in range(len(ops)):
        checker.run(i)
    untraced = sum(checker.run(i) for i in range(len(ops)))
    tracer = Tracer()
    tracer.install()
    try:
        traced = 0.0
        for i in range(len(ops)):
            tracer.op_id = i
            traced += checker.run(i)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    return checker, tracer.metrics(len(ops), traced - untraced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "godelmodal" / "__init__.py").is_file():
        print(f"error: no godelmodal sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        yard = Yardstick()
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            before = [yard.time() for _ in range(YARDSTICK_SETUP_RUNS)]
            t0 = perf_counter()
            ops = _setup(args.workload, args.seed, work)
            elapsed = perf_counter() - t0
            after = [yard.time() for _ in range(YARDSTICK_SETUP_RUNS)]
            setup_times.append(elapsed * yard.scale(before + after))
        if len(ops) < MIN_OPS:
            raise SystemExit(f"error: {args.workload} has {len(ops)} ops per pass, fewer than {MIN_OPS}")
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            checker, layer = _trace(ops, spans)
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in METRICS.items()}
            summary = {"ops_per_pass": len(ops), "spans": str(spans.relative_to(ROOT))}
        else:
            checker, scaled, raw, passes = _measure(ops, args.seconds, yard)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                **_latencies(scaled),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": rss_kb / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
            summary = {"ops_per_pass": len(ops), "passes": passes, "latency_samples": len(scaled),
                       "unscaled": _latencies(raw)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(OUT.iterdir()):
            OUT.rmdir()

    summary["failed_ratio"] = checker.failed / checker.attempted
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": checker.attempted,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
    }
    print("provenance " + json.dumps(provenance))
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
