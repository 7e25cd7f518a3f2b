"""One workload, one mode, one fresh process.  ``run.py`` starts this with a
scrubbed environment and reads one JSON object from its standard output.

Untraced mode (``--trace 0``) measures the end-to-end metrics with every
kind of tracing off.  Traced mode (``--trace 1``) interleaves untraced and
span-recorded passes, then runs one pass with counting semirings, and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

#: timed ops a workload must reach whatever ``--seconds`` says: the 90th
#: percentile then has at least ten samples beyond it
MIN_TIMED_OPS = 100
#: how many times set-up runs in an untraced run (``setup_s`` is the median)
SETUPS = 3
#: ``peak_rss_mb`` is read after this many timed passes, so it covers the
#: same work in every run however many passes the time budget allows
RSS_AFTER_PASSES = 8


def die(message: str) -> None:
    print(f"benchmark worker: {message}", file=sys.stderr)
    raise SystemExit(2)


def timed_import(harness: Any) -> Tuple[float, Any, Any]:
    """Import the program (through ``calls``, its only importer) afresh.
    Returns (raw seconds, calibration before, calibration after)."""
    for name in [n for n in sys.modules if n == "calls" or n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    before = harness.calibrate()
    start = perf_counter()
    import calls  # noqa: F401

    raw = perf_counter() - start
    return raw, before, harness.calibrate()


def timed_setup(workload: Any, inputs: Any, harness: Any) -> Tuple[Any, float, float, List[Any]]:
    """Load + materialise + one warm-up pass.
    Returns (state, normalised seconds, raw seconds, warm-up records)."""
    gc.collect()
    before = harness.calibrate()
    start = perf_counter()
    state = workload.setup(inputs)
    warm = harness.run_pass(workload, state, 0)
    raw = perf_counter() - start
    factor = harness.speed_factor(before, harness.calibrate(), workload.memory_share)
    return state, raw * factor, raw, warm


def verify(workload: Any, inputs: Any, state: Any, records: Sequence[Any]) -> List[str]:
    """One line per op of the last pass whose result the oracle rejects."""
    failures: List[str] = []
    cache: Dict[Any, Any] = {}
    for record in records:
        if record.error is not None:
            continue
        try:
            lines = workload.check(inputs, state, record, cache)
        except Exception as exc:  # a crashing check is a failed check
            lines = [f"{record.kind}: verification raised {exc!r}"]
        if lines:
            failures.append("; ".join(lines[:3]))
    return failures


def op_errors(records: Sequence[Any], prefix: str = "") -> List[str]:
    return [
        f"{prefix}{record.kind} raised: {record.error.strip().splitlines()[-1]}"
        for record in records
        if record.error is not None
    ]


def all_records(passes: Sequence[Any]) -> List[Any]:
    return [record for sample in passes for record in sample.records]


# -- untraced: the end-to-end metrics ---------------------------------------------


def run_untraced(workload: Any, inputs: Any, args: Any, imports: List[Any]) -> Dict[str, Any]:
    import harness

    state, build, raw_build, warm = timed_setup(workload, inputs, harness)
    builds, raw_builds = [build], [raw_build]
    harness.freeze_heap()

    rss_kb: List[int] = []

    def read_rss(done: int) -> None:
        if done == RSS_AFTER_PASSES:
            rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    passes = harness.timed_passes(
        workload,
        state,
        seconds=0 if args.quick else args.seconds,
        min_passes=2 if args.quick else max(RSS_AFTER_PASSES, -(-MIN_TIMED_OPS // len(workload.plan))),
        on_pass=read_rss,
    )
    rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)  # --quick: at the end
    failures = (
        op_errors(warm, "warm-up ")
        + op_errors(all_records(passes))
        + verify(workload, inputs, state, passes[-1].records)
    )

    e2e = harness.end_to_end(passes)
    kind_ms = harness.per_kind_ms(passes)
    raw_latencies = [record.seconds * 1e3 for record in all_records(passes)]
    factors = [sample.factor for sample in passes]

    # The remaining set-ups run last, in the emptied process: ``peak_rss_mb``
    # above then covers exactly one set-up, and ``setup_s`` is still a median.
    del state, passes, warm
    gc.unfreeze()
    for _ in range(0 if args.quick else SETUPS - 1):
        _state, build, raw_build, _warm = timed_setup(workload, inputs, harness)
        del _state, _warm
        builds.append(build)
        raw_builds.append(raw_build)
    # Re-imports come last of all: code loaded earlier resolves its lazy
    # imports through ``sys.modules`` and must not meet a second copy.
    for _ in range(0 if args.quick else SETUPS - 1):
        imports.append(timed_import(harness))
    import_s = harness.median(
        [raw * harness.speed_factor(b, a, workload.memory_share) for raw, b, a in imports]
    )
    return {
        "attempted": e2e["timed_ops"],
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {
            "setup_s": import_s + harness.median(builds),
            "ops_per_s": e2e["ops_per_s"],
            "op_ms_p50": e2e["op_ms_p50"],
            "op_ms_p90": e2e["op_ms_p90"],
            "peak_rss_mb": rss_kb[0] / 1024.0,
        },
        "info": {
            "timed_ops": e2e["timed_ops"],
            "samples_beyond_p90": e2e["samples_beyond_p90"],
            "passes": e2e["passes"],
            "pass_ms": e2e["pass_ms"],
            "fail_frac": len(failures) / e2e["timed_ops"],
            "op_kind_ms": kind_ms,
        },
        "raw": {
            "import_s": [raw for raw, _before, _after in imports],
            "build_s": raw_builds,
            "op_ms_p50": harness.percentile(raw_latencies, 0.5)[0],
            "op_ms_p90": harness.percentile(raw_latencies, 0.9)[0],
            "speed_factors": factors,
        },
    }


# -- traced: the per-layer metrics ---------------------------------------------------


class Tracer:
    """The span recorder with its two patch sets and the program's always-on
    counters, switched together around set-up and around single passes."""

    def __init__(self) -> None:
        import calls
        import spans

        self.calls = calls
        self.recorder = spans.Recorder()
        namespaces = calls.namespaces()
        self.setup_patch = spans.Patch(
            self.recorder,
            calls.SETUP_BOUNDARIES,
            calls.resolve,
            namespaces,
            # rows a load call put into a relation (``__init__`` returns None)
            {"relations.load": lambda a, result: len(result if result is not None else a[0])},
        )
        self.pass_patch = spans.Patch(
            self.recorder,
            calls.PASS_BOUNDARIES,
            calls.resolve,
            namespaces,
            {"engine.vectorized": lambda _a, result: result is None},  # declined
        )
        #: what the program's compile / consing counters gained over the first
        #: traced pass (the pass the exact counts come from)
        self.first_pass_counters: Dict[str, Dict[str, float]] = {}
        self._before: Dict[str, Dict[str, float]] = {}

    @property
    def missing(self) -> List[str]:
        return sorted(self.setup_patch.missing + self.pass_patch.missing)

    def setup(self, workload: Any, inputs: Any) -> Any:
        self.setup_patch.on()
        root = self.recorder.open("bench.setup")
        try:
            return workload.setup(inputs)
        finally:
            self.recorder.close(root)
            self.setup_patch.off()

    def switch(self, on: bool) -> Optional[Any]:
        """``harness.timed_passes``'s ``trace`` callback."""
        calls = self.calls
        if on:
            self.pass_patch.on()
            calls.count_consing(True)
            self._before = {"compile": calls.compile_stats(), "consing": calls.consing_stats()}
            return self.recorder
        if not self.first_pass_counters:
            after = {"compile": calls.compile_stats(), "consing": calls.consing_stats()}
            self.first_pass_counters = {
                family: {key: after[family][key] - value for key, value in before.items()}
                for family, before in self._before.items()
            }
        self.pass_patch.off()
        calls.count_consing(False)
        return None


def exact_counts(workload: Any, state: Any, tracer: Tracer, first: Any) -> Dict[str, float]:
    """Counts of the first traced pass: the same pass number in every run,
    however many passes the time budget allowed."""
    import metrics
    import spans

    recorded = tracer.recorder.spans
    width = len(workload.plan)
    of_pass = [sp for sp in recorded if sp[spans.OP] // width == first.number]

    def spans_named(name: str) -> List[Any]:
        return [sp for sp in of_pass if sp[spans.NAME] == name]

    counts: Dict[str, float] = {name: 0 for name in metrics.EXACT_COUNTS}
    for record in first.records:
        if record.error is None:
            for name, value in workload.counts(state, record.kind, record.result).items():
                counts[name] += value
    counts["relations.load_rows"] = sum(
        sp[spans.MEASURE] or 0
        for sp in recorded
        if sp[spans.OP] < 0
        and sp[spans.NAME] == "relations.load"
        and recorded[sp[spans.PARENT]][spans.NAME] != "relations.load"  # outermost load only
    )
    counts["planner.calls"] = len(spans_named("planner.optimize"))
    counts["engine.vectorized_calls"] = len(spans_named("engine.vectorized"))
    counts["engine.vectorized_declined"] = sum(
        1 for sp in spans_named("engine.vectorized") if sp[spans.MEASURE]
    )
    counts["engine.linear_join_calls"] = len(spans_named("engine.linear_join"))
    compiled = tracer.first_pass_counters["compile"]
    counts["circuits.compiles"] = compiled["compiles"]
    counts["circuits.diagram_nodes"] = compiled["output_nodes"]
    return counts


def semiring_op_counts(workload: Any, inputs: Any) -> Dict[str, float]:
    """One pass over a fresh state whose semirings count their calls."""
    import calls
    import harness

    counter = calls.op_counter()
    state = workload.setup(inputs, counter)
    counter.reset()  # loading rows calls is_zero too; count the pass only
    harness.run_pass(workload, state, 0)
    ops = counter.snapshot()
    return {
        "semirings.plus_calls": ops["plus"],
        "semirings.times_calls": ops["times"],
        "semirings.is_zero_calls": ops["is_zero"],
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_traced(workload: Any, inputs: Any, args: Any) -> Dict[str, Any]:
    import calls
    import harness
    import metrics
    import spans

    tracer = Tracer()
    gc.collect()
    before = harness.calibrate()
    state = tracer.setup(workload, inputs)
    setup_factor = harness.speed_factor(before, harness.calibrate(), workload.memory_share)
    warm = harness.run_pass(workload, state, 0)
    harness.freeze_heap()

    pairs = 1 if args.quick else -(-MIN_TIMED_OPS // (2 * len(workload.plan)))
    passes = harness.timed_passes(
        workload,
        state,
        seconds=0 if args.quick else args.seconds,
        min_passes=2 * pairs,
        trace=tracer.switch,
    )
    if len(passes) % 2:
        passes = passes[:-1]  # as many traced as untraced; the odd one out is untraced
    traced = [s for s in passes if s.traced]
    untraced = [s for s in passes if not s.traced]
    failures = (
        op_errors(warm, "warm-up ")
        + op_errors(all_records(passes))
        + verify(workload, inputs, state, passes[-1].records)
    )

    # Layer self times, each normalised by its own pass's factor.  Set-up
    # spans carry op id -1; only traced passes record any other spans.
    width = len(workload.plan)
    recorded = tracer.recorder.spans
    factor_of = {s.number: s.factor for s in traced}
    per_pass = 1e3 / len(traced)
    layer_ms = {
        name: total * per_pass
        for name, total in spans.self_time_by_name(
            recorded, lambda sp: factor_of[sp[spans.OP] // width], lambda sp: sp[spans.OP] >= 0
        ).items()
    }
    setup_ms = {
        name: total * 1e3
        for name, total in spans.self_time_by_name(
            recorded, lambda sp: setup_factor, lambda sp: sp[spans.OP] < 0
        ).items()
    }
    pass_ms = sum(s.seconds for s in traced) * per_pass
    compiled, consed = (tracer.first_pass_counters[family] for family in ("compile", "consing"))

    out: Dict[str, float] = {name: 0.0 for name, _unit, _better in metrics.per_layer()}
    out.update({f"{layer}_ms": setup_ms.get(layer, 0.0) for layer in metrics.SETUP_LAYERS})
    out.update({f"{layer}_ms": layer_ms.get(layer, 0.0) for layer in metrics.PASS_LAYERS})
    out.update(exact_counts(workload, state, tracer, traced[0]))
    if workload.countable and not args.quick:
        out.update(semiring_op_counts(workload, inputs))
    out["circuits.cache_hit_rate"] = ratio(
        compiled["cache_hits"], compiled["cache_hits"] + compiled["cache_misses"]
    )
    out["circuits.consing_hit_rate"] = ratio(consed["hits"], consed["hits"] + consed["misses"])
    out.update(workload.micro(state, args.seed, harness))
    out.update({f"op.{kind}_ms": ms for kind, ms in harness.per_kind_ms(untraced).items()})
    out["bench.pass_ms"] = pass_ms
    out["bench.unattributed_ms"] = layer_ms.get(spans.ROOT, 0.0)
    out["bench.trace_overhead"] = harness.median([s.seconds for s in traced]) / harness.median(
        [s.seconds for s in untraced]
    )
    out["bench.calib_interpreter_ms"] = harness.median([s.calibration[0] for s in passes]) * 1e3
    out["bench.calib_memory_ms"] = harness.median([s.calibration[1] for s in passes]) * 1e3
    out["obs.program_tracing_enabled"] = int(calls.program_tracing_enabled())

    os.makedirs(args.out, exist_ok=True)
    labels = {
        s.number * width + slot: f"pass {s.number} {record.kind}"
        for s in traced
        for slot, record in enumerate(s.records)
    }
    spans.write_jsonl(os.path.join(args.out, f"trace.{workload.name}.jsonl"), recorded, labels)
    accounted = sum(layer_ms.get(layer, 0.0) for layer in metrics.PASS_LAYERS)
    return {
        "attempted": len(all_records(passes)),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": out,
        "info": {
            "traced_passes": len(traced),
            "untraced_passes": len(untraced),
            "missing_boundaries": tracer.missing,
            "sum_check": (accounted + out["bench.unattributed_ms"]) / pass_ms,
            "dominant": workload.dominant[0],
            "dominant_share": out.get(workload.dominant[0], 0.0) / pass_ms,
        },
        "raw": {"traced_pass_ms": [s.seconds / s.factor * 1e3 for s in traced]},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    try:
        import numpy  # noqa: F401  (the calibration kernels and the columnar path need it)
    except ImportError:
        die("numpy is not importable; a silent row fallback would measure a different program")
    import harness

    harness.calibrate()  # the first call allocates the fixed array
    imports = [timed_import(harness)]
    import calls

    if not calls.numpy_available():
        die("repro.engine.vectorized.numpy_available() is false")
    if calls.program_tracing_enabled():
        die("the program's own tracer is on; it must be off")

    from workloads import registry

    workloads = registry()
    if args.workload not in workloads:
        die(f"unknown workload {args.workload!r}; known: {sorted(workloads)}")
    workload = workloads[args.workload]
    inputs = workload.generate(args.seed)
    if args.trace:
        result = run_traced(workload, inputs, args)
    else:
        result = run_untraced(workload, inputs, args, imports)
    result.update(
        workload=workload.name, seed=args.seed, trace=args.trace, correct=result["failed"] == 0
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
