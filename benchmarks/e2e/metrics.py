"""The named metrics: what ``BENCHMARK.json`` lists and ``run.py`` prints.

End-to-end metrics are measured with every kind of tracing off and carry a
bound: the share of the parent's median by which they may worsen.  Per-layer
metrics come from a separate traced run and carry none.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from workloads import KINDS

# (name, unit, better, bound)
#
# The time bounds sit at the contract's cap, about three times the widest
# seed-to-seed spread (quartile distance / median over ten seeds, 12 s runs,
# two sets) seen on the box the benchmark was defined on: ops_per_s 9.1 %,
# op_ms_p50 8.1 %, op_ms_p90 10.5 %, setup_s 11.9 %; peak_rss_mb spread 0.6 %.
# A tighter bound would reject the same commit measured twice.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

#: layers whose self time per traced pass is a metric (``<layer>_ms``)
PASS_LAYERS = (
    "planner.optimize",
    "engine.compile",
    "engine.row_execute",
    "engine.vectorized",
    "engine.linear_join",
    "engine.kernel_join",
    "engine.kernel_project",
    "algebra.evaluate_self",
    "algebra.operators",
    "datalog.parse",
    "datalog.seminaive",
    "datalog.ground",
    "datalog.solve_ground",
    "datalog.conditions",
    "datalog.provenance",
    "incremental.view_apply",
    "incremental.datalog_insert",
    "incremental.datalog_delete",
    "circuits.compile",
    "circuits.wmc",
    "circuits.specialize",
    "probabilistic.self",
)

#: layers whose self time in the traced set-up is a metric
SETUP_LAYERS = (
    "relations.load",
    "incremental.view_build",
    "incremental.datalog_build",
    "probabilistic.build",
)

#: counts that must repeat exactly from run to run (same commit, same seed)
EXACT_COUNTS = (
    "relations.load_rows",
    "relations.out_rows",
    "planner.calls",
    "engine.vectorized_calls",
    "engine.vectorized_declined",
    "engine.linear_join_calls",
    "datalog.rounds",
    "datalog.derived_atoms",
    "incremental.deletes",
    "incremental.delete_fallbacks",
    "circuits.compiles",
    "circuits.diagram_nodes",
    "semirings.plus_calls",
    "semirings.times_calls",
    "semirings.is_zero_calls",
)

_HIGHER = {"relations.out_rows", "circuits.cache_hit_rate", "circuits.consing_hit_rate"}


def per_layer() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out: List[Tuple[str, str, str]] = []
    out += [(f"{layer}_ms", "ms", "lower") for layer in SETUP_LAYERS + PASS_LAYERS]
    out += [(name, "count", "higher" if name in _HIGHER else "lower") for name in EXACT_COUNTS]
    out += [
        ("circuits.cache_hit_rate", "ratio", "higher"),
        ("circuits.consing_hit_rate", "ratio", "higher"),
    ]
    out += [
        (f"semirings.{name}_us", "us", "lower")
        for name in ("nx_plus", "nx_times", "circuit_plus", "circuit_times")
    ]
    out += [(f"op.{kind}_ms", "ms", "lower") for kinds in KINDS.values() for kind in kinds]
    out += [
        ("bench.pass_ms", "ms", "lower"),
        ("bench.unattributed_ms", "ms", "lower"),
        ("bench.trace_overhead", "ratio", "lower"),
        ("bench.calib_interpreter_ms", "ms", "lower"),
        ("bench.calib_memory_ms", "ms", "lower"),
        ("obs.program_tracing_enabled", "count", "lower"),
    ]
    return out


def units() -> Dict[str, str]:
    out = {name: unit for name, unit, _better, _bound in END_TO_END}
    out.update({name: unit for name, unit, _better in per_layer()})
    return out
