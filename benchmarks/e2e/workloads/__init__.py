"""The six workloads.  Each is a fixed plan of op kinds run pass after pass.

A plan lists the op kinds of one pass in execution order.  With four kinds of
distinct cost run once each, the median op latency would sit on the boundary
between the second and the third kind and jump from one to the other with
noise.  So a four-kind plan has five ops, one kind twice -- the cheapest
where the kinds' costs are well apart: of the sorted latencies it then fills
0-40 %, the others 40-60 %, 60-80 % and 80-100 %, so the median op is the
second kind's own median and the 90th percentile the slowest kind's own
median, both in the middle of a cluster of samples.  Each workload states
its latency order and where its two percentiles fall next to its plan.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple


class Workload:
    """What the harness needs from a workload.

    ``generate`` makes plain rows from the seed (untimed); ``setup`` loads
    them into the program (timed as ``setup_s``); ``prepare`` draws an op's
    input (untimed); ``run`` is the timed op and returns a fully
    materialised result; ``counts`` reads exact counts off a result
    (untimed); ``check`` holds one op of the last pass against the oracle
    (untimed; ``cache`` is shared by the checks of one verification) and
    returns a line per discrepancy; ``micro`` adds workload-specific layer
    metrics to a traced run.
    """

    name = ""
    why = ""
    plan: Tuple[str, ...] = ()
    #: the end-to-end layer prediction: (metric, minimum share of a pass)
    dominant: Tuple[str, float] = ("", 0.0)
    #: semiring-op counting needs an injectable semiring
    countable = True
    #: How the two calibration kernels are mixed to normalise this workload's
    #: times (see ``harness``): 0 = it slows down with the interpreter kernel,
    #: 1 = with the memory kernel.  Fitted once, on twelve fresh processes in
    #: a row per workload, as the mix under which the median pass repeats
    #: best: 0.0-0.2 for the five interpreter-bound workloads (one shared
    #: value), 0.8 for ``ra_numeric``.  A constant of the benchmark, like the
    #: reference times.
    memory_share = 0.1

    def generate(self, seed: int) -> Any:
        raise NotImplementedError

    def setup(self, inputs: Any, counter: Any = None) -> Any:
        raise NotImplementedError

    def prepare(self, state: Any, kind: str, number: int, slot: int) -> Any:
        return None

    def run(self, state: Any, kind: str, args: Any) -> Any:
        raise NotImplementedError

    def counts(self, state: Any, kind: str, result: Any) -> Dict[str, float]:
        return {"relations.out_rows": len(result)}

    def check(self, inputs: Any, state: Any, record: Any, cache: Dict[Any, Any]) -> List[str]:
        raise NotImplementedError

    def micro(self, state: Any, seed: int, harness: Any) -> Dict[str, float]:
        return {}


def registry() -> Dict[str, Workload]:
    from workloads import (
        datalog_tc,
        maintain,
        paper_small,
        prob_infer,
        ra_numeric,
        ra_provenance,
    )

    modules = (ra_numeric, ra_provenance, datalog_tc, maintain, prob_infer, paper_small)
    return {module.WORKLOAD.name: module.WORKLOAD for module in modules}


#: Names and kinds, importable without ``repro`` (BENCHMARK.json, tests, compare).
KINDS: Dict[str, Tuple[str, ...]] = {
    "ra_numeric": ("two_hop_n", "two_hop_trop", "star_n", "star_wide_n"),
    "ra_provenance": ("two_hop_nx", "two_hop_circuit", "two_hop_why", "specialize_circuit"),
    "datalog_tc": (
        "tc_linear_trop_col",
        "tc_linear_bool_col",
        "tc_quad_trop_row",
        "tc_linear_natinf_row",
    ),
    "maintain": ("view_apply", "tc_insert", "tc_delete"),
    "prob_infer": ("tc_prob_cold", "tc_prob_warm", "ra_prob", "tc_topk"),
    "paper_small": (
        "sec2_bool",
        "fig1_maybe",
        "fig2_ctable",
        "fig3_bag",
        "fig4_prob",
        "fig5_why",
        "fig5_nx",
        "fig6_datalog_bag",
        "fig7_datalog_series",
    ),
}
