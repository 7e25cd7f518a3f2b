"""``paper_small``: the paper's own figures through default entry points.

Why: the data is three to six tuples, so what is measured is fixed per-call
overhead -- parsing, planning, compiling, dispatch, ``Tup`` / schema
construction.  A kernel optimisation must show no change here; "fast
defaults" and overhead cuts must show here, and planner or compile effort
that pays on ``ra_numeric`` shows here as a cost.  Every answer is checked
against the value printed in the paper's figure, hard-coded below.
"""

from __future__ import annotations

from typing import Any, Dict, List

import calls
import oracle
from workloads import KINDS, Workload

ROUNDS = 8  # a pass is 8 rounds of 11 figures: long enough to time
AC = ("a", "c")

BOOL = {("a", "c"), ("a", "e"), ("d", "c"), ("d", "e"), ("f", "e")}
FIG2 = {
    ("a", "c"): "b1",
    ("a", "e"): "b1 ∧ b2",
    ("d", "c"): "b1 ∧ b2",
    ("d", "e"): "b2",
    ("f", "e"): "b3",
}
FIG3 = {("a", "c"): 8, ("a", "e"): 10, ("d", "c"): 10, ("d", "e"): 55, ("f", "e"): 7}
FIG4 = {("a", "c"): 0.6, ("a", "e"): 0.3, ("d", "c"): 0.3, ("d", "e"): 0.5, ("f", "e"): 0.1}
FIG5_WHY = {
    ("a", "c"): {"p"},
    ("a", "e"): {"p", "r"},
    ("d", "c"): {"p", "r"},
    ("d", "e"): {"r", "s"},
    ("f", "e"): {"r", "s"},
}
FIG5_NX = {
    ("a", "c"): "2*p^2",
    ("a", "e"): "p*r",
    ("d", "c"): "p*r",
    ("d", "e"): "2*r^2 + r*s",
    ("f", "e"): "2*s^2 + r*s",
}
FIG6 = {("a", "a"): 4, ("a", "b"): 18, ("b", "b"): 16}
CATALAN = [1, 1, 2, 5, 14]  # v = s + s^2 + 2 s^3 + 5 s^4 + 14 s^5 + ...


class PaperSmall(Workload):
    name = "paper_small"
    why = "3-6 tuples per figure: only fixed per-call overhead (parse, plan, compile, dispatch) is measured"
    # Nine kinds once each would put the 90th percentile at the lower edge of
    # the slowest kind's cluster.  With the cheapest and the slowest figure
    # run twice, a round has 11 ops: the median op is the fifth-cheapest
    # figure's median (fig2_ctable), the 90th percentile sits in the middle
    # of fig7_datalog_series's cluster (81.8-100 %).
    plan = (KINDS["paper_small"] + ("fig6_datalog_bag", "fig7_datalog_series")) * ROUNDS
    dominant = ("algebra.operators_ms", 0.0)  # no single layer is predicted to dominate
    countable = False  # the paper instances construct their own semirings

    def generate(self, seed: int) -> None:
        return None  # the instances are the paper's; the seed has nothing to vary

    def setup(self, inputs: Any, counter: Any = None) -> Dict[str, Any]:
        return calls.paper_setup()

    def run(self, state: Dict[str, Any], kind: str, args: Any) -> Any:
        return calls.paper_op(kind, state)

    def counts(self, state: Any, kind: str, result: Any) -> Dict[str, float]:
        if kind == "fig7_datalog_series":
            return {"relations.out_rows": 0}
        return {"relations.out_rows": len(result)}

    def check(self, inputs: Any, state: Any, record: Any, cache: Dict[Any, Any]) -> List[str]:
        kind, result = record.kind, record.result
        if kind == "fig1_maybe":
            return [] if len(result) == 8 else [f"{kind}: {len(result)} answer worlds, figure 1(c) has 8"]
        if kind == "fig7_datalog_series":
            got = calls.series_coefficients(result, "Q", ("d", "d"), "s", len(CATALAN))
            want = [calls.nat_inf(n) for n in CATALAN]
            return [] if got == want else [f"{kind}: coefficients {got}, footnote 6 has {CATALAN}"]
        if kind == "fig4_prob":
            return oracle.mismatches(kind, calls.tuple_dict(result, AC), FIG4, 1e-12)
        if kind == "fig6_datalog_bag":
            return oracle.mismatches(kind, calls.tuple_dict(result, ("x", "y")), FIG6)
        got = calls.tuple_dict(result, AC)
        if kind == "sec2_bool":
            return oracle.mismatches(kind, got, {key: True for key in BOOL})
        if kind == "fig2_ctable":
            return oracle.mismatches(kind, {k: str(v) for k, v in got.items()}, FIG2)
        if kind == "fig3_bag":
            return oracle.mismatches(kind, got, FIG3)
        if kind == "fig5_why":
            return oracle.mismatches(kind, got, {k: frozenset(v) for k, v in FIG5_WHY.items()})
        if kind == "fig5_nx":
            return oracle.mismatches(kind, got, {k: calls.polynomial(v) for k, v in FIG5_NX.items()})
        return [f"{kind}: no expected value"]


WORKLOAD = PaperSmall()
