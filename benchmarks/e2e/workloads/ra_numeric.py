"""``ra_numeric``: positive algebra over N and Tropical on columnar stores.

Why: the vectorized kernels (``engine.vectorized``) and columnar
materialisation do nearly all the work here and scalar semiring calls are
about zero -- so this is where a kernel optimisation must show, and where a
row-path change must show nothing.  ``star_n`` is the exception inside the
workload: 5 ms of which most is planning, so planner cost is visible too.
"""

from __future__ import annotations

from typing import Any, Dict, List

import calls
import gen
import oracle
from workloads import Workload

STORAGE = "columnar"
STAR_LABEL = "x0"

EDGE_ATTRS = ["a", "b"]
STAR_ATTRS = {"F": ["a", "b", "c"], "D1": ["a", "x"], "D2": ["b", "y"]}
OUTPUT = {
    "two_hop_n": ("a", "c"),
    "two_hop_trop": ("a", "c"),
    "star_n": ("a", "y"),
    "star_wide_n": ("a", "x", "y"),
}


def star_rows(seed: int, label: str, **shape: int) -> Dict[str, list]:
    rng = gen.sub_rng(seed, label)
    rows = gen.star_schema(rng, **shape)
    return {name: gen.annotate(rng, rows[name], gen.small_int) for name in ("F", "D1", "D2")}


def star_relations(rows: Dict[str, list]) -> Dict[str, tuple]:
    return {name: (STAR_ATTRS[name], rows[name]) for name in rows}


class RaNumeric(Workload):
    name = "ra_numeric"
    why = "vectorized kernels over columnar N / Tropical stores do the work; scalar semiring calls ~0"
    # Latency order: star_n < star_wide_n < two_hop_trop < two_hop_n.  The
    # cheapest kind runs twice (see ``workloads/__init__``): the median op is
    # star_wide_n's median, the 90th percentile two_hop_n's.
    plan = ("two_hop_n", "star_n", "star_wide_n", "two_hop_trop", "star_n")
    dominant = ("engine.vectorized_ms", 0.70)
    memory_share = 0.8  # whole-column array sweeps: tracks the memory kernel

    def generate(self, seed: int) -> Dict[str, Any]:
        rng_n = gen.sub_rng(seed, "ra_numeric.two_hop_n")
        rng_t = gen.sub_rng(seed, "ra_numeric.two_hop_trop")
        return {
            "two_hop_n": gen.annotate(rng_n, gen.regular_edges(rng_n, 200, 8000), gen.small_int),
            "two_hop_trop": gen.annotate(
                rng_t, gen.regular_edges(rng_t, 150, 6000), gen.small_cost
            ),
            "star_n": star_rows(
                seed, "ra_numeric.star_n", facts=6000, domain=30, partners=4, labels=30
            ),
            "star_wide_n": star_rows(
                seed, "ra_numeric.star_wide_n", facts=20000, domain=100, partners=4, labels=20
            ),
        }

    def setup(self, inputs: Dict[str, Any], counter: Any = None) -> Dict[str, Any]:
        n = calls.semiring("N", counter)
        tropical = calls.semiring("Tropical", counter)
        two_hop = calls.two_hop_query()
        return {
            "two_hop_n": (
                two_hop,
                calls.database(n, {"E": (EDGE_ATTRS, inputs["two_hop_n"])}, STORAGE),
            ),
            "two_hop_trop": (
                two_hop,
                calls.database(tropical, {"E": (EDGE_ATTRS, inputs["two_hop_trop"])}, STORAGE),
            ),
            "star_n": (
                calls.star_filter_last_query(STAR_LABEL),
                calls.database(n, star_relations(inputs["star_n"]), STORAGE),
            ),
            "star_wide_n": (
                calls.star_wide_query(),
                calls.database(n, star_relations(inputs["star_wide_n"]), STORAGE),
            ),
        }

    def run(self, state: Dict[str, Any], kind: str, args: Any) -> Any:
        query, db = state[kind]
        return calls.evaluate(query, db, STORAGE)

    def check(self, inputs: Dict[str, Any], state: Any, record: Any, cache: Dict[Any, Any]) -> List[str]:
        kind = record.kind
        if kind not in cache:
            if kind.startswith("two_hop"):
                cache[kind] = oracle.two_hop(inputs[kind], "Tropical" if "trop" in kind else "N")
            else:
                rows = inputs[kind]
                cache[kind] = oracle.star(
                    rows["F"],
                    rows["D1"],
                    rows["D2"],
                    "N",
                    keep=OUTPUT[kind],
                    label=STAR_LABEL if kind == "star_n" else None,
                )
        return oracle.mismatches(
            kind, calls.tuple_dict(record.result, OUTPUT[kind]), cache[kind]
        )


WORKLOAD = RaNumeric()
