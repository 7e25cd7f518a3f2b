"""``datalog_tc``: transitive closure through the semi-naive engine.

Why: recursion cost lives in the datalog engine's own store / merge / index
work.  The two ``*_col`` kinds reach the same ``engine`` layer as
``ra_numeric`` but through a different door (``fire_linear_join``, not
``try_execute``); ``tc_quad_trop_row`` is their non-vectorizable sibling
(row join plans), and ``tc_linear_natinf_row`` takes the non-idempotent
route: collect mode, grounding, ``solve_ground_seminaive`` and the
divergence analysis of N∞.
"""

from __future__ import annotations

from typing import Any, Dict, List

import calls
import gen
import oracle
from workloads import Workload

ATTRS = ["x", "y"]
#: kind -> (semiring, storage, program text)
SPEC = {
    "tc_linear_trop_col": ("Tropical", "columnar", calls.TC_LINEAR),
    "tc_linear_bool_col": ("B", "columnar", calls.TC_LINEAR),
    "tc_quad_trop_row": ("Tropical", "row", calls.TC_QUADRATIC),
    "tc_linear_natinf_row": ("NatInf", "row", calls.TC_LINEAR),
}
#: kind -> (nodes, out-degree).  Every graph is ``i -> i + o`` over a fixed
#: offset set (``gen.offset_edges``): the topology -- and with it the number of
#: fixpoint rounds and the size of every delta -- is the same for every seed;
#: the seed draws labels, row order and costs.  On free random graphs the
#: Boolean closure took 4 or 5 rounds depending on the draw, a 15 % swing.
GRAPH = {
    "tc_linear_trop_col": (48, 12),
    "tc_linear_bool_col": (56, 14),
    "tc_quad_trop_row": (30, 5),
}
#: ``tc_linear_natinf_row``: a 32-node DAG ``i -> i+1, i+2, i+5`` closed by one
#: back edge at the tail: most pairs have finitely many walks, the pairs that
#: reach the tail cycle have infinitely many.
DAG_NODES, DAG_OFFSETS = 32, (1, 2, 5)


def fixed_offsets(kind: str, nodes: int, degree: int) -> List[int]:
    """``degree`` distinct offsets in 1..nodes-1, the same in every run."""
    return gen.sub_rng(0, f"datalog_tc.offsets.{kind}").sample(range(1, nodes), degree)


def hop_cost(rng: Any) -> float:
    # a small cost range keeps the number of min-plus rounds close to the
    # hop diameter, so the round count barely moves with the seed
    return float(rng.randint(1, 3))


def tail_cycle_dag(rng: Any) -> List[tuple]:
    names = [f"d{i}" for i in range(DAG_NODES)]
    rng.shuffle(names)
    edges = [
        (names[i], names[i + o]) for i in range(DAG_NODES) for o in DAG_OFFSETS if i + o < DAG_NODES
    ]
    edges.append((names[-1], names[-2]))
    rng.shuffle(edges)
    return edges


class DatalogTc(Workload):
    name = "datalog_tc"
    why = "recursion cost is the datalog engine's store/merge/index work; fire_linear_join is the minor share"
    # Latency order: natinf < trop_col < bool_col < quad.  The cheapest kind
    # runs twice (see ``workloads/__init__``): the median op is
    # tc_linear_trop_col's median, the 90th percentile tc_quad_trop_row's.
    # The quadratic row kind is on top because its latency repeats best: the
    # columnar kinds lean on numpy and swing with the memory bus.
    plan = (
        "tc_linear_trop_col",
        "tc_linear_natinf_row",
        "tc_quad_trop_row",
        "tc_linear_bool_col",
        "tc_linear_natinf_row",
    )
    dominant = ("datalog.seminaive_ms", 0.50)

    def generate(self, seed: int) -> Dict[str, Any]:
        inputs = {}
        for kind, (nodes, degree) in GRAPH.items():
            rng = gen.sub_rng(seed, f"datalog_tc.{kind}")
            edges = gen.offset_edges(rng, nodes, fixed_offsets(kind, nodes, degree))
            if kind == "tc_linear_bool_col":
                inputs[kind] = [(edge, True) for edge in edges]
            else:
                inputs[kind] = gen.annotate(rng, edges, hop_cost)
        rng = gen.sub_rng(seed, "datalog_tc.tc_linear_natinf_row")
        inputs["tc_linear_natinf_row"] = gen.annotate(rng, tail_cycle_dag(rng), gen.small_int)
        return inputs

    def setup(self, inputs: Dict[str, Any], counter: Any = None) -> Dict[str, Any]:
        state = {}
        for kind, (semiring, storage, text) in SPEC.items():
            db = calls.database(
                calls.semiring(semiring, counter), {"R": (ATTRS, inputs[kind])}, storage
            )
            state[kind] = (calls.parse_program(text), db, storage)
        return state

    def run(self, state: Dict[str, Any], kind: str, args: Any) -> Any:
        program, db, storage = state[kind]
        return calls.evaluate_program(program, db, storage)

    def counts(self, state: Any, kind: str, result: Any) -> Dict[str, float]:
        return {
            "relations.out_rows": len(result.annotations),
            "datalog.rounds": result.iterations,
            "datalog.derived_atoms": len(result.annotations),
        }

    def check(self, inputs: Dict[str, Any], state: Any, record: Any, cache: Dict[Any, Any]) -> List[str]:
        kind = record.kind
        if kind not in cache:
            rows = inputs[kind]
            if kind == "tc_linear_bool_col":
                cache[kind] = {pair: True for pair in oracle.reachability(e for e, _ in rows)}
            elif kind == "tc_linear_natinf_row":
                cache[kind] = {
                    pair: calls.nat_inf(count) for pair, count in oracle.walk_counts(rows).items()
                }
            else:
                cache[kind] = oracle.shortest_paths(rows)
        return oracle.mismatches(kind, calls.annotations_dict(record.result, "T"), cache[kind])


WORKLOAD = DatalogTc()
