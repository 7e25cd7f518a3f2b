"""``ra_provenance``: the two-hop plan over abstractly tagged row stores.

Why: the same plan shape as ``ra_numeric``, but annotated in N[X], circuits
and why-provenance, where no vector kernel applies -- the row pipeline and
the ``semirings`` / ``circuits`` arithmetic do all the work.  This is the
contrast workload for ``ra_numeric``: a kernel optimisation must leave it
unchanged, a faster polynomial ``+`` must show only here.
``specialize_circuit`` is the paper's factorisation (Theorem 4.3): evaluate
once over circuits, then apply ``Eval_v`` into N, into Tropical and into B
(the third target makes it the slowest kind by a clear margin, so the 90th
percentile sits in the middle of one kind's samples, not between two).
"""

from __future__ import annotations

from typing import Any, Dict, List

import calls
import gen
import oracle
from workloads import Workload

STORAGE = "row"
NODES, EDGES = 200, 1000
ATTRS = ["a", "b"]
OUT = ("a", "c")
SEMIRING_OF = {"two_hop_nx": "N[X]", "two_hop_circuit": "Circuit", "two_hop_why": "Why"}
#: target semiring of ``specialize_circuit`` -> how it reads a multiplicity
TARGETS = {"N": int, "Tropical": float, "B": bool}
MICRO_PAIRS = 2000
MICRO_SWEEPS = 5


class RaProvenance(Workload):
    name = "ra_provenance"
    why = "N[X] / circuit / why arithmetic and the row pipeline dominate; the vectorized path is bypassed"
    # Latency order: why (25 ms) < circuit (31) < nx (68) < specialize (90).
    # Here the kind that runs twice is two_hop_nx, not the cheapest one:
    # circuit is too close to why for a cluster of its own (with why twice the
    # median op sat in the upper tail of the three cheap runs and swung 9-12 %
    # from seed to seed).  Sorted, nx fills 40-80 %: the median op lies in the
    # lower half of its samples, the 90th percentile is specialize's median.
    plan = (
        "two_hop_nx",
        "specialize_circuit",
        "two_hop_circuit",
        "two_hop_nx",
        "two_hop_why",
    )
    dominant = ("engine.row_execute_ms", 0.50)

    def generate(self, seed: int) -> Dict[str, Any]:
        rng = gen.sub_rng(seed, "ra_provenance.edges")
        tagged = gen.tag(gen.regular_edges(rng, NODES, EDGES))
        return {
            "tagged": tagged,
            # the valuation v of Eval_v: variable -> multiplicity / cost
            "valuation": {name: rng.randint(1, 5) for _row, name in tagged},
        }

    def setup(self, inputs: Dict[str, Any], counter: Any = None) -> Dict[str, Any]:
        state: Dict[str, Any] = {"query": calls.two_hop_query()}
        for kind, name in SEMIRING_OF.items():
            sr = calls.semiring(name, counter)
            rows = calls.tagged_rows(sr, inputs["tagged"])
            state[kind] = calls.database(sr, {"E": (ATTRS, rows)}, STORAGE)
        state["targets"] = [
            (calls.semiring(name, counter), {k: read(v) for k, v in inputs["valuation"].items()})
            for name, read in TARGETS.items()
        ]
        # specialize_circuit reads the latest circuit result; give it one
        state["circuit_result"] = self.run(state, "two_hop_circuit", None)
        return state

    def run(self, state: Dict[str, Any], kind: str, args: Any) -> Any:
        if kind == "specialize_circuit":
            circuits = state["circuit_result"]
            return [
                calls.specialize(circuits, target, valuation)
                for target, valuation in state["targets"]
            ]
        result = calls.evaluate(state["query"], state[kind], STORAGE)
        if kind == "two_hop_circuit":
            state["circuit_result"] = result
        return result

    def counts(self, state: Any, kind: str, result: Any) -> Dict[str, float]:
        if kind == "specialize_circuit":
            return {"relations.out_rows": sum(len(relation) for relation in result)}
        return {"relations.out_rows": len(result)}

    def check(self, inputs: Dict[str, Any], state: Any, record: Any, cache: Dict[Any, Any]) -> List[str]:
        if not cache:
            valuation, rows = inputs["valuation"], inputs["tagged"]
            for name, read in TARGETS.items():
                cache[name] = oracle.two_hop(
                    [(row, read(valuation[tag])) for row, tag in rows], name
                )
            cache["Why"] = oracle.two_hop([(row, frozenset({tag})) for row, tag in rows], "Why")
        kind, result = record.kind, record.result
        if kind == "two_hop_why":
            return oracle.mismatches(kind, calls.tuple_dict(result, OUT), cache["Why"])
        if kind == "specialize_circuit":
            return [
                line
                for name, relation in zip(TARGETS, result)
                for line in oracle.mismatches(
                    f"{kind}->{name}", calls.tuple_dict(relation, OUT), cache[name]
                )
            ]
        # Theorem 4.3: Eval_v of the provenance equals evaluation over N.
        if kind == "two_hop_nx":
            evaluated = {
                key: oracle.evaluate_polynomial(calls.polynomial_terms(p), inputs["valuation"])
                for key, p in calls.tuple_dict(result, OUT).items()
            }
        else:
            evaluated = calls.tuple_dict(
                calls.specialize(result, calls.semiring("N"), inputs["valuation"]), OUT
            )
        return oracle.mismatches(f"{kind} under Eval_v", evaluated, cache["N"])

    def micro(self, state: Dict[str, Any], seed: int, harness: Any) -> Dict[str, float]:
        """Microseconds per ``+`` / ``x`` on operand pairs sampled from this
        workload's own results (interned steady state for circuits)."""
        from time import perf_counter

        rng = gen.sub_rng(seed, "ra_provenance.micro")
        out: Dict[str, float] = {}
        for label, kind in (("nx", "two_hop_nx"), ("circuit", "two_hop_circuit")):
            sr = state[kind].semiring
            values = list(self.run(state, kind, None).annotations())
            pairs = [(rng.choice(values), rng.choice(values)) for _ in range(MICRO_PAIRS)]
            for name, operation in (("plus", sr.add), ("times", sr.mul)):
                sweeps = []
                for _ in range(MICRO_SWEEPS):
                    cal_before = harness.calibrate()
                    start = perf_counter()
                    for a, b in pairs:
                        operation(a, b)
                    elapsed = perf_counter() - start
                    factor = harness.speed_factor(
                        cal_before, harness.calibrate(), self.memory_share
                    )
                    sweeps.append(elapsed * factor / MICRO_PAIRS * 1e6)
                out[f"semirings.{label}_{name}_us"] = harness.median(sweeps)
        return out


WORKLOAD = RaProvenance()
