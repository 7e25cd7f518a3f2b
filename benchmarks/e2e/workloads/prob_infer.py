"""``prob_infer``: exact probabilistic inference through compiled circuits.

Why: knowledge compilation and weighted model counting (``circuits``)
dominate.  The cold / warm pair varies the working set against the
compiler's memo: ``tc_prob_cold`` queries a fresh database with an empty
compile cache, ``tc_prob_warm`` re-queries a database that has answered the
same question before.

The uncertain graphs are five *fixed* relabellings of one directed ladder
(:func:`gen.ladder`): labels and row order come from constants, so the
compiled diagrams are the same in every run; ``--seed`` draws the
probabilities.  Every pass visits all five.  Compile cost on free-form
random graphs varies several-fold from instance to instance, which would
measure the draw, not the program.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import calls
import gen
import oracle
from workloads import Workload

GRAPHS = 5
COLUMNS = 8  # 22 uncertain edges, 2^22 worlds
LAYERS = (5, 7, 5)  # ra_prob: A x B and B x C complete, 70 uncertain tuples
TOP_K = 3
SMALL_COLUMNS = 4  # 10 edges: brute-force enumerable
CHAIN_LENGTH = 6
TOLERANCE = 1e-9

#: Committed answers at the default seed (absolute tolerance 1e-9): on graph 0
#: from the left end of rail 0 to both right ends, and two ``ra_prob`` pairs.
COMMITTED_AT_DEFAULT_SEED: Dict[str, Dict[Any, float]] = {
    "tc": {
        ((0, 0), (COLUMNS - 1, 1)): 0.09142044015041233,
        ((0, 0), (COLUMNS - 1, 0)): 0.07461741772800003,
    },
    "ra": {("a0", "c0"): 0.9714564307899388, ("a4", "c4"): 0.9947135085829907},
}


def ladder_instance(columns: int, label_seed: int, label: str, rng: Any) -> Dict[str, Any]:
    """One relabelled ladder: names and row order from ``label_seed``,
    probabilities from ``rng``."""
    fixed = gen.sub_rng(label_seed, label)
    nodes = [(column, rail) for column in range(columns) for rail in (0, 1)]
    names = [f"n{i}" for i in range(len(nodes))]
    fixed.shuffle(names)
    name_of = dict(zip(nodes, names))
    edges = gen.ladder(columns)
    fixed.shuffle(edges)
    probability = {edge: rng.randint(30, 95) / 100.0 for edge in sorted(edges)}
    rows = [
        ((name_of[s], name_of[t]), f"e{i}", probability[(s, t)])
        for i, (s, t) in enumerate(edges, start=1)
    ]
    return {"rows": rows, "name_of": name_of, "probability": probability}


def named(instance: Dict[str, Any], pairs: Dict[Any, float]) -> Dict[Tuple[str, str], float]:
    name_of = instance["name_of"]
    return {(name_of[s], name_of[t]): p for (s, t), p in pairs.items()}


class ProbInfer(Workload):
    name = "prob_infer"
    why = "circuit compilation and WMC dominate; cold vs warm varies the working set against the compile memo"
    # Latency order: warm < ra_prob < topk < cold.  The cheapest kind runs
    # twice (see ``workloads/__init__``): the median op is ra_prob's median,
    # the 90th percentile tc_prob_cold's.  The five ops run on every graph in
    # every pass (slot // 5 picks the graph): compile cost differs from graph
    # to graph, and a pass that met only one of them would make the median
    # pass jump between five levels.
    ROUND = ("tc_prob_cold", "tc_prob_warm", "ra_prob", "tc_topk", "tc_prob_warm")
    plan = ROUND * GRAPHS
    dominant = ("circuits.compile_ms", 0.60)
    countable = False  # ProbabilisticDatabase builds its own semirings

    def generate(self, seed: int) -> Dict[str, Any]:
        rng = gen.sub_rng(seed, "prob_infer.probabilities")
        graphs = [
            ladder_instance(COLUMNS, 0, f"prob_infer.graph{g}", rng) for g in range(GRAPHS)
        ]
        layer_rng = gen.sub_rng(seed, "prob_infer.layers")
        a, b, c = ([f"{tag}{i}" for i in range(n)] for tag, n in zip("abc", LAYERS))
        pairs = [(x, y) for x in a for y in b] + [(y, z) for y in b for z in c]
        layer_rng.shuffle(pairs)
        return {
            "seed": seed,
            "graphs": graphs,
            "layers": gen.uncertain(layer_rng, pairs),
            "small": ladder_instance(SMALL_COLUMNS, 0, "prob_infer.small", rng),
        }

    def setup(self, inputs: Dict[str, Any], counter: Any = None) -> Dict[str, Any]:
        warm = [
            calls.probabilistic_database({"R": (["x", "y"], graph["rows"])})
            for graph in inputs["graphs"]
        ]
        for pdb in warm:  # the first answer fills the database's compile memo
            pdb.datalog_probabilities(calls.TC_LINEAR)
        return {
            "warm": warm,
            "ra": calls.probabilistic_database({"E": (["a", "b"], inputs["layers"])}),
            "query": calls.two_hop_query(),
            "graphs": inputs["graphs"],
        }

    def prepare(self, state: Dict[str, Any], kind: str, number: int, slot: int) -> Any:
        graph = slot // len(self.ROUND)
        if kind == "tc_prob_cold":
            calls.clear_compile_cache()
            rows = state["graphs"][graph]["rows"]
            return graph, calls.probabilistic_database({"R": (["x", "y"], rows)})
        return graph, None

    def run(self, state: Dict[str, Any], kind: str, args: Any) -> Any:
        graph, fresh = args
        if kind == "tc_prob_cold":
            return fresh.datalog_probabilities(calls.TC_LINEAR)
        if kind == "tc_prob_warm":
            return state["warm"][graph].datalog_probabilities(calls.TC_LINEAR)
        if kind == "tc_topk":
            return state["warm"][graph].datalog_top_k(calls.TC_LINEAR, TOP_K)
        return state["ra"].query_probabilities(state["query"])

    def check(self, inputs: Dict[str, Any], state: Any, record: Any, cache: Dict[Any, Any]) -> List[str]:
        if "side" not in cache:
            cache["side"] = self.side_checks(inputs)
        failures = list(cache["side"])
        default_seed = inputs["seed"] == gen.DEFAULT_SEED
        kind, (graph, _fresh) = record.kind, record.args
        if kind == "ra_prob":
            got = calls.tuple_dict(record.result, ("a", "c"))
            failures += oracle.mismatches(kind, got, self.layer_reference(inputs), TOLERANCE)
            if default_seed:
                failures += self.committed("ra", got, COMMITTED_AT_DEFAULT_SEED["ra"])
            return failures
        instance = inputs["graphs"][graph]
        exact = named(instance, oracle.ladder_reachability(COLUMNS, instance["probability"]))
        got = calls.tuple_dict(record.result, ("x", "y"))
        if kind == "tc_topk":
            return failures + self.check_top_k(instance, got, exact)
        failures += oracle.mismatches(kind, got, exact, TOLERANCE)
        if default_seed and graph == 0:
            failures += self.committed("tc", got, named(instance, COMMITTED_AT_DEFAULT_SEED["tc"]))
        return failures

    # -- references -------------------------------------------------------------

    @staticmethod
    def layer_reference(inputs: Dict[str, Any]) -> Dict[Tuple[str, str], float]:
        """``P(a, c) = 1 - prod_b (1 - p_ab * p_bc)``: the two-hop paths of a
        layered graph share no tuple, so they are independent."""
        p = {row: probability for row, _event, probability in inputs["layers"]}
        a, b, c = ([f"{tag}{i}" for i in range(n)] for tag, n in zip("abc", LAYERS))
        out = {}
        for x in a:
            for z in c:
                miss = 1.0
                for y in b:
                    miss *= 1.0 - p[(x, y)] * p[(y, z)]
                out[(x, z)] = 1.0 - miss
        return out

    @staticmethod
    def committed(label: str, got: Dict[Any, float], want: Dict[Any, float]) -> List[str]:
        return oracle.mismatches(
            f"committed {label} values", {key: got.get(key, -1.0) for key in want}, want, TOLERANCE
        )

    @staticmethod
    def check_top_k(instance: Dict[str, Any], got: Dict[Any, Any], exact: Dict[Any, float]) -> List[str]:
        """Every reported world derives its tuple, has the probability its
        assignment implies, and the worlds come most probable first."""
        if set(got) != set(exact):
            return ["tc_topk: answer tuples differ from the reachable pairs"]
        edge_of = {event: edge for edge, event, _p in instance["rows"]}
        p_of = {event: p for _edge, event, p in instance["rows"]}
        for pair, worlds in got.items():
            if not 1 <= len(worlds) <= TOP_K:
                return [f"tc_topk: {pair} has {len(worlds)} worlds"]
            if [w[0] for w in worlds] != sorted((w[0] for w in worlds), reverse=True):
                return [f"tc_topk: worlds of {pair} are not sorted by probability"]
            for probability, assignment in worlds:
                implied = 1.0
                for event, present in assignment.items():
                    implied *= p_of[event] if present else 1.0 - p_of[event]
                if abs(implied - probability) > TOLERANCE:
                    return [f"tc_topk: {pair} world probability {probability} != {implied}"]
                present_edges = [edge_of[e] for e, present in assignment.items() if present]
                if pair not in oracle.reachability(present_edges):
                    return [f"tc_topk: {pair} is not derivable in its reported world"]
        return []

    @staticmethod
    def side_checks(inputs: Dict[str, Any]) -> List[str]:
        """Brute-force world enumeration on a 10-edge ladder, and the closed
        form 0.9^k on a chain -- both through the same entry point."""
        failures: List[str] = []
        small = inputs["small"]
        pdb = calls.probabilistic_database({"R": (["x", "y"], small["rows"])})
        got = calls.tuple_dict(pdb.datalog_probabilities(calls.TC_LINEAR), ("x", "y"))
        brute = oracle.possible_world_probabilities(small["rows"], oracle.reachability)
        failures += oracle.mismatches("brute-force ladder", got, brute, TOLERANCE)
        exact = named(small, oracle.ladder_reachability(SMALL_COLUMNS, small["probability"]))
        failures += oracle.mismatches("ladder sweep vs brute force", exact, brute, TOLERANCE)

        chain = [(edge, f"c{i}", 0.9) for i, edge in enumerate(gen.chain_edges(CHAIN_LENGTH))]
        pdb = calls.probabilistic_database({"R": (["x", "y"], chain)})
        got = calls.tuple_dict(pdb.datalog_probabilities(calls.TC_LINEAR), ("x", "y"))
        closed = {
            (f"c{i}", f"c{j}"): 0.9 ** (j - i)
            for i in range(CHAIN_LENGTH + 1)
            for j in range(i + 1, CHAIN_LENGTH + 1)
        }
        failures += oracle.mismatches("chain 0.9^k", got, closed, TOLERANCE)
        return failures


WORKLOAD = ProbInfer()
