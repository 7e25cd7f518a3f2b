"""Shannon compilation to ordered decision diagrams: correctness against
brute-force enumeration, structural guarantees, caches, and the interaction
with the PR 8 deletion homomorphism (vars -> 0)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    ONE,
    ZERO,
    CircuitCompiler,
    CircuitEvaluator,
    Const,
    Decision,
    check_ddnnf,
    choose_variable_order,
    compile_circuit,
    eval_circuit,
    iter_nodes,
    node_count,
    prod_node,
    restrict_vars,
    specialize,
    sum_node,
    var,
    wmc,
    wmc_many,
)
from repro.circuits.compile import clear_compile_cache
from repro.errors import SemiringError
from repro.obs.metrics import compilation
from repro.semirings.numeric import NaturalsSemiring
from repro.semirings.posbool import BoolExpr

NAMES = ("a", "b", "c", "d")
NATURALS = NaturalsSemiring()


@st.composite
def circuits(draw, depth: int = 3):
    """Small random N-circuits over a fixed four-variable pool."""
    if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        return var(draw(st.sampled_from(NAMES)))
    op = sum_node if draw(st.booleans()) else prod_node
    width = draw(st.integers(min_value=1, max_value=3))
    return op(*(draw(circuits(depth=depth - 1)) for _ in range(width)))


def truth(circuit, assignment):
    """The Boolean abstraction: non-zero under a 0/1 valuation."""
    valuation = {name: (1 if assignment.get(name) else 0) for name in NAMES}
    return int(eval_circuit(circuit, valuation, NATURALS)) > 0


def decide(root, assignment):
    """Follow a decision diagram to its leaf under an assignment."""
    node = root
    while isinstance(node, Decision):
        node = node.hi if assignment.get(node.name) else node.lo
    assert isinstance(node, Const)
    return node.value != 0


def all_assignments(names):
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


class TestCompilerCorrectness:
    @settings(max_examples=60, deadline=None)
    @given(circuits())
    def test_compiled_function_equals_source(self, circuit):
        compiled = compile_circuit(circuit, check=True)
        for assignment in all_assignments(NAMES):
            assert decide(compiled.root, assignment) == truth(circuit, assignment)

    @settings(max_examples=40, deadline=None)
    @given(circuits(), st.randoms(use_true_random=False))
    def test_wmc_matches_enumeration(self, circuit, rng):
        compiled = compile_circuit(circuit)
        weights = {name: rng.random() for name in NAMES}
        expected = 0.0
        for assignment in all_assignments(compiled.order):
            if decide(compiled.root, assignment):
                p = 1.0
                for name in compiled.order:
                    p *= weights[name] if assignment[name] else 1 - weights[name]
                expected += p
        assert compiled.wmc(weights) == pytest.approx(expected, abs=1e-12)

    def test_output_is_a_strictly_ordered_diagram(self):
        circuit = sum_node(
            prod_node(var("a"), var("b")),
            prod_node(var("b"), var("c"), var("d")),
        )
        compiled = compile_circuit(circuit, check=True)
        index = {name: i for i, name in enumerate(compiled.order)}
        for node in iter_nodes(compiled.root):
            assert isinstance(node, (Decision, Const))
            if isinstance(node, Decision):
                for branch in (node.hi, node.lo):
                    if isinstance(branch, Decision):
                        assert index[branch.name] > index[node.name]

    def test_posbool_conditions_compile(self):
        condition = (BoolExpr.var("a") & BoolExpr.var("b")) | BoolExpr.var("c")
        compiled = compile_circuit(condition)
        for assignment in all_assignments(("a", "b", "c")):
            expected = (assignment["a"] and assignment["b"]) or assignment["c"]
            assert decide(compiled.root, assignment) == expected

    def test_constants_compile_to_leaves(self):
        assert compile_circuit(ZERO).root is ZERO
        assert compile_circuit(ONE).root is ONE
        assert compile_circuit(sum_node(ONE, var("a"))).root is ONE


class TestOrdersAndCaches:
    def test_order_models(self):
        circuit = prod_node(sum_node(var("a"), var("b")), var("c"))
        dfs = choose_variable_order(circuit, model="dfs")
        assert set(dfs) == {"a", "b", "c"}
        # Deterministic: the same circuit always yields the same order.
        assert choose_variable_order(circuit, model="dfs") == dfs
        freq = choose_variable_order(circuit, model="frequency")
        assert set(freq) == {"a", "b", "c"}
        with pytest.raises(SemiringError):
            choose_variable_order(circuit, model="mystery")

    def test_explicit_order_is_respected(self):
        circuit = sum_node(prod_node(var("a"), var("b")), var("c"))
        compiled = compile_circuit(circuit, order=("c", "b", "a"))
        assert compiled.order == ("c", "b", "a")
        assert isinstance(compiled.root, Decision) and compiled.root.name == "c"
        for assignment in all_assignments(("a", "b", "c")):
            assert decide(compiled.root, assignment) == (
                (assignment["a"] and assignment["b"]) or assignment["c"]
            )

    def test_explicit_order_must_cover_the_support(self):
        with pytest.raises(SemiringError):
            CircuitCompiler(order=("a",)).compile(prod_node(var("a"), var("b")))

    def test_module_cache_returns_identical_objects(self):
        clear_compile_cache()
        circuit = prod_node(var("a"), sum_node(var("b"), var("c")))
        first = compile_circuit(circuit)
        assert compile_circuit(circuit) is first
        assert compile_circuit(circuit, model="frequency") is not first

    def test_shared_compiler_shares_the_memo(self):
        """Related lineages (same subcircuits) must hit the compile cache."""
        compiler = CircuitCompiler()
        base = prod_node(var("a"), var("b"))
        compiler.compile(base)
        hits_before = compiler.cache_hits
        compiler.compile(sum_node(base, var("c")))
        assert compiler.cache_hits > hits_before

    def test_compile_metrics_accumulate(self):
        clear_compile_cache()
        before = compilation.snapshot()
        compile_circuit(sum_node(prod_node(var("a"), var("b")), var("d")))
        delta = compilation.delta(before)
        assert delta["compiles"] == 1
        assert delta["input_nodes"] > 0
        assert delta["output_nodes"] > 0


class TestDeletionHomomorphism:
    """Satellite: the PR 8 vars->0 deletion homomorphism commutes with
    compilation -- restricting the source circuit and compiling equals
    restricting the compiled diagram (as Boolean functions)."""

    @settings(max_examples=40, deadline=None)
    @given(
        circuits(),
        st.sets(st.sampled_from(NAMES), max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_restrict_commutes_with_compilation(self, circuit, deleted, rng):
        deleted = frozenset(deleted)
        source_restricted = compile_circuit(restrict_vars(circuit, deleted))
        diagram_restricted = restrict_vars(compile_circuit(circuit).root, deleted)
        weights = {name: rng.random() for name in NAMES}
        assert wmc(diagram_restricted, weights) == pytest.approx(
            source_restricted.wmc(weights), abs=1e-12
        )
        for assignment in all_assignments(NAMES):
            alive = {k: v for k, v in assignment.items() if k not in deleted}
            assert decide(diagram_restricted, alive) == decide(
                source_restricted.root, alive
            )

    def test_restrict_handles_negation_and_decisions(self):
        from repro.circuits import decision_node, not_node

        diagram = decision_node("a", decision_node("b", ONE, ZERO), ZERO)
        # Deleting "a" forces the lo branch; deleting "b" prunes inside.
        assert restrict_vars(diagram, {"a"}) is ZERO
        restricted = restrict_vars(diagram, {"b"})
        assert decide(restricted, {"a": True, "b": True}) is False
        assert restrict_vars(not_node(var("a")), {"a"}) is ONE

    def test_specialize_after_restriction_matches_zero_valuation(self):
        """The deletion path's contract: restrict-then-specialize equals
        specializing with the deleted variables sent to zero."""
        circuit = sum_node(prod_node(var("a"), var("b")), prod_node(var("c"), var("d")))
        deleted = {"b"}
        restricted = restrict_vars(circuit, deleted)
        valuation = {"a": 2, "b": 5, "c": 3, "d": 1}
        zeroed = {name: (0 if name in deleted else value) for name, value in valuation.items()}
        survivors = {k: v for k, v in valuation.items() if k not in deleted}
        assert specialize(restricted, NATURALS, survivors) == specialize(
            circuit, NATURALS, zeroed
        )


class TestBatchCompile:
    """``compile_many``: all the roots of a relation as one diagram;
    ``compile`` is its one-root case."""

    @staticmethod
    def lineages():
        a, b, c, d = (var(name) for name in NAMES)
        shared = prod_node(a, b)
        return {
            "t1": sum_node(shared, c),
            "t2": prod_node(sum_node(shared, d), c),
            "t3": BoolExpr.var("d") | (BoolExpr.var("a") & BoolExpr.var("c")),
            "t4": ONE,
        }

    def test_batch_equals_one_by_one_on_a_fresh_compiler(self):
        batch_compiler, single = CircuitCompiler(), CircuitCompiler()
        batch = batch_compiler.compile_many(self.lineages())
        for key, value in self.lineages().items():
            alone = single.compile(value)
            assert batch[key].root is alone.root
            assert batch[key].source is alone.source
            assert batch[key].order == alone.order
        assert batch_compiler.order == single.order
        assert list(batch) == list(self.lineages())

    def test_batch_stats_count_the_multi_rooted_dag_once(self):
        before = compilation.snapshot()
        lineages = self.lineages()
        batch = CircuitCompiler().compile_many(lineages)
        delta = compilation.delta(before)
        assert delta["batches"] == 1 and delta["compiles"] == len(lineages)
        stats = batch["t1"].stats
        assert all(compiled.stats is stats for compiled in batch.values())
        assert stats["roots"] == len(lineages)
        assert stats["input_nodes"] == delta["input_nodes"] == node_count(
            *(compiled.source for compiled in batch.values())
        )
        assert stats["output_nodes"] == delta["output_nodes"] == node_count(
            *(compiled.root for compiled in batch.values())
        )
        assert stats["variables"] == 4
        # Shared nodes once: less than the sum of the per-root sizes.
        assert stats["input_nodes"] < sum(
            node_count(compiled.source) for compiled in batch.values()
        )

    def test_an_empty_batch_is_an_empty_answer(self):
        assert CircuitCompiler().compile_many({}) == {}

    def test_explicit_order_must_cover_the_support_of_every_root(self):
        compiler = CircuitCompiler(order=("a", "b"))
        with pytest.raises(SemiringError, match=r"outside the fixed order: \['c', 'd'\]"):
            compiler.compile_many(
                {1: prod_node(var("a"), var("b")), 2: sum_node(var("c"), var("d"))}
            )
        # A refused batch leaves the compiler usable and its order untouched.
        assert compiler.order == ("a", "b")
        assert compiler.compile(prod_node(var("a"), var("b"))).order == ("a", "b")

    def test_frequency_model_extends_the_order_deterministically(self):
        lineages = self.lineages()
        orders = []
        for _ in range(2):
            compiler = CircuitCompiler(model="frequency")
            compiler.compile(prod_node(var("b"), var("c")))
            first = compiler.order
            compiler.compile_many(lineages)
            assert compiler.order[: len(first)] == first  # extended, not reshuffled
            orders.append(compiler.order)
        assert orders[0] == orders[1]
        assert set(orders[0]) == set(NAMES)

    def test_wmc_many_equals_per_root_wmc(self):
        batch = CircuitCompiler().compile_many(self.lineages())
        weights = {"a": 0.3, "b": 0.6, "c": 0.25, "d": 0.9}
        counted = wmc_many({key: c.root for key, c in batch.items()}, weights)
        assert counted == {key: wmc(c.root, weights) for key, c in batch.items()}
        assert counted["t4"] == 1.0

    def test_weights_are_validated_once_with_the_same_messages(self):
        diagram = compile_circuit(sum_node(prod_node(var("a"), var("b")), var("c"))).root
        with pytest.raises(SemiringError, match="weights are missing variable 'c'"):
            wmc(diagram, {"a": 0.5, "b": 0.5})
        with pytest.raises(SemiringError, match="weight of 'b' must be a probability, got 1.5"):
            wmc_many({"t": diagram}, {"a": 0.5, "b": 1.5, "c": 0.5})

        class CountingWeights(dict):
            reads = 0

            def __getitem__(self, name):
                CountingWeights.reads += 1
                return dict.__getitem__(self, name)

        batch = CircuitCompiler().compile_many(self.lineages())
        wmc_many(
            {key: c.root for key, c in batch.items()},
            CountingWeights({"a": 0.3, "b": 0.6, "c": 0.25, "d": 0.9}),
        )
        assert CountingWeights.reads == 4  # once per variable, not per gate


class TestRepeatedCompilation:
    """The compiler's memos are keyed by the interned node, so what they
    describe stays alive and an identical request finds it again."""

    def test_recompiling_equal_circuits_hits_at_the_root_and_adds_nothing(self):
        compiler = CircuitCompiler()

        def lineages():  # rebuilt from scratch: only the compiler keeps them alive
            return {
                i: sum_node(
                    prod_node(var(f"r{i}"), var(f"r{i + 1}")),
                    prod_node(var(f"r{i + 1}"), var(f"r{i + 2}"), var("r0")),
                )
                for i in range(6)
            }

        first = compiler.compile_many(lineages())
        sizes = (
            len(compiler._compiled),
            sum(len(table) for table in compiler._cond.values()),
            len(compiler._supports),
        )
        for _ in range(4):
            misses = compiler.cache_misses
            again = compiler.compile_many(lineages())
            assert compiler.cache_misses == misses
            assert all(again[i].root is first[i].root for i in first)
            assert sizes == (
                len(compiler._compiled),
                sum(len(table) for table in compiler._cond.values()),
                len(compiler._supports),
            )


class TestScale:
    """10^5-node circuits through the batch compiler, the counting pass, the
    evaluator and ``specialize``: every pass is iterative."""

    def test_deep_chain(self):
        p, q = var("p"), var("q")
        steps = 50_000
        node = q
        for _ in range(steps):
            node = sum_node(prod_node(node, p), q)  # (...(q·p + q)·p + q...)
        assert node_count(node) == 2 * steps + 2

        compiler = CircuitCompiler(order=("p", "q"))
        compiled = compiler.compile_many({"deep": node})["deep"]
        # Support pass reached the bottom; the function is just ``q``.
        assert compiled.order == ("p", "q")
        assert compiled.stats["input_nodes"] == 2 * steps + 2
        assert compiled.root is compile_circuit(q).root
        assert wmc_many({"deep": compiled.root}, {"p": 0.5, "q": 0.25}) == {"deep": 0.25}
        # The counting pass is iterative on the deep source as well.
        assert wmc_many({"deep": node}, {"p": 0.0, "q": 0.25}) == {"deep": 0.25}
        assert eval_circuit(node, {"p": 1, "q": 1}, NATURALS) == steps + 1
        assert specialize(node, NATURALS, {"p": 0, "q": 3}) == 3

    def test_wide_dag(self):
        names = [f"w{i}" for i in range(450)]
        pairs = itertools.islice(itertools.combinations(names, 2), 100_000)
        lineages = {pair: prod_node(var(pair[0]), var(pair[1])) for pair in pairs}
        assert len(lineages) == 100_000

        compiler = CircuitCompiler()
        compiled = compiler.compile_many(lineages)
        assert set(compiler.order) == set(names)
        stats = compiled["w0", "w1"].stats
        assert stats["roots"] == 100_000 and stats["input_nodes"] == 100_450
        weights = {name: 0.5 for name in names}
        counted = wmc_many({pair: c.root for pair, c in compiled.items()}, weights)
        assert set(counted.values()) == {0.25}
        union = sum_node(*lineages.values())
        evaluator = CircuitEvaluator(NATURALS, {name: 1 for name in names})
        assert evaluator(union) == 100_000
        assert [evaluator(root) for root in lineages.values()] == [1] * 100_000
        assert specialize(union, NATURALS, {name: int(name == "w0") for name in names}) == 0
