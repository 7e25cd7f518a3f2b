"""Compilation to ordered decision diagrams (bottom-up apply): correctness
against brute-force enumeration and node identity with the top-down Shannon
reference, structural guarantees, memos, recursion safety, and the
interaction with the PR 8 deletion homomorphism (vars -> 0)."""

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    ONE,
    ZERO,
    CircuitCompiler,
    CircuitEvaluator,
    CompiledCircuit,
    Const,
    Decision,
    Not,
    Prod,
    Sum,
    Var,
    check_ddnnf,
    choose_variable_order,
    circuit_depth,
    compile_circuit,
    const,
    decision_node,
    eval_circuit,
    iter_nodes,
    node_count,
    not_node,
    prod_node,
    restrict_vars,
    specialize,
    sum_node,
    top_k_many,
    var,
    wmc,
    wmc_many,
)
from repro.circuits.compile import clear_compile_cache
from repro.datalog.provenance import absorptive_circuit_provenance
from repro.errors import SemiringError
from repro.obs.metrics import compilation
from repro.probabilistic import ProbabilisticDatabase
from repro.semirings.numeric import INFINITY, NaturalsSemiring
from repro.semirings.posbool import BoolExpr
from tests.circuits.shannon_reference import shannon_compile

NAMES = ("a", "b", "c", "d")
NATURALS = NaturalsSemiring()
POOL = tuple(f"v{i}" for i in range(8))


@st.composite
def circuits(draw, depth: int = 3):
    """Small random N-circuits over a fixed four-variable pool."""
    if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        return var(draw(st.sampled_from(NAMES)))
    op = sum_node if draw(st.booleans()) else prod_node
    width = draw(st.integers(min_value=1, max_value=3))
    return op(*(draw(circuits(depth=depth - 1)) for _ in range(width)))


@st.composite
def rich_circuits(draw, names, depth: int = 3):
    """Random sources over ``names`` with every node kind the compiler
    reads: constants (0, 1, 3, infinity), negated literals and decision
    gates besides variables, sums and products."""
    if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        leaf = draw(st.sampled_from(("var", "var", "not", "const")))
        if leaf == "const":
            return const(draw(st.sampled_from((0, 1, 3, INFINITY))))
        literal = var(draw(st.sampled_from(names)))
        return not_node(literal) if leaf == "not" else literal
    gate = draw(st.sampled_from(("sum", "prod", "decision")))
    if gate == "decision":
        hi, lo = draw(rich_circuits(names, depth - 1)), draw(rich_circuits(names, depth - 1))
        return decision_node(draw(st.sampled_from(names)), hi, lo)
    op = sum_node if gate == "sum" else prod_node
    width = draw(st.integers(min_value=1, max_value=3))
    return op(*(draw(rich_circuits(names, depth - 1)) for _ in range(width)))


@st.composite
def source_batches(draw):
    """A pool of 6-8 variable names and 1-4 random sources over it."""
    names = POOL[: draw(st.integers(min_value=6, max_value=8))]
    return names, draw(st.lists(rich_circuits(names), min_size=1, max_size=4))


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


class TestAgainstShannonReference:
    """Bottom-up apply returns the *identical* node the top-down Shannon
    expansion does: both build the canonical reduced diagram of the order."""

    @settings(max_examples=80, deadline=None)
    @given(
        source_batches(),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_compile_many_returns_the_reference_diagram(self, batch, shuffled, rng):
        names, sources = batch
        if shuffled:
            order = list(names)
            rng.shuffle(order)
            compiler = CircuitCompiler(order=order)
        else:
            compiler = CircuitCompiler()
        compiled = compiler.compile_many(dict(enumerate(sources)))
        for key, source in enumerate(sources):
            root, order = shannon_compile(source, compiler.order)
            assert compiled[key].root is root
            assert compiled[key].order == order
            # Idempotence: a diagram compiles to itself under its order.
            assert CircuitCompiler(order=compiler.order).compile(root).root is root
        diagrams = [c.root for c in compiled.values()]
        assert compiled[0].stats["output_nodes"] == len(list(iter_nodes(*diagrams)))
        assert compiled[0].stats["input_nodes"] == len(list(iter_nodes(*sources)))

    def test_ladder_circuits(self):
        """The absorptive provenance circuits of TC over an 8-column directed
        ladder: the lineage shape the probabilistic layer compiles."""
        columns = 8
        edges = [((c, 0), (c, 1)) for c in range(columns)]
        for c in range(columns - 1):
            edges += [((c, 0), (c + 1, 0)), ((c, 1), (c + 1, 1))]
        pdb = ProbabilisticDatabase()
        pdb.add_relation(
            "R",
            ["x", "y"],
            [((f"n{s}", f"n{t}"), f"e{i}", 0.5) for i, (s, t) in enumerate(edges)],
        )
        program = "T(x, y) :- R(x, y)\nT(x, y) :- R(x, z), T(z, y)"
        circuits = absorptive_circuit_provenance(program, pdb.lineage_database)
        compiler = CircuitCompiler()
        compiled = compiler.compile_many(circuits)
        assert len(compiled) == 92  # the reachable pairs
        for atom in circuits:
            root, order = shannon_compile(compiled[atom].source, compiler.order)
            assert compiled[atom].root is root
            assert compiled[atom].order == order


class TestOrdersAndCaches:
    def test_default_order_is_first_touch(self):
        circuit = prod_node(sum_node(var("c"), var("a")), var("b"))
        order = choose_variable_order(circuit)
        assert sorted(order) == ["a", "b", "c"]
        # Deterministic: the same circuit always yields the same order.
        assert choose_variable_order(circuit) == order
        assert CircuitCompiler().compile(circuit).order == order
        # A decision is touched before its hi branch, the hi before the lo.
        assert choose_variable_order(decision_node("c", var("b"), var("a"))) == ("c", "b", "a")

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
        assert compile_circuit(circuit, order=("c", "b", "a")) is not first

    def test_shared_compiler_shares_the_memo(self):
        """Related lineages share compiled work: a shared subcircuit is
        compiled once, and an apply step taken before is a memo hit."""
        compiler = CircuitCompiler()
        base = prod_node(var("a"), var("b"))
        compiler.compile(base)
        known = len(compiler._compiled)
        compiler.compile(sum_node(base, var("c")))
        assert len(compiler._compiled) == known + 2  # only ``c`` and the new sum
        hits, misses = compiler.cache_hits, compiler.cache_misses
        # c·c compiles to c's diagram, so this root repeats the step OR(a·b, c).
        compiler.compile(sum_node(base, prod_node(var("c"), var("c"))))
        assert (compiler.cache_hits, compiler.cache_misses) == (hits + 1, misses + 1)

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

    def test_batch_counts_equal_the_walk_when_reused(self, monkeypatch):
        """A repeat of a counted batch reads its counts back without walking;
        a reordered batch and a sub-batch walk, and every batch reports
        what ``node_count`` says of its roots and diagrams."""
        import repro.circuits.compile as compile_module

        walks = []

        def counting(*roots):
            walks.append(len(roots))
            return node_count(*roots)

        monkeypatch.setattr(compile_module, "node_count", counting)
        compiler = CircuitCompiler()
        lineages = self.lineages()
        keys = list(lineages)
        batches = [
            ("first", keys),
            ("repeated", keys),
            ("reordered", keys[::-1]),
            ("sub-batch", keys[1:3]),
            ("repeated sub-batch", keys[1:3]),
        ]
        for label, chosen in batches:
            del walks[:]
            compiled = compiler.compile_many({key: lineages[key] for key in chosen})
            stats = next(iter(compiled.values())).stats
            assert (stats["input_nodes"], stats["output_nodes"]) == (
                node_count(*(c.source for c in compiled.values())),
                node_count(*(c.root for c in compiled.values())),
            ), label
            assert bool(walks) == (not label.startswith("repeated")), label

    def test_a_repeated_batch_names_no_orders(self, monkeypatch):
        """The orders of a counted batch are stored with its counts: a
        repeat reads them back instead of decoding every root's support."""
        compiler = CircuitCompiler()
        first = compiler.compile_many(self.lineages())
        calls, names = [], compiler._names

        def spy(support):
            calls.append(support)
            return names(support)

        monkeypatch.setattr(compiler, "_names", spy)
        again = compiler.compile_many(self.lineages())
        assert calls == []
        assert {key: c.order for key, c in again.items()} == {
            key: c.order for key, c in first.items()
        }
        compiler.compile_many({"t5": prod_node(var("a"), var("d"))})
        assert len(calls) == 1  # a new batch decodes its roots

    def test_essential_orders_are_the_tested_variables(self):
        """``x + x·y`` compiles to ``x``: its order names ``y``, its
        essential order does not, and top-k then leaves ``y`` out."""
        compiler = CircuitCompiler()
        x, y = var("x"), var("y")
        compiled = compiler.compile_many({"absorbed": sum_node(x, prod_node(x, y)), "both": x * y})
        essential = compiler.essential(compiled)
        assert compiled["absorbed"].order == ("x", "y")
        assert essential["absorbed"].order == ("x",)
        assert essential["both"].order == compiled["both"].order == ("x", "y")
        assert all(essential[key].root is compiled[key].root for key in compiled)
        assert top_k_many(essential, {"x": 0.9, "y": 0.2}, 3)["absorbed"] == [
            (0.9, {"x": True})
        ]

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

    def test_default_order_extends_deterministically(self):
        lineages = self.lineages()
        orders = []
        for _ in range(2):
            compiler = CircuitCompiler()
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


def reference_wmc(roots, weights):
    """``wmc_many`` as a postorder fold over ``iter_nodes``: each gate folds
    its children in child order from ``0.0`` / ``1.0``."""
    memo = {}
    for node in iter_nodes(*roots.values()):
        if isinstance(node, Var):
            value = float(weights[node.name])
        elif isinstance(node, Const):
            value = 0.0 if node.value == 0 else 1.0
        elif isinstance(node, Not):
            value = 1.0 - float(weights[node.child.name])
        elif isinstance(node, Decision):
            p = float(weights[node.name])
            value = p * memo[node.hi] + (1.0 - p) * memo[node.lo]
        elif isinstance(node, Sum):
            value = 0.0
            for child in node.children:
                value += memo[child]
        else:
            value = 1.0
            for child in node.children:
                value *= memo[child]
        memo[node] = value
    return {key: memo[root] for key, root in roots.items()}


probabilities = st.floats(min_value=0.0, max_value=1.0)


class TestWmcAgainstReference:
    """``wmc_many`` is ``==`` to the reference fold: the same products and
    sums in the same order, on diagrams and on raw gates alike."""

    @settings(max_examples=60, deadline=None)
    @given(source_batches(), st.lists(probabilities, min_size=8, max_size=8))
    def test_random_sources_and_their_diagrams(self, batch, ps):
        """Sources carry ``Not``, ``Sum``, ``Prod``, ``Decision`` and
        constant nodes; their compiled diagrams only decisions and leaves."""
        names, sources = batch
        weights = dict(zip(names, ps))
        sources = dict(enumerate(sources))
        compiled = CircuitCompiler().compile_many(sources)
        for roots in (sources, {key: c.root for key, c in compiled.items()}):
            assert wmc_many(roots, weights) == reference_wmc(roots, weights)

    def test_wide_gates_fold_in_child_order(self):
        """Float ``+`` and ``*`` are not associative: a 40-child sum or
        product is ``==`` to the reference only when folded in child order."""
        names = [f"g{i}" for i in range(40)]
        weights = {name: ((i * 7919) % 1000 + 1) / 1013 for i, name in enumerate(names)}
        literals = [not_node(var(n)) if i % 5 == 0 else var(n) for i, n in enumerate(names)]
        roots = {
            "sum": sum_node(*(prod_node(a, b) for a, b in zip(literals, literals[1:]))),
            "prod": prod_node(*literals),
        }
        counted = wmc_many(roots, weights)
        assert counted == reference_wmc(roots, weights)
        for key, backwards in (("sum", 0.0), ("prod", 1.0)):
            parts = reference_wmc(dict(enumerate(roots[key].children)), weights).values()
            for part in reversed(list(parts)):
                backwards = backwards + part if key == "sum" else backwards * part
            assert backwards != counted[key]  # the fold order is observable here

    def test_deep_chains(self):
        """A 10,000-literal conjunction, compiled (a decision chain 10,000
        deep), and a 15,000-deep source chain of sums, products and
        negated literals, under a recursion limit of 1,000."""
        steps = 10_000
        names = [f"k{i}" for i in range(steps)]
        negated = [i % 3 == 0 for i in range(steps)]
        literals = [not_node(var(n)) if neg else var(n) for n, neg in zip(names, negated)]
        # likely literals, so the 10,000-fold product does not underflow
        weights = {
            name: (1.0 - p if neg else p)
            for name, neg, p in zip(names, negated, (1.0 - (i % 7 + 1) / 1e4 for i in range(steps)))
        }
        conjunction = literals[-1]
        for literal in reversed(literals[:-1]):
            conjunction = prod_node(literal, conjunction)
        mixed = literals[0]
        for i in range(1, steps):
            mixed = prod_node(mixed, literals[i])
            if i % 2:
                mixed = sum_node(mixed, var(names[i - 1]))
        compiled = CircuitCompiler().compile_many({"and": conjunction})["and"]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            assert circuit_depth(compiled.root) == steps
            for roots in ({"and": compiled.root}, {"and": conjunction, "mixed": mixed}):
                counted = wmc_many(roots, weights)
                assert counted == reference_wmc(roots, weights)
                assert 0.0 < counted["and"] < 1.0
        finally:
            sys.setrecursionlimit(limit)


class TestTopK:
    """Hand-built edge cases of the k-best sweep; the differential harness
    against the enumerated worlds is ``tests/probabilistic``."""

    WEIGHTS = {"a": 0.3, "b": 0.6}

    @staticmethod
    def worlds(probabilities, assignments):
        return [(pytest.approx(p), a) for p, a in zip(probabilities, assignments)]

    def test_k_zero_is_empty(self):
        compiled = compile_circuit(var("a"))
        assert compiled.top_k(self.WEIGHTS, 0) == []
        assert top_k_many({"t": compiled}, self.WEIGHTS, 0) == {"t": []}

    def test_an_unsatisfiable_root_has_no_models(self):
        assert CompiledCircuit(ZERO, ZERO, ("a", "b")).top_k(self.WEIGHTS, 3) == []

    def test_k_above_the_model_count_gives_every_model(self):
        compiled = compile_circuit(sum_node(var("a"), var("b")), order=("a", "b"))
        assert compiled.top_k(self.WEIGHTS, 10) == self.worlds(
            (0.42, 0.18, 0.12),
            ({"a": False, "b": True}, {"a": True, "b": True}, {"a": True, "b": False}),
        )

    def test_one_over_two_variables_gives_four_worlds(self):
        top = CompiledCircuit(ONE, ONE, ("a", "b")).top_k(self.WEIGHTS, 4)
        assert top == self.worlds(
            (0.42, 0.28, 0.18, 0.12),
            (
                {"a": False, "b": True},
                {"a": False, "b": False},
                {"a": True, "b": True},
                {"a": True, "b": False},
            ),
        )

    def test_worlds_name_the_variables_the_diagram_skips(self):
        """``x + x·y`` compiles to ``x``; its worlds still decide ``y``."""
        compiled = compile_circuit(sum_node(var("x"), prod_node(var("x"), var("y"))))
        assert compiled.root is compile_circuit(var("x")).root
        assert compiled.top_k({"x": 0.9, "y": 0.2}, 3) == self.worlds(
            (0.72, 0.18), ({"x": True, "y": False}, {"x": True, "y": True})
        )

    def test_ties_go_to_the_later_named_variable_set_true(self):
        """Equal probabilities are ordered by the literals, whatever the
        branching order."""
        for order in (("a", "b"), ("b", "a")):
            compiled = compile_circuit(sum_node(var("a"), var("b")), order=order)
            assert compiled.top_k({"a": 0.5, "b": 0.5}, 3) == [
                (0.25, {"a": True, "b": True}),
                (0.25, {"a": False, "b": True}),
                (0.25, {"a": True, "b": False}),
            ]


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

        def sizes():
            return len(compiler._compiled), len(compiler._applied), len(compiler._supports)

        first = compiler.compile_many(lineages())
        before = sizes()
        assert before[1] > 0  # the lineages needed non-terminal apply steps
        for _ in range(4):
            misses = compiler.cache_misses
            again = compiler.compile_many(lineages())
            assert compiler.cache_misses == misses
            assert all(again[i].root is first[i].root for i in first)
            assert sizes() == before


class TestRecursionSafety:
    """The sweep and the apply are iterative: diagrams deeper than the
    interpreter's recursion limit compile, count and weigh."""

    N = 3_000

    @pytest.fixture(autouse=True)
    def low_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)  # far below the diagram depths here
        try:
            yield
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("gate", [prod_node, sum_node], ids=["and", "or"])
    def test_chains(self, gate):
        names = [f"c{i}" for i in range(self.N)]
        literals = [var(name) for name in names]
        node = literals[-1]
        for literal in reversed(literals[:-1]):
            node = gate(literal, node)  # c0 op (c1 op (... op c2999))
        compiled = CircuitCompiler().compile_many({"chain": node})["chain"]
        assert compiled.order == tuple(names)
        assert compiled.size == self.N + 2  # one decision per variable
        p = 0.9999 if gate is prod_node else 1e-4
        probability = wmc_many({"chain": compiled.root}, {name: p for name in names})
        expected = p**self.N if gate is prod_node else 1.0 - (1.0 - p) ** self.N
        assert probability["chain"] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("creation", ["forward", "backward"])
    def test_interleaved_clauses(self, creation):
        """x0·y0 + x1·y1 + ... under x0 < y0 < x1 < y1 < ...: a diagram of
        depth 6,000, linear whichever order the clauses were built in."""
        xs = [var(f"x{i}") for i in range(self.N)]
        ys = [var(f"y{i}") for i in range(self.N)]
        built = range(self.N) if creation == "forward" else reversed(range(self.N))
        clauses = sum_node(*(prod_node(xs[i], ys[i]) for i in built))
        order = [f"{side}{i}" for i in range(self.N) for side in "xy"]
        compiled = CircuitCompiler(order=order).compile(clauses)
        assert compiled.size == 2 * self.N + 2
        node, depth = compiled.root, 0
        while isinstance(node, Decision):
            node, depth = node.lo, depth + 1  # every x false: walks each pair
        assert node is ZERO and depth == self.N
        weights = {name: 0.5 for name in order}
        miss = 0.75**self.N
        assert wmc_many({0: compiled.root}, weights)[0] == pytest.approx(1.0 - miss)


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
