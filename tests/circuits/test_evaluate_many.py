"""``CircuitEvaluator.evaluate_many``: one sweep, many roots, one memo.

The multi-root sweep must agree with root-by-root evaluation and with
``Eval_v`` on the expanded polynomial (Proposition 4.2), keep raising on an
incomplete valuation, stay iterative on deep circuits, charge a k-ary gate
``k - 1`` operations, and never walk a memoised node twice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.circuits.evaluate as evaluate_module
from repro.circuits import (
    CircuitEvaluator,
    CircuitSemiring,
    const,
    node_count,
    prod_node,
    restrict_vars,
    specialize,
    sum_node,
    to_polynomial,
    var,
)
from repro.circuits.nodes import iter_nodes
from repro.engine import vectorized
from repro.errors import SemiringError
from repro.obs import instrument
from repro.relations.krelation import KRelation
from repro.semirings import (
    BooleanSemiring,
    NaturalsSemiring,
    PosBoolSemiring,
    TropicalSemiring,
)
from repro.semirings.posbool import BoolExpr

NAMES = ("x1", "x2", "x3", "x4", "x5")
TARGETS = [
    (NaturalsSemiring(), {x: i + 1 for i, x in enumerate(NAMES)}),
    (TropicalSemiring(), {x: float(2 * i + 1) for i, x in enumerate(NAMES)}),
    (BooleanSemiring(), {x: i % 2 == 0 for i, x in enumerate(NAMES)}),
    (PosBoolSemiring(), {x: BoolExpr.var(x) for x in NAMES}),
]
TARGET_IDS = [target.name for target, _ in TARGETS]

circuits = st.recursive(
    st.sampled_from(NAMES).map(var) | st.integers(0, 3).map(const),
    lambda children: st.builds(
        lambda gate, parts: gate(*parts),
        st.sampled_from([sum_node, prod_node]),
        st.lists(children, min_size=2, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(circuits, min_size=1, max_size=5))
def test_evaluate_many_equals_per_root_and_polynomial_evaluation(roots):
    for target, valuation in TARGETS:
        many = CircuitEvaluator(target, valuation).evaluate_many(roots)
        assert set(many) == set(roots)
        for root in roots:
            assert many[root] == CircuitEvaluator(target, valuation)(root)
            assert many[root] == to_polynomial(root).evaluate(target, valuation)


@pytest.mark.parametrize("target, valuation", TARGETS, ids=TARGET_IDS)
def test_missing_variable_raises_the_same_error(target, valuation):
    partial = {x: v for x, v in valuation.items() if x != "x3"}
    root = var("x1") * var("x3") + var("x2")
    for evaluate in (
        lambda: CircuitEvaluator(target, partial)(root),
        lambda: CircuitEvaluator(target, partial).evaluate_many([var("x1"), root]),
        lambda: specialize(root, target, partial),
    ):
        with pytest.raises(SemiringError, match="valuation is missing variable 'x3'"):
            evaluate()
    with pytest.raises(SemiringError, match="valuation is missing variable 'x3'"):
        to_polynomial(root).evaluate(target, partial)


def test_deep_chain_evaluates_without_recursion():
    depth = 10_000
    node = var("x1")
    for i in range(depth):
        node = node + var("x2") if i % 2 else node * var("x3")
    # x3 is the unit in both targets, so only the depth // 2 sums contribute
    valuation = {"x1": 1, "x2": 2, "x3": 1}
    assert CircuitEvaluator(NaturalsSemiring(), valuation)(node) == 1 + 2 * (depth // 2)
    costs = {"x1": 1.0, "x2": 2.0, "x3": 0.0}
    assert CircuitEvaluator(TropicalSemiring(), costs).evaluate_many([node])[node] == 1.0


def test_a_k_ary_gate_costs_k_minus_one_counted_operations():
    x1, x2, x3, x4 = (var(name) for name in NAMES[:4])
    root = sum_node(prod_node(x1, x2, x3), prod_node(x2, x4), x1, x3)  # 4-ary +
    target = instrument(NaturalsSemiring())
    value = CircuitEvaluator(target, TARGETS[0][1])(root)
    assert value == 1 * 2 * 3 + 2 * 4 + 1 + 3
    assert (target.ops.plus, target.ops.times) == (3, 2 + 1)


def relation_of(rows):
    relation = KRelation(CircuitSemiring(), ["k"])
    for key, annotation in rows:
        relation.set((key,), annotation)
    return relation


def test_shared_evaluator_does_not_rewalk_memoised_nodes(monkeypatch):
    yields = []

    def counting_iter_nodes(*roots, done=None):
        for node in iter_nodes(*roots, done=done):
            yields.append(node)
            yield node

    monkeypatch.setattr(evaluate_module, "iter_nodes", counting_iter_nodes)
    x1, x2, x3, x4 = (var(name) for name in NAMES[:4])
    shared = x1 * x2 + x3
    first = relation_of([(1, shared), (2, shared * x4), (3, x1 * x2)])
    second = relation_of([(1, shared * x4 + x1), (2, shared), (3, x4 * x4)])
    target, valuation = TARGETS[0]
    evaluator = CircuitEvaluator(target, valuation)

    roots = list(first.annotations())
    values = evaluator.evaluate_many(roots)
    assert len(yields) == len(set(yields)) == node_count(*roots)
    assert values[shared] == 1 * 2 + 3

    del yields[:]
    more = list(second.annotations())
    evaluator.evaluate_many(more)
    assert len(yields) == node_count(*roots, *more) - node_count(*roots)
    assert not set(yields) & set(iter_nodes(*roots))

    del yields[:]
    assert evaluator.evaluate_many(roots + more)[shared] == 5
    assert evaluator(shared * x4) == 20
    assert yields == []


def test_specialize_sweeps_a_relation_once_and_drops_zero_images(monkeypatch):
    sweeps, builds = [], []
    original, build = CircuitEvaluator.evaluate_many, evaluate_module._build_program

    def recording(self, roots):
        roots = list(roots)
        sweeps.append(len(roots))
        return original(self, roots)

    def recording_build(annotations):
        builds.append(len(annotations))
        return build(annotations)

    monkeypatch.setattr(CircuitEvaluator, "evaluate_many", recording)
    monkeypatch.setattr(evaluate_module, "_build_program", recording_build)
    monkeypatch.setattr(evaluate_module, "MIN_LEVEL_WIDTH", 1)  # a 4-row DAG is narrow
    x1, x2, x3 = (var(name) for name in NAMES[:3])
    relation = relation_of([(1, x1 * x2 + x3), (2, x1 * x2), (3, x3), (4, x1 * x2 + x3)])
    # An object target has no array carrier: one sweep over the 4 roots.
    valuation = {"x1": BoolExpr.var("x1"), "x2": BoolExpr.false(), "x3": BoolExpr.var("x3")}
    image = specialize(relation, PosBoolSemiring(), valuation)
    assert (sweeps, builds) == ([4], [])
    assert sorted(tup.values_for(["k"])[0] for tup in image) == [1, 3, 4]
    # N has one: no sweep, the relation's level program is built once
    # (without numpy there are no array carriers, and N sweeps too).
    del sweeps[:]
    image = specialize(relation, NaturalsSemiring(), {"x1": 2, "x2": 0, "x3": 5})
    if vectorized.numpy_available():
        assert (sweeps, builds) == ([], [4])
    else:
        assert (sweeps, builds) == ([4], [])
    assert {tup.values_for(["k"])[0]: n for tup, n in image.items()} == {1: 5, 3: 5, 4: 5}


def test_restrict_vars_rebuilds_gates_whole_on_the_shared_sweep():
    a, b, c, d = (var(name) for name in NAMES[:4])
    root = sum_node(prod_node(a, b, c), d, prod_node(a, d), b)  # 4-ary + over a 3-ary product
    assert restrict_vars(root, frozenset()) is root
    assert restrict_vars(root, {"x4"}) is sum_node(prod_node(a, b, c), b)
    assert to_polynomial(restrict_vars(root, {"x1"})) == to_polynomial(root).drop_variables({"x1"})
