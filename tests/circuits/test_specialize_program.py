"""``specialize`` on a relation: the level program against the scalar sweep.

A circuit-annotated relation specialised into a semiring with an array
carrier runs one cached level program; everything else, and every carrier
decline, runs ``CircuitEvaluator.evaluate_many``.  Both must give the same
annotations as ``Eval_v`` on the expanded polynomial (Proposition 4.2), drop
the same zero images and charge an instrumented target the same
``plus`` / ``times`` / ``is_zero``.  The program lives on the relation until
its next mutation and never travels in a pickle.
"""

import math
import pickle
from contextlib import contextmanager
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.circuits.evaluate as evaluate_module
from repro.circuits import (
    CircuitEvaluator,
    CircuitSemiring,
    compile_circuit,
    specialize,
    to_polynomial,
    var,
)
from repro.engine import vectorized
from repro.errors import SemiringError
from repro.obs import instrument
from repro.relations.krelation import KRelation
from repro.semirings import (
    BooleanSemiring,
    FuzzySemiring,
    IntegerRing,
    NaturalsSemiring,
    PosBoolSemiring,
    TropicalSemiring,
    ViterbiSemiring,
)
from repro.semirings.posbool import BoolExpr
from tests.circuits.test_evaluate_many import NAMES, circuits
from tests.strategies import row_loop

pytestmark = pytest.mark.skipif(
    not vectorized.numpy_available(), reason="the level program needs numpy"
)

#: Each carrier semiring with the values its valuations draw from: zero
#: (N's 0, Z's cancellations, Tropical's inf, Viterbi's and Fuzzy's 0.0) is
#: among them, and every float is dyadic, so the expanded polynomial's
#: different order of operations reads the same double.
CARRIER_TARGETS = [
    (NaturalsSemiring(), [0, 1, 2, 3]),
    (IntegerRing(), [-2, -1, 0, 1, 2]),
    (BooleanSemiring(), [False, True]),
    (TropicalSemiring(), [0.0, 1.0, 2.0, math.inf]),
    (FuzzySemiring(), [0.0, 0.25, 0.5, 1.0]),
    (ViterbiSemiring(), [0.0, 0.25, 0.5, 1.0]),
]


def relation_of(annotations):
    relation = KRelation(CircuitSemiring(), ["k"])
    for key, annotation in enumerate(annotations):
        relation.set((key,), annotation)
    return relation


def by_key(image):
    return {tup.values_for(["k"])[0]: value for tup, value in image.items()}


@contextmanager
def any_width():
    """Let the level program take DAGs of any width (tests' DAGs are small)."""
    with mock.patch.object(evaluate_module, "MIN_LEVEL_WIDTH", 1):
        yield


@contextmanager
def counting(owner, name):
    """Record the calls of ``owner.name`` while it keeps working."""
    calls = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with mock.patch.object(owner, name, recording):
        yield calls


def both_paths(relation, target, valuation):
    """``(program image, sweep image)``, each on a fresh instrumented target."""
    program_target, sweep_target = instrument(target), instrument(target)
    with any_width(), counting(CircuitEvaluator, "evaluate_many") as sweeps:
        program_image = specialize(relation, program_target, valuation)
    assert sweeps == [] and relation._circuit_program
    with row_loop():
        sweep_image = specialize(relation, sweep_target, valuation)
    return (program_image, program_target.ops), (sweep_image, sweep_target.ops)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(circuits, min_size=1, max_size=5), st.data())
def test_program_equals_sweep_and_polynomial_under_every_carrier(roots, data):
    relation = relation_of(roots)
    assume(relation)  # a zero root is not stored; an empty relation has no DAG
    for target, values in CARRIER_TARGETS:
        valuation = {x: data.draw(st.sampled_from(values)) for x in NAMES}
        (image, ops), (reference, reference_ops) = both_paths(relation, target, valuation)
        assert by_key(image) == by_key(reference), target.name
        assert [type(v) for v in image.annotations()] == [
            type(v) for v in reference.annotations()
        ]
        assert ops.snapshot() == reference_ops.snapshot(), target.name
        for tup, root in relation.items():
            expected = to_polynomial(root).evaluate(target, valuation)
            assert image.annotation(tup) == expected, target.name
            assert (tup in image) == (not target.is_zero(expected))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(circuits, min_size=1, max_size=5), st.data())
def test_tropical_products_fold_in_the_sweeps_order(roots, data):
    # In doubles, sums of 0.1, 0.2, 0.7 and 1e16 depend on their grouping
    # (1e16 + 0.7 + 0.7 != 1e16 + (0.7 + 0.7)): a product folded in another
    # order than the sweep's reads a different float.
    relation = relation_of(roots)
    assume(relation)
    valuation = {x: data.draw(st.sampled_from([0.1, 0.2, 0.7, 1e16])) for x in NAMES}
    (image, ops), (reference, reference_ops) = both_paths(relation, TropicalSemiring(), valuation)
    assert by_key(image) == by_key(reference)
    assert ops.snapshot() == reference_ops.snapshot()


@pytest.mark.parametrize(
    "target, zero_value",
    [(NaturalsSemiring(), 0), (TropicalSemiring(), math.inf), (ViterbiSemiring(), 0.0)],
    ids=["N", "Tropical", "Viterbi"],
)
def test_zero_images_are_dropped_on_the_program(target, zero_value):
    x1, x2, x3 = (var(name) for name in NAMES[:3])
    relation = relation_of([x1 * x2 + x3, x1 * x2, x3, x1 * x2 + x3])
    one = target.one()
    valuation = {"x1": one, "x2": zero_value, "x3": one}
    (image, ops), (reference, reference_ops) = both_paths(relation, target, valuation)
    assert sorted(by_key(image)) == sorted(by_key(reference)) == [0, 2, 3]
    assert ops.snapshot() == reference_ops.snapshot()
    assert ops.is_zero == 4


def test_an_overflowing_valuation_declines_to_exact_python_ints():
    x1, x2, x3 = (var(name) for name in NAMES[:3])
    relation = relation_of([x1 * x2 * x3, x1 + x2, x3])
    valuation = {x: 2**40 for x in NAMES}
    with any_width(), counting(CircuitEvaluator, "evaluate_many") as sweeps:
        image = specialize(relation, NaturalsSemiring(), valuation)
    assert len(sweeps) == 1 and relation._circuit_program  # built, then declined
    assert by_key(image) == {0: 2**120, 1: 2**41, 2: 2**40}
    assert all(type(value) is int for value in image.annotations())


def test_a_leaf_beyond_int64_declines_too():
    relation = relation_of([var("x1") + var("x2"), var("x1")])
    with any_width():
        image = specialize(relation, IntegerRing(), {"x1": -(2**70), "x2": 1})
    assert by_key(image) == {0: 1 - 2**70, 1: -(2**70)}


# -- the cache -----------------------------------------------------------------


def wide_relation():
    """Two hundred rows over a shallow DAG: wide enough for the program."""
    x = [var(f"x{i}") for i in range(40)]
    pairs = list(combinations(range(40), 2))[:200]
    return relation_of([x[a] * x[b] + x[(a + b) % 40] for a, b in pairs])


def wide_valuation(offset=0):
    return {f"x{i}": (i + offset) % 5 for i in range(40)}


def scalar_reference(relation, target, valuation):
    values = CircuitEvaluator(target, valuation).evaluate_many(relation.annotations())
    return by_key(relation.map_annotations(values.__getitem__, target))


def test_a_wide_relation_runs_the_program_without_patching():
    relation = wide_relation()
    with counting(CircuitEvaluator, "evaluate_many") as sweeps:
        image = specialize(relation, NaturalsSemiring(), wide_valuation())
    assert sweeps == []
    assert by_key(image) == scalar_reference(relation, NaturalsSemiring(), wide_valuation())


def test_three_targets_build_the_program_once():
    relation = wide_relation()
    targets = [
        (NaturalsSemiring(), wide_valuation()),
        (TropicalSemiring(), {x: float(v) for x, v in wide_valuation().items()}),
        (BooleanSemiring(), {x: v > 1 for x, v in wide_valuation().items()}),
    ]
    with counting(evaluate_module, "_build_program") as builds:
        for target, valuation in targets:
            image = specialize(relation, target, valuation)
            assert by_key(image) == scalar_reference(relation, target, valuation)
    assert len(builds) == 1


@pytest.mark.parametrize(
    "mutate",
    [
        lambda relation, row, node: relation.set(row, node),
        lambda relation, row, node: relation.add(row, node),
        lambda relation, row, node: relation.discard(row),
        lambda relation, row, node: relation._annotations.__setitem__(
            relation._key(row), node
        ),
    ],
    ids=["set", "add", "discard", "_annotations"],
)
def test_each_mutation_drops_the_program_and_the_next_call_sees_it(mutate):
    relation = wide_relation()
    target, valuation = NaturalsSemiring(), wide_valuation(1)
    specialize(relation, target, valuation)
    program = relation._circuit_program
    assert program
    mutate(relation, (7,), var("x3") * var("x4"))
    assert relation._circuit_program is None
    image = specialize(relation, target, valuation)
    assert relation._circuit_program and relation._circuit_program is not program
    assert by_key(image) == scalar_reference(relation, target, valuation)


def test_a_pickled_relation_carries_no_program():
    relation = wide_relation()
    specialize(relation, NaturalsSemiring(), wide_valuation())
    assert relation._circuit_program
    payload = pickle.dumps(relation)
    assert b"numpy" not in payload
    clone = pickle.loads(payload)
    assert clone._circuit_program is None
    assert by_key(specialize(clone, NaturalsSemiring(), wide_valuation())) == by_key(
        specialize(relation, NaturalsSemiring(), wide_valuation())
    )


# -- declines ------------------------------------------------------------------


def test_a_deep_chain_takes_the_sweep():
    depth = 10_000
    node = var("x1")
    for i in range(depth):
        node = node + var("x2") if i % 2 else node * var("x3")
    relation = relation_of([node, var("x2")])
    with counting(CircuitEvaluator, "evaluate_many") as sweeps:
        image = specialize(relation, NaturalsSemiring(), {"x1": 1, "x2": 2, "x3": 1})
        specialize(relation, BooleanSemiring(), {"x1": True, "x2": True, "x3": True})
    assert len(sweeps) == 2
    assert relation._circuit_program is False  # the decline is cached too
    assert by_key(image) == {0: 1 + 2 * (depth // 2), 1: 2}


def test_object_targets_take_the_sweep():
    relation = wide_relation()
    valuation = {name: BoolExpr.var(name) for name in wide_valuation()}
    with counting(CircuitEvaluator, "evaluate_many") as sweeps:
        specialize(relation, PosBoolSemiring(), valuation)
    assert len(sweeps) == 1 and relation._circuit_program is None


@pytest.mark.parametrize(
    "target, convert", [(NaturalsSemiring(), int), (TropicalSemiring(), float), (BooleanSemiring(), bool)]
)
def test_results_are_equal_without_the_column_arithmetic(target, convert):
    relation = wide_relation()
    valuation = {x: convert(v) for x, v in wide_valuation(2).items()}
    with row_loop(), counting(CircuitEvaluator, "evaluate_many") as sweeps:
        declined = specialize(relation, target, valuation)
    assert len(sweeps) == 1 and relation._circuit_program is None
    assert declined == specialize(relation, target, valuation)


def test_a_compiled_circuit_raises_the_sweeps_error():
    compiled = compile_circuit(var("x1") * var("x2") + var("x3")).root
    relation = relation_of([compiled, var("x1")])
    with any_width(), pytest.raises(SemiringError, match="complement="):
        specialize(relation, NaturalsSemiring(), {"x1": 1, "x2": 2, "x3": 3})
    assert relation._circuit_program is False


def test_a_missing_variable_raises_on_the_program():
    relation = wide_relation()
    valuation = wide_valuation()
    del valuation["x5"]
    with pytest.raises(SemiringError, match="valuation is missing variable 'x5'"):
        specialize(relation, NaturalsSemiring(), valuation)
    assert relation._circuit_program
