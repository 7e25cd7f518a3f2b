"""Pickle round-trip safety for tuples, K-relations and semirings.

Every carrier round-trips by value, hash-consed circuit nodes re-intern on
unpickle (identity is their equality!), and the one deliberately
unpicklable thing -- an opaque predicate closure -- fails with a clear
:class:`~repro.errors.SerializationError` instead of a cryptic pickling
backtrace.  The test at the bottom unpickles in real ``fork`` and ``spawn``
processes, because ``spawn`` re-imports everything and is where naive
``__reduce__`` implementations break.
"""

from __future__ import annotations

import pickle

import pytest

from repro.circuits import CircuitSemiring
from repro.circuits.nodes import const, prod_node, sum_node, var
from repro.errors import SerializationError
from repro.obs.semiring import InstrumentedSemiring
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings import (
    BooleanSemiring,
    CompletedNaturalsSemiring,
    FuzzySemiring,
    IntegerPolynomialRing,
    IntegerRing,
    NaturalsSemiring,
    PosBoolSemiring,
    ProvenancePolynomialSemiring,
    TropicalSemiring,
    ViterbiSemiring,
    WhyProvenanceSemiring,
)


def roundtrip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def test_tup_roundtrips_by_value():
    tup = Tup({"b": 2, "a": "x", "c": (1, 2)})
    clone = roundtrip(tup)
    assert clone == tup
    assert hash(clone) == hash(tup)
    assert clone["a"] == "x" and clone["b"] == 2


def test_krelation_roundtrips():
    semiring = NaturalsSemiring()
    relation = KRelation(semiring, Schema(["a", "b"]))
    for i in range(6):
        relation.add({"a": i, "b": i % 2}, i + 1)
    clone = roundtrip(relation)
    assert clone.equal_to(relation)
    # The clone stays usable: inserts, lookups and removals work after the trip.
    clone.add({"a": 99, "b": 1}, 7)
    clone.discard({"a": 0, "b": 0})
    assert clone.annotation({"a": 99, "b": 1}) == 7
    assert len(clone) == len(relation)


def test_krelation_pickles_without_its_scan_cache():
    from repro.algebra.ast import Q
    from repro.engine import execute, vectorized

    if not vectorized.numpy_available():
        pytest.skip("the column kernels need numpy")
    database = Database(NaturalsSemiring())
    relation = database.create("R", ["a", "b"], [((i, i % 3), i + 1) for i in range(9)])
    execute(Q.relation("R").project("b"), database)
    assert relation._scan_cache is not None  # the vectorized scan filled it
    clone = roundtrip(relation)
    assert clone.equal_to(relation)
    assert clone._scan_cache is None
    assert b"numpy" not in pickle.dumps(relation)


SEMIRING_SAMPLES = [
    (BooleanSemiring(), [True, False]),
    (NaturalsSemiring(), [0, 3, 1 << 70]),
    (CompletedNaturalsSemiring(), None),
    (IntegerRing(), [-4, 0, 9]),
    (TropicalSemiring(), [0.0, 2.5, float("inf")]),
    (FuzzySemiring(), [0.0, 0.25, 1.0]),
    (ViterbiSemiring(), [0.0, 0.5, 1.0]),
    (PosBoolSemiring(), None),
    (WhyProvenanceSemiring(), None),
    (ProvenancePolynomialSemiring(), None),
    (IntegerPolynomialRing(), None),
]


@pytest.mark.parametrize(
    "semiring,samples", SEMIRING_SAMPLES, ids=lambda s: getattr(s, "name", "")
)
def test_registry_semirings_and_values_roundtrip(semiring, samples):
    clone = roundtrip(semiring)
    assert clone.name == semiring.name
    if samples is None:
        # Structured carriers: build values through the semiring itself.
        x = semiring.coerce(semiring.one())
        samples = [semiring.zero(), x, semiring.add(x, x), semiring.mul(x, x)]
    for value in samples:
        assert clone.coerce(roundtrip(value)) == value
    # The clone computes: a + a * 1 in the clone equals it in the original.
    a = samples[-1]
    assert clone.add(a, clone.mul(a, clone.one())) == semiring.add(
        a, semiring.mul(a, semiring.one())
    )


def test_circuit_nodes_reintern_on_unpickle():
    x, y = var("x"), var("y")
    node = sum_node(prod_node(x, y), const(3), x)
    clone = roundtrip(node)
    # Hash-consing makes interned identity the equality -- the round-trip
    # must land on the *same* node, not a structural copy.
    assert clone is node
    assert roundtrip(x) is x
    assert roundtrip(const(3)) is const(3)


def test_deep_circuit_pickles_without_recursion_error():
    node = var("x0")
    for i in range(3000):
        node = sum_node(node, var(f"x{i + 1}"))
    clone = roundtrip(node)
    assert clone is node


def test_shared_subcircuits_stay_shared():
    shared = prod_node(var("a"), var("b"))
    root = sum_node(shared, prod_node(shared, var("c")))
    clone = roundtrip(root)
    assert clone is root
    assert clone.children[0] is shared


def test_circuit_semiring_database_roundtrips():
    semiring = CircuitSemiring()
    relation = KRelation(semiring, Schema(["a"]))
    relation.add({"a": 1}, semiring.coerce(var("p")))
    relation.add({"a": 2}, semiring.add(var("p"), var("q")))
    clone = roundtrip(Database(semiring, {"R": relation}))
    assert clone.relation("R").annotation({"a": 2}) is semiring.add(
        var("p"), var("q")
    )


def test_instrumented_semiring_roundtrips():
    instrumented = InstrumentedSemiring(TropicalSemiring())
    instrumented.add(1.0, 2.0)
    clone = roundtrip(instrumented)
    assert clone.name == "Tropical"
    assert clone.add(3.0, 4.0) == 3.0  # still computes min


def module_level_predicate(tup):
    return tup["a"] > 1


def test_opaque_predicate_closure_raises_serialization_error():
    from repro.algebra.predicates import OpaquePredicate

    opaque = OpaquePredicate(lambda tup: tup["a"] > 1)
    with pytest.raises(SerializationError, match="structured predicate"):
        pickle.dumps(opaque)


def test_opaque_predicate_module_function_roundtrips():
    from repro.algebra.predicates import OpaquePredicate

    opaque = OpaquePredicate(module_level_predicate)
    clone = roundtrip(opaque)
    assert clone(Tup({"a": 5})) and not clone(Tup({"a": 0}))


def test_structured_predicates_roundtrip():
    from repro.algebra.predicates import attr_eq, attr_eq_const

    for predicate in (attr_eq("a", "b"), attr_eq_const("a", 3)):
        clone = roundtrip(predicate)
        assert clone(Tup({"a": 3, "b": 3})) == predicate(Tup({"a": 3, "b": 3}))


# -- through a separate process ------------------------------------------------
def _echo_payload():
    """A payload touching every shipped carrier at once."""
    semiring = TropicalSemiring()
    relation = KRelation(semiring, Schema(["a", "b"]))
    for i in range(4):
        relation.add({"a": i, "b": i + 1}, float(i))
    circuit = sum_node(prod_node(var("x"), var("y")), const(2))
    return (Tup({"k": 1}), relation, semiring, circuit)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_payloads_survive_worker_processes(start_method):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} unavailable on this platform")
    payload = _echo_payload()
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    context = multiprocessing.get_context(start_method)
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        # The worker unpickles the blob and pickles the result back: one
        # full round-trip through a genuinely separate interpreter.
        tup, relation, semiring, circuit = pool.submit(pickle.loads, blob).result()
    assert tup == payload[0]
    assert relation.equal_to(payload[1])
    assert semiring.name == payload[2].name
    assert circuit is payload[3]  # re-interned into this process's table
