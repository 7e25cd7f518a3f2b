"""``REPRO_DEBUG_TUPLES=1`` checks every raw row-key writer.

A :class:`~repro.relations.krelation.KRelation` stores row keys: each row's
values in sorted-attribute order.  The engines write those keys straight
into a relation's store, past the per-row checks of the mutators, so a
kernel bug could store a key of the wrong arity silently.  Under the debug
flag each writer -- the column kernels' materialization, the row pipeline's
``build_relation``, the datalog merge and the array state's flush,
``specialize`` and the bulk load -- rejects such a key with a
:class:`~repro.errors.SchemaError`.  Each test below hands one writer a
wrong-arity key (with the flag set, as these tests do by flipping the module
attribute) and checks that it is refused; without the flag the fast paths
skip the check.
"""

from __future__ import annotations

import pytest

from repro.circuits import var
from repro.circuits.evaluate import specialize
from repro.circuits.semiring import CircuitSemiring
from repro.datalog import Program
from repro.datalog.seminaive import _SemiNaiveEngine
from repro.engine import vectorized
from repro.engine.kernels import build_relation
from repro.errors import SchemaError
from repro.relations import KRelation, tuples
from repro.relations.database import Database
from repro.semirings import NaturalsSemiring, get_semiring
from repro.workloads import chain_graph_database, transitive_closure_program

requires_numpy = pytest.mark.skipif(
    not vectorized.numpy_available(), reason="the column kernels need numpy"
)


@pytest.fixture
def debug(monkeypatch):
    monkeypatch.setattr(tuples, "_DEBUG_TUPLES", True)


def _wide_batch(semiring):
    """A batch whose columns name one attribute more than its display:
    the keys it materializes have arity 3 over a binary schema."""
    import numpy as np

    ops = vectorized.vector_ops_for(semiring)
    column = vectorized._Col(np.zeros(2, dtype=np.int64), vectorized._object_array(["v"]))
    codes = np.array([0, 1], dtype=np.int64)
    other = vectorized._Col(codes, vectorized._object_array(["x", "y"]))
    batch = vectorized._Batch(
        ("a", "b"), {"a": column, "b": other, "c": other}, ops.to_array([1, 2])
    )
    return batch, ops


@requires_numpy
def test_materialize_rejects_a_wrong_arity_key(debug):
    semiring = NaturalsSemiring()
    batch, ops = _wide_batch(semiring)
    with pytest.raises(SchemaError, match="not a tuple of 2 values"):
        vectorized._materialize(batch, semiring, ops)


@requires_numpy
def test_materialize_skips_the_check_without_the_flag(monkeypatch):
    monkeypatch.setattr(tuples, "_DEBUG_TUPLES", False)
    semiring = NaturalsSemiring()
    batch, ops = _wide_batch(semiring)
    relation = vectorized._materialize(batch, semiring, ops)
    assert {len(key) for key in relation._rows} == {3}


def test_build_relation_rejects_a_wrong_arity_key(debug):
    semiring = NaturalsSemiring()
    for attrs in (("a", "b"), ("b", "a")):
        for row in (("x",), ("x", "y", "z")):
            with pytest.raises(SchemaError, match="not a tuple of 2 values"):
                build_relation(semiring, attrs, {row: [1]})
    # a well-formed row is permuted into key order and accepted
    relation = build_relation(semiring, ("b", "a"), {("x", "y"): [1, 2]})
    assert relation._rows == {("y", "x"): 3}


def _engine():
    database = chain_graph_database(get_semiring("tropical"), length=4, seed=1)
    program = transitive_closure_program(linear=True)
    return _SemiNaiveEngine(program, database, collect=False), program


def test_the_datalog_merge_rejects_a_wrong_arity_key(debug):
    engine, program = _engine()
    with pytest.raises(SchemaError, match="not a tuple of 2 values"):
        engine._merge({program.output: {("n0",): [1.0]}})
    assert engine._merge({program.output: {("n0", "n1"): [1.0]}})[program.output]


@requires_numpy
def test_the_array_flush_rejects_a_wrong_arity_key(debug):
    engine, program = _engine()
    engine.run(100)
    assert engine.round_path == "array"
    columns = engine._arrays.columns[program.output]
    # An extra code column and one row the store has not seen: the flush
    # decodes that row to a three-value key.
    columns.cols = columns.cols + [columns.cols[0]]
    columns.synced -= 1
    with pytest.raises(SchemaError, match="not a tuple of 2 values"):
        engine._arrays.flush(lambda predicate, keys: None)


@pytest.mark.parametrize("width", (2, 40))  # the scalar sweep, the level program
def test_specialize_rejects_a_wrong_arity_key(debug, width):
    circuits = CircuitSemiring()
    relation = KRelation(
        circuits, ["a"], [((str(i),), var(f"x{i}") * var(f"y{i}")) for i in range(width)]
    )
    relation._annotations[("p", "q")] = var("x0")
    valuation = {f"{name}{i}": 1 for name in "xy" for i in range(width)}
    with pytest.raises(SchemaError, match="not a tuple of 1 values"):
        specialize(relation, NaturalsSemiring(), valuation)


def test_the_bulk_load_rejects_a_wrong_arity_row(debug):
    semiring = NaturalsSemiring()
    with pytest.raises(SchemaError):
        KRelation(semiring, ["a", "b"], [(("x",), 1)])
    with pytest.raises(SchemaError):
        Database(semiring).create("R", ["a", "b"], [("x", "y", "z")])
    relation = KRelation(semiring, ["b", "a"], [(("x", "y"), 1)])
    assert relation._rows == {("y", "x"): 1}


def test_a_program_run_under_the_flag_stores_only_well_formed_keys(debug):
    database = Database(get_semiring("tropical"))
    attributes = [f"c{i}" for i in range(1, 12)]
    database.create("E", attributes, [(tuple(range(i, i + 11)), 1.0) for i in range(3)])
    head = ", ".join(f"x{i}" for i in range(1, 12))
    program = Program.parse(f"T({head}) :- E({head})")
    engine = _SemiNaiveEngine(program, database, collect=False)
    engine.run(10)
    assert len(engine.stores["T"].rows) == 3
    assert all(len(key) == 11 for key in engine.stores["T"].relation._rows)
