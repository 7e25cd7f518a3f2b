"""Matrix differential: every entry point agrees with its paper-literal oracle.

``Query.evaluate`` against operator-at-a-time ``Query._execute``,
``evaluate_program`` against ``solve_ground(ground_program(...))`` and
incremental maintenance against a rebuild, each cell crossing a semiring
(booleans to provenance circuits) with a workload shape: multi-way and self
joins, unequal unions, opaque selections, linear and non-linear recursion
on acyclic and cyclic graphs.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra import Q
from repro.algebra.predicates import OpaquePredicate
from repro.circuits import CircuitSemiring
from repro.datalog import evaluate_program, ground_program, solve_ground
from repro.incremental import IncrementalDatalog
from repro.semirings import (
    BooleanSemiring,
    IntegerRing,
    NaturalsSemiring,
    PosBoolSemiring,
    ProvenancePolynomialSemiring,
    TropicalSemiring,
)
from repro.workloads import (
    chain_graph_database,
    random_annotation,
    random_graph_database,
    transitive_closure_program,
)

SEMIRINGS = [
    BooleanSemiring(),
    NaturalsSemiring(),
    IntegerRing(),
    TropicalSemiring(),
    PosBoolSemiring(),
    ProvenancePolynomialSemiring(),
    CircuitSemiring(),
]
IDS = [s.name for s in SEMIRINGS]

def two_relation_db(semiring, *, nodes=12, seed=0):
    """A larger edge relation ``R`` plus a smaller, denser ``S``."""
    db = random_graph_database(
        semiring, nodes=nodes, edge_probability=0.35, seed=seed
    )
    small = random_graph_database(
        semiring, nodes=nodes // 2, edge_probability=0.6, seed=seed + 17
    )
    db.register("S", small.relation("R"))
    return db


def two_hop():
    """``R(x, mid) ⋈ S(mid, y)`` projected to endpoints (sums per pair)."""
    left = Q.relation("R").rename({"y": "mid"})
    right = Q.relation("S").rename({"x": "mid"})
    return left.join(right).project("x", "y")


def self_join_two_hop():
    """``R`` referenced twice: two factors of one relation per derivation."""
    left = Q.relation("R").rename({"y": "mid"})
    right = Q.relation("R").rename({"x": "mid"})
    return left.join(right).project("x", "y")


def union_of_unequal_sizes():
    """``R ∪ S``: shared tuples add their annotations."""
    return Q.relation("R").union(Q.relation("S"))


def opaque_selection():
    """A closure predicate the planner cannot inspect, then a projection."""
    return (
        Q.relation("R")
        .select(OpaquePredicate(lambda tup: tup["x"] < tup["y"]), description="x < y")
        .project("x")
    )


def triangle():
    """``R(x, y) ⋈ S(y, z) ⋈ R(z, x)`` projected to ``x``: a cyclic join."""
    first = Q.relation("R")
    second = Q.relation("S").rename({"x": "y", "y": "z"})
    third = Q.relation("R").rename({"x": "z", "y": "x"})
    return first.join(second).join(third).project("x")


def constant_selection_join():
    """A constant selection pushed below a join, projected to one column."""
    left = Q.relation("R").where_eq("x", "n1").rename({"y": "mid"})
    right = Q.relation("R").rename({"x": "mid"})
    return left.join(right).project("y")


QUERY_SHAPES = [
    two_hop,
    self_join_two_hop,
    union_of_unequal_sizes,
    opaque_selection,
    triangle,
    constant_selection_join,
]


# -- queries ---------------------------------------------------------------------
@pytest.mark.parametrize("shape", QUERY_SHAPES, ids=lambda shape: shape.__name__)
@pytest.mark.parametrize("semiring", SEMIRINGS, ids=IDS)
def test_query_agrees_with_operator_at_a_time(semiring, shape):
    db = two_relation_db(semiring)
    query = shape()
    reference = query._execute(db)
    assert len(reference) > 0, "the shape must produce tuples on this input"
    result = query.evaluate(db)
    assert result.equal_to(reference), f"{shape.__name__} over {semiring.name} diverged"


# -- datalog fixpoints -----------------------------------------------------------
def _fixpoints(program, db):
    """``evaluate_program`` and the ground-then-solve reference."""
    evaluated = evaluate_program(program, db)
    reference = solve_ground(ground_program(program, db), db.semiring)
    return evaluated, reference


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=IDS)
def test_datalog_chain_agrees_with_the_oracle(semiring):
    """Linear transitive closure over an acyclic chain, every semiring."""
    program = transitive_closure_program(linear=True)
    db = chain_graph_database(semiring, length=16, seed=3)
    evaluated, reference = _fixpoints(program, db)
    assert len(evaluated.annotations) == 16 * 17 // 2
    assert evaluated.annotations == reference.annotations


@pytest.mark.parametrize("linear", [True, False], ids=["linear", "quadratic"])
@pytest.mark.parametrize(
    "semiring",
    [BooleanSemiring(), TropicalSemiring(), PosBoolSemiring()],
    ids=["B", "Tropical", "PosBool(B)"],
)
def test_datalog_cyclic_agrees_with_the_oracle(semiring, linear):
    """Cyclic graphs: the round loops reach the solver's idempotent fixpoint."""
    program = transitive_closure_program(linear=linear)
    db = random_graph_database(semiring, nodes=8, edge_probability=0.25, seed=5)
    evaluated, reference = _fixpoints(program, db)
    assert any(atom.values[0] == atom.values[1] for atom in evaluated.annotations)
    assert not evaluated.divergent_atoms
    assert evaluated.annotations == reference.annotations


# -- incremental maintenance -----------------------------------------------------
def _maintained(semiring):
    program = transitive_closure_program(linear=True)
    db = chain_graph_database(semiring, length=12, seed=9)
    return IncrementalDatalog(program, db)


def _rebuilt(maintained):
    return evaluate_program(maintained.program, maintained.database.copy())


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=IDS)
def test_incremental_insert_agrees_with_a_rebuild(semiring):
    """Maintenance matches a rebuild after an insertion."""
    maintained = _maintained(semiring)
    assert maintained.result.annotations == _rebuilt(maintained).annotations
    # A forward shortcut edge keeps the graph acyclic (finite provenance for
    # the non-idempotent semirings) while rewriting many closure annotations.
    rng = random.Random(99)
    update = [(("n0", "n7"), random_annotation(semiring, rng, 101))]
    maintained.insert("R", update)
    assert maintained.result.annotations == _rebuilt(maintained).annotations


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=IDS)
def test_incremental_remove_agrees_with_a_rebuild(semiring):
    """Deleting a chain edge disconnects the closure identically everywhere."""
    maintained = _maintained(semiring)
    maintained.remove("R", [("n5", "n6")])
    # n0..n5 and n6..n12 close separately: 5*6/2 + 6*7/2 pairs.
    assert len(maintained.result.annotations) == 15 + 21
    assert maintained.result.annotations == _rebuilt(maintained).annotations
