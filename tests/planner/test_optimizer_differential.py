"""Differential plan-equivalence harness: optimized vs. as-written evaluation.

Every rewrite the planner applies is an instance of a Proposition 3.4
identity, so an optimized plan must produce the *same K-relation* as the
original query -- annotation for annotation -- on every database and over
every commutative semiring.  This suite drives that property with
hypothesis-generated random query trees (joins, unions, projections,
renames, and the full selection repertoire including opaque callables) over
randomized databases, for the registry semirings named by the issue:
N (bag), B, Tropical, PosBool(X), Z, N[X], and provenance circuits.

Circuits are compared by the polynomial they denote: a reordered plan sums
and multiplies in a different association order, which yields semantically
equal but structurally distinct DAGs (universality, Proposition 4.2).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import (
    PLANNER_SEMIRING_NAMES,
    ra_queries,
    view_databases,
)

from repro.circuits import to_polynomial
from repro.engine import execute
from repro.planner import optimize, plan_signature
from repro.semirings import get_semiring

DIFFERENTIAL_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _comparable(semiring, value):
    if semiring.name == "Circ[X]":
        return to_polynomial(value)
    return value


def _assert_same_relation(semiring, expected, actual, context: str):
    assert expected.schema.attribute_set == actual.schema.attribute_set, context
    tuples = set(expected.support) | set(actual.support)
    zero = semiring.zero()
    for tup in tuples:
        left = expected.annotation(tup)
        right = actual.annotation(tup)
        assert _comparable(semiring, left) == _comparable(semiring, right), (
            f"{context}\n{tup}: as-written={semiring.format_value(left)} "
            f"optimized={semiring.format_value(right)}"
        )


@pytest.mark.parametrize("semiring_name", PLANNER_SEMIRING_NAMES)
@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_optimized_plans_agree_annotation_for_annotation(semiring_name, data):
    """optimize(q, db) evaluates identically to q on random queries/databases."""
    semiring = get_semiring(semiring_name)
    query, _schema = data.draw(ra_queries(), label="query")
    database = data.draw(view_databases(semiring), label="database")
    baseline = query._execute(database)
    plan = optimize(query, database)
    _assert_same_relation(
        semiring,
        baseline,
        plan._execute(database),
        f"query: {query}\nplan:  {plan}\nsemiring: {semiring.name}",
    )
    # Query.evaluate's planned side runs the same plan on the engine.
    _assert_same_relation(
        semiring,
        baseline,
        execute(plan, database),
        f"execute(plan) over {semiring.name}: {query}",
    )


@pytest.mark.parametrize("semiring_name", PLANNER_SEMIRING_NAMES)
@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_optimize_is_a_fixpoint_on_random_queries(semiring_name, data):
    """Optimizing an optimized plan changes nothing (stable signature)."""
    semiring = get_semiring(semiring_name)
    query, _schema = data.draw(ra_queries(), label="query")
    database = data.draw(view_databases(semiring), label="database")
    once = optimize(query, database)
    twice = optimize(once, database)
    assert plan_signature(once) == plan_signature(twice), (
        f"not a fixpoint over {semiring.name}:\n"
        f"once:  {once}\ntwice: {twice}"
    )


@pytest.mark.parametrize("semiring_name", PLANNER_SEMIRING_NAMES)
@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_rewrites_without_schema_catalog_agree(semiring_name, data):
    """Without a database the planner still rewrites safely (schema-dependent
    rules skip; the result must stay equivalent)."""
    semiring = get_semiring(semiring_name)
    query, _schema = data.draw(ra_queries(), label="query")
    database = data.draw(view_databases(semiring), label="database")
    plan = optimize(query, semiring=semiring)
    _assert_same_relation(
        semiring,
        query.evaluate(database),
        plan.evaluate(database),
        f"schema-free optimize over {semiring.name}: {query} -> {plan}",
    )
