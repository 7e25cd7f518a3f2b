"""Differential harness: pipelined physical execution vs operator-at-a-time.

The pipelined engine (:mod:`repro.engine`) fuses selections, projections and
renames into scans and join probe loops, picks hash-join build sides by
estimated cardinality, and accumulates duplicate-tuple annotation
contributions batched.  Every one of those moves is justified by
associativity, commutativity and distributivity alone, so on *any* plan --
optimized or as written -- and over *any* commutative semiring the result
must equal the naive executor's, annotation for annotation.  This suite
drives that equivalence with hypothesis-generated random query trees and
databases over the registry semirings of the ISSUE: N, B, Tropical,
PosBool(X), Z, N[X], and provenance circuits.

On the pipelined side the whole-column vectorized kernels (numpy
permitting) take over for the supported semirings and plan shapes, and the
row pipeline runs the rest -- either way the annotations must not move.
The ``kernels`` parametrization also runs every plan on the row pipeline
alone (:func:`strategies.row_loop`), so it stays checked for the semirings
the column kernels otherwise take.

Circuits are compared by the polynomial they denote: the pipelined engine
sums contributions in a different association order, which yields
semantically equal but structurally distinct DAGs (Proposition 4.2).
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import PLANNER_SEMIRING_NAMES, ra_queries, row_loop, view_databases

from repro.circuits import to_polynomial
from repro.errors import QueryError
from repro.semirings import get_semiring

DIFFERENTIAL_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The physical paths of the pipelined side: the column kernels where they
#: apply, or the row pipeline for every plan.
KERNELS = {"column": contextlib.nullcontext, "row": row_loop}


def _comparable(semiring, value):
    if semiring.name == "Circ[X]":
        return to_polynomial(value)
    return value


def _assert_same_relation(semiring, expected, actual, context: str):
    assert expected.schema.attribute_set == actual.schema.attribute_set, context
    for tup in set(expected.support) | set(actual.support):
        left = expected.annotation(tup)
        right = actual.annotation(tup)
        assert _comparable(semiring, left) == _comparable(semiring, right), (
            f"{context}\n{tup}: naive={semiring.format_value(left)} "
            f"pipelined={semiring.format_value(right)}"
        )


@pytest.mark.parametrize("kernels", sorted(KERNELS))
@pytest.mark.parametrize("semiring_name", PLANNER_SEMIRING_NAMES)
@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_pipelined_executor_agrees_annotation_for_annotation(semiring_name, kernels, data):
    """executor="pipelined" equals executor="naive" on random plans."""
    semiring = get_semiring(semiring_name)
    query, _schema = data.draw(ra_queries(), label="query")
    database = data.draw(view_databases(semiring), label="database")
    baseline = query.evaluate(database)
    with KERNELS[kernels]():
        result = query.evaluate(database, executor="pipelined")
    result.check_consistency()
    _assert_same_relation(
        semiring,
        baseline,
        result,
        f"as-written plan over {semiring.name} on the {kernels} kernels: {query}",
    )


@pytest.mark.parametrize("kernels", sorted(KERNELS))
@pytest.mark.parametrize("semiring_name", PLANNER_SEMIRING_NAMES)
@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_pipelined_executor_agrees_on_optimized_plans(semiring_name, kernels, data):
    """The full stack -- planner then physical engine -- stays equivalent."""
    semiring = get_semiring(semiring_name)
    query, _schema = data.draw(ra_queries(), label="query")
    database = data.draw(view_databases(semiring), label="database")
    baseline = query.evaluate(database)
    with KERNELS[kernels]():
        result = query.evaluate(database, optimize=True, executor="pipelined")
    _assert_same_relation(
        semiring,
        baseline,
        result,
        f"optimized plan over {semiring.name} on the {kernels} kernels: {query}",
    )


def test_unknown_executor_is_rejected():
    from repro import Database, NaturalsSemiring, Q

    database = Database(NaturalsSemiring())
    database.create("R", ["a", "b"], [("1", "2")])
    with pytest.raises(QueryError):
        Q.relation("R").evaluate(database, executor="vectorized")
