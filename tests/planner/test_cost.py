"""Cost model units: statistics collection, selectivity, monotonicity.

Statistics are checked against the tuple walk they used to be, with the
column encoding and with numpy unavailable.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from strategies import annotation_for

from repro import Database, NaturalsSemiring, Q
from repro.algebra import predicates
from repro.engine import vectorized
from repro.planner import CostModel, Statistics
from repro.planner.cost import DEFAULT_SELECTIVITY, TableStats
from repro.semirings import available_semirings, get_semiring


def _database(r_tuples=4):
    database = Database(NaturalsSemiring())
    database.create(
        "R",
        ["a", "b"],
        [((str(i), str(i % 2)), 1) for i in range(r_tuples)],
    )
    database.create("S", ["b", "c"], [(("0", "x"), 1), (("1", "y"), 1)])
    return database


def test_statistics_collects_cardinality_and_distinct_counts():
    stats = Statistics.from_database(_database())
    r = stats.table("R")
    assert r.cardinality == 4
    assert r.distinct == {"a": 4, "b": 2}
    assert stats.table("missing") is None


def _walked_table_stats(relation) -> TableStats:
    """Reference: the tuple walk statistics collection did before it read
    the column encoding."""
    attributes = relation.schema.attributes
    seen: dict = {a: set() for a in attributes}
    for tup in relation:
        for a in attributes:
            seen[a].add(tup[a])
    return TableStats(len(relation), {a: len(values) for a, values in seen.items()})


#: One registry name per shipped semiring.
SHIPPED_SEMIRING_NAMES = tuple(
    {get_semiring(name).name: name for name in available_semirings()}.values()
)

#: ``1``, ``1.0`` and ``True`` (and ``0``, ``0.0``, ``False``) are one value
#: to a ``set``, so a relation holding several of them counts each group once.
VALUES = st.sampled_from(("x", "y", 0, 0.0, False, 1, 1.0, True, 2))


@st.composite
def _databases(draw, semiring):
    """An empty, a nullary and a mixed-value relation, then up to two drawn
    relations of arity 0-3, any of them possibly empty."""
    one = semiring.one()
    database = Database(semiring)
    database.create("Empty", ["a", "b"])
    database.create("Nullary", [], [((), one)])
    database.create("Mixed", ["a", "b"], [((1, "x"), one), ((1.0, "y"), one), ((True, 1), one)])
    index = 0
    for name in ("R", "S")[: draw(st.integers(min_value=0, max_value=2))]:
        attributes = draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3))
        rows = []
        for values in draw(st.lists(st.tuples(*[VALUES] * len(attributes)), max_size=12)):
            index += 1
            rows.append((values, annotation_for(semiring, index, draw)))
        database.create(name, attributes, rows)
    return database


needs_numpy = pytest.mark.skipif(not vectorized.numpy_available(), reason="needs numpy")


@pytest.mark.parametrize(
    "numpy",
    [pytest.param(True, marks=needs_numpy, id="numpy"), pytest.param(False, id="no-numpy")],
)
@pytest.mark.parametrize("semiring_name", SHIPPED_SEMIRING_NAMES)
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_statistics_match_the_tuple_walk(semiring_name, numpy, data):
    semiring = get_semiring(semiring_name)
    database = data.draw(_databases(semiring), label="database")
    names = sorted(name for name, _ in database.items())
    relations = data.draw(
        st.none() | st.sets(st.sampled_from(names + ["missing"])), label="relations"
    )
    expected = {
        name: _walked_table_stats(relation)
        for name, relation in database.items()
        if relations is None or name in relations
    }
    with mock.patch.object(vectorized, "_np", vectorized._np if numpy else None):
        assert Statistics.from_database(database, relations).tables == expected
        # The encoding is built for every semiring, row-only ones included,
        # and a second snapshot of the unchanged relations reads it back.
        read = [database.relation(name) for name in expected]
        assert all((relation._scan_cache is not None) is numpy for relation in read)
        assert Statistics.from_database(database, relations).tables == expected


def test_selectivity_formulas():
    stats = Statistics.from_database(_database())
    model = CostModel(stats)
    child = model.estimate(Q.relation("R"))
    assert model.selectivity(predicates.true, child) == 1.0
    assert model.selectivity(predicates.false, child) == 0.0
    assert model.selectivity(predicates.attr_eq_const("a", "1"), child) == 0.25
    assert model.selectivity(predicates.attr_eq_const("b", "1"), child) == 0.5
    # attribute = attribute divides by the larger distinct count
    assert model.selectivity(predicates.attr_eq("a", "b"), child) == 0.25
    # conjunctions multiply, negation complements
    conj = predicates.conjunction(
        predicates.attr_eq_const("a", "1"), predicates.attr_eq_const("b", "1")
    )
    assert model.selectivity(conj, child) == 0.125
    neg = predicates.negation(predicates.attr_eq_const("a", "1"))
    assert model.selectivity(neg, child) == 0.75
    # opaque callables get the fixed default
    assert model.selectivity(lambda t: True, child) == DEFAULT_SELECTIVITY


def test_cardinality_estimates_shrink_under_selection_and_join():
    model = CostModel(Statistics.from_database(_database()))
    base = model.cardinality(Q.relation("R"))
    selected = model.cardinality(Q.relation("R").where_eq("a", "1"))
    assert selected < base
    cross = model.cardinality(Q.relation("R").join(Q.relation("S").rename({"b": "e"})))
    natural = model.cardinality(Q.relation("R").join(Q.relation("S")))
    assert natural < cross  # the shared attribute divides the cross product


def test_cost_is_monotone_in_relation_size():
    query = Q.relation("R").join(Q.relation("S")).project("a", "c")
    small = CostModel(Statistics.from_database(_database(4)))
    large = CostModel(Statistics.from_database(_database(40)))
    assert small.cost(query) < large.cost(query)


def test_cost_prefers_the_pushed_down_plan():
    database = _database(40)
    model = CostModel(Statistics.from_database(database))
    unpushed = Q.relation("R").join(Q.relation("S")).where_eq("a", "1")
    pushed = Q.relation("R").where_eq("a", "1").join(Q.relation("S"))
    assert model.cost(pushed) < model.cost(unpushed)
