"""``Query.evaluate`` against operator-at-a-time ``Query._execute``.

Below :data:`~repro.algebra.ast.PLANNED_INPUT_ROWS` input rows a query runs
as written on the row pipeline; at or above it the planner runs and
:func:`repro.engine.execute` tries the column kernels first.  By
Proposition 3.4 and Theorem 4.3 both sides must equal the paper-literal
oracle annotation for annotation over every commutative semiring (circuits
compared by the polynomial they denote); the ``kernels`` axis also runs the
planned side on the row pipeline alone (:func:`strategies.row_loop`).  The
oracle itself must never reach the engine or the planner.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import PLANNER_SEMIRING_NAMES, ra_queries, row_loop, view_databases

import repro.planner
from repro import Database, Q
from repro.algebra import ast
from repro.algebra.ast import PLANNED_INPUT_ROWS
from repro.circuits import to_polynomial
from repro.engine import compile as engine_compile
from repro.engine import vectorized
from repro.semirings import NaturalsSemiring, get_semiring
from repro.workloads.paper_instances import section2_database, section2_query

TWO_HOP = Q.relation("E").join(Q.relation("E").rename({"a": "b", "b": "c"})).project("a", "c")

#: The Section 2 query over the paper's three tuples, every annotation 1:
#: the bag multiplicities of Figure 3 with p = r = s = 1.
SECTION2_ANSWER = {("a", "c"): 2, ("a", "e"): 1, ("d", "c"): 1, ("d", "e"): 3, ("f", "e"): 3}


@pytest.mark.parametrize("kernels", ["column", "row"])
@pytest.mark.parametrize("semiring_name", PLANNER_SEMIRING_NAMES)
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
def test_both_sides_of_the_size_rule_equal_the_oracle(semiring_name, kernels, data):
    """One random database, evaluated with the constant above its size (as
    written, row pipeline) and at zero (planned, kernels first)."""
    semiring = get_semiring(semiring_name)
    query, _schema = data.draw(ra_queries(), label="query")
    database = data.draw(view_databases(semiring), label="database")
    oracle = query._execute(database)
    loop = row_loop if kernels == "row" else contextlib.nullcontext
    for side, constant in (("as written", 10**9), ("planned", 0)):
        with mock.patch.object(ast, "PLANNED_INPUT_ROWS", constant), loop():
            result = query.evaluate(database)
        result.check_consistency()
        context = f"{side} over {semiring.name} on the {kernels} kernels: {query}"
        assert oracle.schema.attribute_set == result.schema.attribute_set, context
        for tup in set(oracle.support) | set(result.support):
            left, right = oracle.annotation(tup), result.annotation(tup)
            if semiring.name == "Circ[X]":
                left, right = to_polynomial(left), to_polynomial(right)
            assert left == right, (
                f"{context}\n{tup}: oracle={semiring.format_value(left)} "
                f"evaluate={semiring.format_value(right)}"
            )


def _edges(count: int, name: str = "E") -> Database:
    database = Database(NaturalsSemiring())
    database.create(name, ["a", "b"], [((f"n{i % 7}", f"n{i}"), i + 1) for i in range(count)])
    return database


def _forbidden(*_args, **_kwargs):
    raise AssertionError("this path must not run")


def test_the_constant_sits_between_the_paper_figures_and_the_benchmark_inputs():
    """The paper's figures read 3 rows; ``prob_infer``'s ``ra_prob`` reads 70."""
    assert 3 < PLANNED_INPUT_ROWS <= 70


@pytest.mark.parametrize("semiring_name", ("bag", "bool", "why", "nx", "tropical", "posbool"))
def test_below_the_constant_neither_the_planner_nor_the_kernels_run(monkeypatch, semiring_name):
    monkeypatch.setattr(repro.planner, "optimize", _forbidden)
    monkeypatch.setattr(vectorized, "try_execute", _forbidden)
    for query, database in (
        (section2_query(), section2_database(get_semiring(semiring_name))),
        (TWO_HOP, _edges(PLANNED_INPUT_ROWS - 1)),
    ):
        assert not query.uses_planner(database)
        assert query.evaluate(database).equal_to(query._execute(database))


def test_at_the_constant_the_planner_runs_and_the_kernels_answer(monkeypatch):
    database = _edges(PLANNED_INPUT_ROWS)
    if vectorized.numpy_available():  # over N the column kernels answer, not the rows
        monkeypatch.setattr(engine_compile, "execute_rows", _forbidden)
    assert TWO_HOP.uses_planner(database)
    with mock.patch.object(repro.planner, "optimize", wraps=repro.planner.optimize) as optimize:
        result = TWO_HOP.evaluate(database)
    optimize.assert_called_once()
    assert result.equal_to(TWO_HOP._execute(database))


def test_each_relation_read_counts_once():
    """A self-join reads ``E`` once; two relations add up."""
    database = _edges(PLANNED_INPUT_ROWS // 2 + 1)
    assert not TWO_HOP.uses_planner(database)
    database.register("F", _edges(PLANNED_INPUT_ROWS // 2 + 1, "F").relation("F"))
    assert Q.relation("E").join(Q.relation("F")).uses_planner(database)


def test_operator_at_a_time_never_reaches_the_engine_or_the_planner(monkeypatch):
    """``_execute`` recurses through ``_execute``: it stays paper-literal."""
    for name in ("execute", "execute_rows", "compile_query"):
        monkeypatch.setattr(engine_compile, name, _forbidden)
    monkeypatch.setattr(repro.planner, "optimize", _forbidden)
    answer = section2_query()._execute(section2_database(NaturalsSemiring()))
    assert {tup.values_for(("a", "c")): value for tup, value in answer.items()} == SECTION2_ANSWER
