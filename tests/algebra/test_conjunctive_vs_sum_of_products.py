"""Conjunctive queries on the datalog engine against Figure 6's sum of products.

``ConjunctiveQuery.evaluate`` and ``UnionOfConjunctiveQueries.evaluate`` run
the query as a one-predicate datalog program.  The oracle here is the
definition as the paper writes it: list every valuation of every disjunct
that makes the body hold -- the instantiation of the paper-literal grounder
in ``tests/datalog/grounding_reference.py``, which shares no join with the
engine -- and add up the products of the matched annotations.  Random
queries cover constants in the body and the head, repeated variables,
self-joins, and head predicates named like a body relation or like a
database relation that no disjunct reads.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import DOMAIN, annotation_for

from repro.algebra import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.circuits import Node, to_polynomial
from repro.datalog import Program, Rule
from repro.logic import Atom, Constant, Variable
from repro.relations import Database, KRelation
from repro.semirings import NaturalsSemiring, available_semirings, get_semiring

from tests.datalog.grounding_reference import reference_ground_program


def _one_name_per_semiring() -> tuple:
    """One registry name for each distinct semiring the registry ships."""
    names = {}
    for name in available_semirings():
        names.setdefault(get_semiring(name).name, name)
    return tuple(sorted(names.values()))


SEMIRING_NAMES = _one_name_per_semiring()

#: Relations the random queries read, with their arities.  The database also
#: holds ``T``, which no query reads but a head may be named after.
BODY_ARITIES = {"R": 2, "S": 1}
DATABASE_ARITIES = {**BODY_ARITIES, "T": 2}
HEAD_NAMES = ("Q", "R", "S", "T")
VARIABLES = ("x", "y", "z")
ORACLE_HEAD = "SumOfProducts"


def _term(draw, variables, constant_odds: int = 5):
    """A variable, or one time in ``constant_odds`` a constant."""
    if draw(st.integers(min_value=1, max_value=constant_odds)) == 1:
        return Constant(draw(st.sampled_from(DOMAIN)))
    return Variable(draw(st.sampled_from(variables)))


@st.composite
def _disjunct(draw, name: str, head_arity: int) -> ConjunctiveQuery:
    body = [
        Atom(relation, [_term(draw, VARIABLES) for _ in range(BODY_ARITIES[relation])])
        for relation in draw(st.lists(st.sampled_from(sorted(BODY_ARITIES)), min_size=1, max_size=3))
    ]
    body_variables = sorted({v.name for atom in body for v in atom.variables})
    head = [
        _term(draw, body_variables, constant_odds=3) if body_variables else Constant(draw(st.sampled_from(DOMAIN)))
        for _ in range(head_arity)
    ]
    return ConjunctiveQuery(head, body, name=name)


@st.composite
def _ucqs(draw) -> UnionOfConjunctiveQueries:
    name = draw(st.sampled_from(HEAD_NAMES))
    arity = draw(st.integers(min_value=0, max_value=2))
    count = draw(st.integers(min_value=1, max_value=3))
    return UnionOfConjunctiveQueries([draw(_disjunct(name, arity)) for _ in range(count)], name=name)


@st.composite
def _databases(draw, semiring) -> Database:
    database = Database(semiring)
    index = 0
    for relation_name, arity in DATABASE_ARITIES.items():
        relation = KRelation(semiring, [f"a{i + 1}" for i in range(arity)])
        rows = draw(
            st.lists(
                st.tuples(*[st.sampled_from(DOMAIN)] * arity), min_size=1, max_size=8, unique=True
            )
        )
        for values in rows:
            index += 1
            relation.set(values, annotation_for(semiring, index, draw))
        database.register(relation_name, relation)
    return database


def sum_of_products(query: UnionOfConjunctiveQueries, database: Database) -> dict:
    """Figure 6: per answer, the sum over matching valuations of the body product."""
    program = Program(
        [Rule(Atom(ORACLE_HEAD, cq.head_terms), cq.body) for cq in query],
        output=ORACLE_HEAD,
    )
    ground = reference_ground_program(program, database)
    semiring = database.semiring
    totals: dict = {}
    for rule in ground.ground_rules:
        product = semiring.one()
        for atom in rule.body:
            product = semiring.mul(product, ground.edb_annotation(atom))
        key = rule.head.values
        totals[key] = semiring.add(totals.get(key, semiring.zero()), product)
    return {key: value for key, value in totals.items() if not semiring.is_zero(value)}


def _answers(relation: KRelation) -> dict:
    attributes = relation.schema.attributes
    return {tup.values_for(attributes): annotation for tup, annotation in relation.items()}


def _comparable(answers: dict) -> dict:
    """Circuits compare by the polynomial they denote, not by their DAG shape."""
    return {
        key: to_polynomial(value) if isinstance(value, Node) else value
        for key, value in answers.items()
    }


@pytest.mark.parametrize("semiring_name", SEMIRING_NAMES)
@given(data=st.data())
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_cqs_and_ucqs_equal_the_sum_of_products(semiring_name, data):
    semiring = get_semiring(semiring_name)
    query = data.draw(_ucqs())
    database = data.draw(_databases(semiring))
    expected = _comparable(sum_of_products(query, database))
    assert _comparable(_answers(query.evaluate(database))) == expected
    if len(query) == 1:
        assert _comparable(_answers(query.disjuncts[0].evaluate(database))) == expected


def _figure_r() -> Database:
    database = Database(NaturalsSemiring())
    database.create("R", ["x", "y"], [(("a", "b"), 2)])
    return database


@pytest.mark.parametrize(
    "text, expected",
    [
        # Lowered naively, the head R would define R: a recursive program with
        # no EDB, answering nothing.
        ("R(x, y) :- R(y, x)", {("b", "a"): 2}),
        # Lowered naively, R would be used at arities 1 and 2: a DatalogError.
        ("R(x) :- R(x, y)", {("a",): 2}),
    ],
)
def test_a_head_named_like_a_body_relation_reads_that_relation(text, expected):
    assert _answers(ConjunctiveQuery.parse(text).evaluate(_figure_r())) == expected


def test_a_head_named_like_an_unread_database_relation():
    database = _figure_r()
    database.create("T", ["u"], [(("z",), 5)])
    assert _answers(ConjunctiveQuery.parse("T(y) :- R(x, y)").evaluate(database)) == {("b",): 2}
    assert _answers(database["T"]) == {("z",): 5}


def test_disjuncts_may_order_the_output_attributes_differently():
    forward = ConjunctiveQuery.parse("Q(x, y) :- R(x, y)", output_attributes=["u", "v"])
    backward = ConjunctiveQuery.parse("Q(y, x) :- R(x, y)", output_attributes=["v", "u"])
    result = UnionOfConjunctiveQueries([forward, backward]).evaluate(_figure_r())
    assert result.schema.attributes == ("u", "v")
    assert _answers(result) == {("a", "b"): 4}
