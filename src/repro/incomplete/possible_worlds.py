"""Possible-worlds semantics and representability checks (Figure 1).

Query answering over an incomplete database is defined world-by-world: the
answer to ``q`` over a representation ``T`` is the set of instances
``{q(W) : W a world of T}``.  This module provides that reference semantics
(used to validate the c-table algorithm against brute force) and the
representability check that demonstrates the paper's Figure 1 point: the
answer of the example query cannot be represented by a maybe-table.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator

from repro.algebra.ast import Query
from repro.incomplete.ctables import CTable
from repro.relations.database import Database
from repro.relations.tuples import Tup
from repro.semirings.boolean import BooleanSemiring

__all__ = [
    "query_possible_worlds",
    "answer_world_set",
    "certain_answers",
    "possible_answers",
]


def query_possible_worlds(
    query: Query,
    table: CTable,
    relation_name: str = "R",
    *,
    variables: Iterable[str] | None = None,
) -> Iterator[tuple[Dict[str, bool], frozenset[Tup]]]:
    """Evaluate ``query`` in every possible world of a single c-table.

    Yields (assignment, answer-world) pairs: for each truth assignment of the
    table's variables, the query is evaluated over the corresponding ordinary
    relation with set semantics.  This is the *definition* of query answering
    on incomplete databases, against which the Imielinski-Lipski/PosBool
    computation is checked (they must produce the same world set).
    """
    boolean = BooleanSemiring()
    for assignment, world in table._world_relations(variables):
        database = Database(boolean)
        database.register(relation_name, world)
        answer = query.evaluate(database)
        yield assignment, answer.support


def answer_world_set(
    query: Query,
    table: CTable,
    relation_name: str = "R",
    *,
    variables: Iterable[str] | None = None,
) -> frozenset[frozenset[Tup]]:
    """The set of distinct answer worlds of ``query`` over the c-table."""
    return frozenset(
        answer
        for _, answer in query_possible_worlds(
            query, table, relation_name, variables=variables
        )
    )


def certain_answers(
    query: Query, table: CTable, relation_name: str = "R"
) -> frozenset[Tup]:
    """Tuples present in the answer of every possible world."""
    worlds = list(answer_world_set(query, table, relation_name))
    if not worlds:
        return frozenset()
    return frozenset.intersection(*worlds)


def possible_answers(
    query: Query, table: CTable, relation_name: str = "R"
) -> frozenset[Tup]:
    """Tuples present in the answer of at least one possible world."""
    worlds = answer_world_set(query, table, relation_name)
    result: set[Tup] = set()
    for world in worlds:
        result |= world
    return frozenset(result)
