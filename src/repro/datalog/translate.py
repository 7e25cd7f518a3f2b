"""Translation between positive relational algebra and (non-recursive) datalog.

Proposition 5.3 of the paper is the expected sanity check: an ``RA+`` query
whose selections only test attribute equality and its standard translation
into a non-recursive datalog program produce the same K-relation on every
K-database.  Proposition 6.2 is the analogous statement for provenance
(modulo the embedding of ``N[X]`` into ``N-inf[[X]]``).

This module implements the translation in the direction the propositions
need: unions of conjunctive queries -- the named fragment the paper evaluates
by sums of products -- become single-IDB datalog programs.  It is also how
:meth:`ConjunctiveQuery.evaluate` and :meth:`UnionOfConjunctiveQueries.evaluate`
run: on the datalog engine.  The tests check the propositions against the
operator-at-a-time RA+ evaluation of the same query and against the
paper-literal sum of products over a reference instantiation.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.conjunctive import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.datalog.syntax import Program, Rule
from repro.logic import Atom

__all__ = ["ucq_to_program", "cq_to_program"]


def cq_to_program(query: ConjunctiveQuery, *, output: str | None = None) -> Program:
    """Translate a single conjunctive query into a one-rule datalog program."""
    head = Atom(output or query.name, query.head_terms)
    return Program([Rule(head, query.body)], output=head.relation)


def ucq_to_program(
    query: UnionOfConjunctiveQueries | Sequence[ConjunctiveQuery],
    *,
    output: str | None = None,
) -> Program:
    """Translate a union of conjunctive queries into a non-recursive program.

    Every disjunct becomes one rule with a shared head predicate, so the
    datalog semantics (sum over derivation trees) coincides with the UCQ
    semantics (sum over disjuncts of sums over valuations).  Each head lists
    its terms in the order of the union's output attributes, which disjuncts
    may name in different orders.
    """
    if not isinstance(query, UnionOfConjunctiveQueries):
        disjuncts = list(query)
        query = UnionOfConjunctiveQueries(disjuncts, name=disjuncts[0].name if disjuncts else "Q")
    name = output or query.name
    rules = []
    for cq in query.disjuncts:
        terms = dict(zip(cq.output_schema.attributes, cq.head_terms))
        head = Atom(name, [terms[attribute] for attribute in query.output_schema.attributes])
        rules.append(Rule(head, cq.body))
    return Program(rules, output=name)
