"""Conjunctive queries and unions of conjunctive queries on K-relations.

Section 5 of the paper observes that for conjunctive queries the generic
positive-algebra semantics of Definition 3.2 simplifies to a sum of products:
the annotation of an answer tuple is the sum, over every valuation of the
query variables that makes the body hold, of the product of the annotations
of the matched body atoms (Figure 6).  Section 9 then studies containment of
(unions of) conjunctive queries with respect to K-relation semantics.

This module provides:

* :class:`ConjunctiveQuery` -- a single rule ``Q(head) :- body`` with the
  sum-of-products K-semantics, a canonical database, and homomorphism search;
* :class:`UnionOfConjunctiveQueries` -- a finite union, evaluated by adding
  the per-disjunct annotations;
* parsers for the usual datalog-style textual syntax (the rule parser of
  :mod:`repro.logic`).

A conjunctive query is a datalog rule, and that sum of products is the least
fixpoint of the one-predicate program of :func:`repro.datalog.ucq_to_program`
(Proposition 5.3).  Both ``evaluate`` methods run that program on the datalog
engine; this module has no matcher of its own.  The paper-literal nested
loop over valuations survives only as a test oracle.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Iterable, Iterator, Optional, Sequence

from repro.errors import ParseError, QueryError
from repro.logic import Atom, Constant, Term, Variable, parse_rule
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring
from repro.semirings.boolean import BooleanSemiring

__all__ = ["ConjunctiveQuery", "UnionOfConjunctiveQueries"]


class ConjunctiveQuery:
    """A conjunctive query ``answer(x1, ..., xk) :- A1, ..., An``.

    The head lists output terms (variables or constants); the body is a
    sequence of relational atoms.  Every head variable must occur in the body
    (safety).  The output schema names attributes ``c1, ..., ck`` unless
    explicit ``output_attributes`` are provided.
    """

    def __init__(
        self,
        head_terms: Sequence[Term],
        body: Sequence[Atom],
        *,
        name: str = "Q",
        output_attributes: Sequence[str] | None = None,
    ):
        self.name = name
        self.head_terms = tuple(head_terms)
        self.body = tuple(body)
        if not self.body:
            raise QueryError("a conjunctive query needs at least one body atom")
        body_variables = frozenset(
            v for atom in self.body for v in atom.variables
        )
        head_variables = frozenset(
            t for t in self.head_terms if isinstance(t, Variable)
        )
        unsafe = head_variables - body_variables
        if unsafe:
            raise QueryError(
                f"unsafe head variables (not in body): {sorted(v.name for v in unsafe)}"
            )
        if output_attributes is None:
            output_attributes = [f"c{i + 1}" for i in range(len(self.head_terms))]
        if len(output_attributes) != len(self.head_terms):
            raise QueryError("output_attributes must match the head arity")
        self.output_schema = Schema(output_attributes)

    # -- parsing ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, *, output_attributes: Sequence[str] | None = None) -> "ConjunctiveQuery":
        """Parse ``"Q(x, y) :- R(x, z), R(z, y)"`` into a conjunctive query."""
        head, body = parse_rule(text)
        return cls(head.terms, body, name=head.relation, output_attributes=output_attributes)

    # -- structure ------------------------------------------------------------------
    @property
    def variables(self) -> frozenset[Variable]:
        """All variables of the query (head and body)."""
        result = set()
        for atom in self.body:
            result |= atom.variables
        result |= {t for t in self.head_terms if isinstance(t, Variable)}
        return frozenset(result)

    @property
    def relations(self) -> frozenset[str]:
        """Names of the relations used in the body."""
        return frozenset(atom.relation for atom in self.body)

    def head_atom(self) -> Atom:
        """The head as an atom named after the query."""
        return Atom(self.name, self.head_terms)

    # -- evaluation -------------------------------------------------------------------
    def evaluate(self, database: Database) -> KRelation:
        """Evaluate with the sum-of-products K-semantics (Definition 3.2).

        The annotation of each answer tuple is the sum over matching
        valuations of the product of the annotations of the matched body
        tuples -- exactly the calculation of Figure 6.  The query runs as the
        one rule of a datalog program (see
        :meth:`UnionOfConjunctiveQueries.evaluate`).
        """
        return UnionOfConjunctiveQueries([self]).evaluate(database)

    __call__ = evaluate

    # -- canonical database and homomorphisms (Chandra-Merlin machinery) -------------
    def canonical_database(self, semiring: Semiring | None = None) -> tuple[Database, Tup]:
        """Build the canonical (frozen) database of the query.

        Every variable is turned into a distinct constant; each body atom
        becomes a tuple annotated ``1``.  Returns the database together with
        the frozen head tuple.  Used by the containment procedures of
        Section 9.
        """
        semiring = semiring or BooleanSemiring()
        database = Database(semiring)
        frozen = {v: f"_{v.name}" for v in self.variables}
        arities: Dict[str, int] = {}
        for atom in self.body:
            arities.setdefault(atom.relation, atom.arity)
            if arities[atom.relation] != atom.arity:
                raise QueryError(f"inconsistent arity for relation {atom.relation}")
        for relation_name, arity in arities.items():
            if relation_name not in database:
                database.create(relation_name, [f"a{i + 1}" for i in range(arity)])
        for atom in self.body:
            relation = database.relation(atom.relation)
            values = tuple(
                term.value if isinstance(term, Constant) else frozen[term]
                for term in atom.terms
            )
            relation._add(values)
        head_values = tuple(
            term.value if isinstance(term, Constant) else frozen[term]
            for term in self.head_terms
        )
        head = Tup.from_values(self.output_schema.attributes, head_values)
        return database, head

    def find_homomorphism(self, other: "ConjunctiveQuery") -> Optional[Dict[Variable, Term]]:
        """Find a query-body homomorphism from ``self`` into ``other``.

        A homomorphism maps the variables of ``self`` to terms of ``other``
        such that every body atom of ``self`` becomes a body atom of
        ``other`` and the head of ``self`` maps onto the head of ``other``.
        By Chandra-Merlin, such a homomorphism exists iff ``other`` is
        contained in ``self`` under set semantics.
        """
        if len(self.head_terms) != len(other.head_terms):
            return None
        assignment: Dict[Variable, Term] = {}
        # The head must map position-wise onto the other head.
        for term_self, term_other in zip(self.head_terms, other.head_terms):
            if isinstance(term_self, Constant):
                if term_self != term_other:
                    return None
            else:
                bound = assignment.get(term_self)
                if bound is None:
                    assignment[term_self] = term_other
                elif bound != term_other:
                    return None
        return self._extend_homomorphism(assignment, 0, other)

    def _extend_homomorphism(
        self,
        assignment: Dict[Variable, Term],
        index: int,
        other: "ConjunctiveQuery",
    ) -> Optional[Dict[Variable, Term]]:
        if index == len(self.body):
            return assignment
        atom = self.body[index]
        for candidate in other.body:
            if candidate.relation != atom.relation or candidate.arity != atom.arity:
                continue
            extended = dict(assignment)
            ok = True
            for term_self, term_other in zip(atom.terms, candidate.terms):
                if isinstance(term_self, Constant):
                    if term_self != term_other:
                        ok = False
                        break
                else:
                    bound = extended.get(term_self)
                    if bound is None:
                        extended[term_self] = term_other
                    elif bound != term_other:
                        ok = False
                        break
            if not ok:
                continue
            final = self._extend_homomorphism(extended, index + 1, other)
            if final is not None:
                return final
        return None

    # -- conversions ----------------------------------------------------------------
    def to_datalog_rule(self) -> str:
        """Render the query as a single datalog rule (textual form)."""
        return f"{self.head_atom()} :- {', '.join(str(atom) for atom in self.body)}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self.to_datalog_rule()!r})"

    def __str__(self) -> str:
        return self.to_datalog_rule()


class UnionOfConjunctiveQueries:
    """A finite union of conjunctive queries with identical head arity."""

    def __init__(self, disjuncts: Iterable[ConjunctiveQuery], *, name: str = "Q"):
        self.disjuncts = tuple(disjuncts)
        self.name = name
        if not self.disjuncts:
            raise QueryError("a UCQ needs at least one disjunct")
        arities = {len(cq.head_terms) for cq in self.disjuncts}
        if len(arities) != 1:
            raise QueryError(f"disjuncts have different head arities: {arities}")
        schemas = {cq.output_schema.attribute_set for cq in self.disjuncts}
        if len(schemas) != 1:
            raise QueryError("disjuncts must share the same output attributes")
        self.output_schema = self.disjuncts[0].output_schema

    @classmethod
    def parse(cls, text: str) -> "UnionOfConjunctiveQueries":
        """Parse one rule per line (or ';'-separated) into a UCQ."""
        parts = [part.strip() for part in re.split(r"[;\n]", text) if part.strip()]
        disjuncts = [ConjunctiveQuery.parse(part) for part in parts]
        if not disjuncts:
            raise ParseError("no conjunctive queries found")
        return cls(disjuncts, name=disjuncts[0].name)

    def evaluate(self, database: Database) -> KRelation:
        """Evaluate by adding, tuple-wise, the annotations of every disjunct.

        The disjuncts run as the rules of one predicate of a datalog program:
        a non-recursive program's least fixpoint is that sum of sums of
        products (Figure 6, Proposition 5.3), so the datalog engine is the
        one matcher -- over idempotent semirings its round loops run, every
        other semiring is grounded and solved.  The head predicate gets a
        name that no body relation and no database relation uses:
        ``R(x, y) :- R(y, x)`` reads ``R``, it does not define it.  A missing
        relation or an arity mismatch raises the engine's
        :class:`~repro.errors.GroundingError`.
        """
        # Imported here: repro.datalog.translate imports this module.
        from repro.datalog.fixpoint import evaluate_program
        from repro.datalog.translate import ucq_to_program

        taken = set(database.names()) | self.relations
        head = "answer"
        while head in taken:
            head += "_"
        run = evaluate_program(ucq_to_program(self, output=head), database)
        result = KRelation(database.semiring, self.output_schema)
        for atom, annotation in run.annotations.items():
            result._set(atom.values, annotation)
        return result

    __call__ = evaluate

    @property
    def relations(self) -> frozenset[str]:
        """All base relations referenced by some disjunct."""
        return frozenset(
            itertools.chain.from_iterable(cq.relations for cq in self.disjuncts)
        )

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __repr__(self) -> str:
        return f"UnionOfConjunctiveQueries({[str(d) for d in self.disjuncts]})"

    def __str__(self) -> str:
        return "; ".join(str(d) for d in self.disjuncts)
