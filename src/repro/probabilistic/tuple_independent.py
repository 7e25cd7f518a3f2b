"""Tuple-independent probabilistic databases and exact query probabilities.

This is the user-facing layer over the probabilistic machinery.  Each entry
point has one implementation, chosen by what it returns:

* **events** (``query_events`` / ``datalog_events``) are sets of worlds, so
  they come from intensional evaluation over the explicitly constructed
  world space in ``P(Omega)`` (Fuhr-Roelleke, Figure 4 of the paper),
  exponential in the number of uncertain tuples.  A query runs
  :meth:`~repro.algebra.ast.Query.evaluate` and a datalog program
  :func:`~repro.datalog.fixpoint.evaluate`, both directly in ``P(Omega)``:
  it is a finite distributive lattice, so the datalog fixpoint terminates
  (Section 8);
* **probabilities, top-k and MAP** come from compiled lineage: evaluate the
  query over a *lineage* database annotated in ``Circ[X]`` (one variable per
  base event), knowledge-compile the answers' provenance circuits to one
  multi-rooted ordered decision diagram (:mod:`repro.circuits.compile`) and
  weighted-model-count it in one pass.  Cost is governed by the compiled
  circuit size, not by ``2^n`` over the number of uncertain tuples -- the
  standard lineage route to exact probabilistic query evaluation
  (Jha-Suciu) -- and the world space is never built.  A datalog program's
  lineage is the absorptive provenance circuit of each derivable atom,
  built from the program's grounding over the lineage database
  (:func:`~repro.datalog.provenance.absorptive_circuit_provenance`).

Theorem 4.3 (and Theorem 6.4 over distributive lattices, Section 8) makes
the two agree: ``P(Omega)`` evaluation equals lineage evaluation followed by
``Eval_v``; the differential tests check exactly that.  Correlations induced
by *shared events* (two tuples declared with the same event name) survive
into compilation because the lineage database reuses one circuit variable
per event name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.algebra.ast import Query
from repro.circuits.evaluate import top_k_many, wmc_many
from repro.datalog.fixpoint import evaluate, idb_schema
from repro.datalog.provenance import absorptive_circuit_provenance
from repro.datalog.syntax import Program
from repro.errors import SemiringError
from repro.probabilistic.event_tables import EventTable, IndependentEventSpace
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.tuples import Tup

__all__ = ["ProbabilisticDatabase"]


def _with_edb(program: Program | str, database: Database) -> Program:
    """``program`` parsed, once every EDB relation it reads is found in
    ``database``: a missing one is a :class:`~repro.errors.SchemaError`, as
    in a query.  The datalog entry points call this first."""
    if isinstance(program, str):
        program = Program.parse(program)
    for predicate in sorted(program.edb_predicates):
        database.relation(predicate)
    return program


@dataclass
class ProbabilisticDatabase:
    """A collection of tuple-independent probabilistic relations.

    Usage::

        pdb = ProbabilisticDatabase()
        pdb.add_relation("R", ["a", "b", "c"], [
            (("a", "b", "c"), "x", 0.6),
            (("d", "b", "e"), "y", 0.5),
            (("f", "g", "e"), "z", 0.1),
        ])
        answer = pdb.query_probabilities(q)   # compiled lineage
        events = pdb.query_events(q)          # explicit worlds
    """

    _declarations: Dict[str, tuple[tuple[str, ...], list[tuple[Any, str, float]]]] = field(
        default_factory=dict
    )
    _space: IndependentEventSpace | None = field(default=None, init=False)
    _database: Database | None = field(default=None, init=False)
    _lineage: Database | None = field(default=None, init=False)
    _compiler: Any = field(default=None, init=False)
    _marginals: Dict[str, float] | None = field(default=None, init=False)

    # -- declaration -------------------------------------------------------------
    def add_relation(
        self,
        name: str,
        attributes: Iterable[str],
        rows: Iterable[Tuple[Any, str, float]],
    ) -> None:
        """Declare a relation: rows are ``(tuple values, event name, probability)``."""
        if self._space is not None or self._lineage is not None:
            raise SemiringError("cannot add relations after the database has been built")
        self._declarations[name] = (tuple(attributes), list(rows))

    def _collect_marginals(self) -> Dict[str, float]:
        marginals: Dict[str, float] = {}
        for _, rows in self._declarations.values():
            for _, event_name, probability in rows:
                if event_name in marginals and marginals[event_name] != probability:
                    raise SemiringError(
                        f"event {event_name!r} declared with two different probabilities"
                    )
                marginals[event_name] = probability
        return marginals

    def _build(self) -> None:
        """Materialize the ``P(Omega)`` database of explicit events.

        The world space itself stays lazy inside
        :class:`IndependentEventSpace`, but registering event tables forces
        it, so this is only entered by the event-returning methods and direct
        :attr:`database`/:attr:`space` access.
        """
        if self._space is not None:
            return
        self._space = IndependentEventSpace(self._collect_marginals())
        self._database = Database(self._space.semiring)
        for name, (attributes, rows) in self._declarations.items():
            table = EventTable.tuple_independent(attributes, rows, space=self._space)
            self._database.register(name, table.relation)

    def _build_lineage(self) -> None:
        """Materialize the compiled-path database (``Circ[X]`` lineage).

        One circuit variable *per event name* -- tuples declared with the
        same event share a variable, which is how correlation survives into
        compilation.  Never builds the world space.
        """
        if self._lineage is not None:
            return
        from repro.circuits.compile import CircuitCompiler
        from repro.circuits.nodes import var as circuit_var
        from repro.circuits.semiring import CircuitSemiring

        # Declarations are frozen from here on, so the marginals are computed
        # once; this also surfaces conflicting declarations early.
        self._marginals = self._collect_marginals()
        semiring = CircuitSemiring()
        self._lineage = Database(semiring)
        for name, (attributes, rows) in self._declarations.items():
            relation = KRelation(semiring, attributes)
            for row, event_name, _probability in rows:
                relation._set(row, circuit_var(event_name))
            self._lineage.register(name, relation)
        # One compiler for the whole database: lineages of different answers
        # (and different queries) share subcircuits, so they share the
        # compile cache and the variable order.
        self._compiler = CircuitCompiler()

    # -- access ------------------------------------------------------------------
    @property
    def space(self) -> IndependentEventSpace:
        """The shared sample space (built lazily)."""
        self._build()
        assert self._space is not None
        return self._space

    @property
    def database(self) -> Database:
        """The underlying ``P(Omega)`` database (built lazily)."""
        self._build()
        assert self._database is not None
        return self._database

    @property
    def lineage_database(self) -> Database:
        """The ``Circ[X]`` lineage database used by compiled inference."""
        self._build_lineage()
        assert self._lineage is not None
        return self._lineage

    @property
    def marginals(self) -> Dict[str, float]:
        """Event name -> declared marginal probability."""
        if self._space is not None:
            return self._space.marginals
        if self._marginals is not None:
            return self._marginals
        return self._collect_marginals()

    def marginal(self, event_name: str) -> float:
        """The declared marginal probability of a base event."""
        try:
            return self.marginals[event_name]
        except KeyError:
            raise SemiringError(f"unknown event {event_name!r}") from None

    # -- querying -----------------------------------------------------------------
    def query_lineage(self, query: Query) -> KRelation:
        """Evaluate a query over the lineage database: a circuit per answer.

        Queries run through :meth:`~repro.algebra.ast.Query.evaluate`'s one
        path (planned and column-kernel-first on larger inputs).
        """
        return query.evaluate(self.lineage_database)

    def _compiled_answers(self, query: Query) -> Dict[Tup, Any]:
        """Compile all answers' lineage circuits as one multi-rooted diagram
        (shared compiler/cache)."""
        lineage = self.query_lineage(query)
        assert self._compiler is not None
        return self._compiler.compile_many(dict(lineage.items()))

    def query_events(self, query: Query) -> KRelation:
        """Evaluate a positive-algebra query, returning the event of each answer.

        Events are subsets of the explicit world space, so this evaluates the
        query directly over ``P(Omega)`` with
        :meth:`~repro.algebra.ast.Query.evaluate`.  For scalable output use
        :meth:`query_probabilities`.
        """
        return query.evaluate(self.database)

    def query_probabilities(self, query: Query) -> Dict[Tup, float]:
        """Evaluate a query and return the exact probability of each answer tuple.

        Weighted-model-counts the compiled lineage; never builds the world
        space.
        """
        compiled = self._compiled_answers(query)
        return wmc_many(
            {tup: circuit.root for tup, circuit in compiled.items()}, self.marginals
        )

    def query_top_k(
        self, query: Query, k: int
    ) -> Dict[Tup, List[Tuple[float, Dict[str, bool]]]]:
        """Per answer tuple: the ``k`` most probable worlds that derive it.

        Worlds are returned as ``(probability, {event name: present})`` over
        the events the tuple's lineage depends on, most probable first --
        the "most likely explanations" reading of provenance.
        """
        return top_k_many(self._compiled_answers(query), self.marginals, k)

    def query_map(
        self, query: Query
    ) -> Dict[Tup, Tuple[float, Dict[str, bool]] | None]:
        """Per answer tuple: the most probable world that derives it (MAP),
        i.e. the first entry of :meth:`query_top_k` with ``k = 1``."""
        return {
            tup: models[0] if models else None
            for tup, models in self.query_top_k(query, 1).items()
        }

    # -- datalog -------------------------------------------------------------------
    def datalog_events(self, program: Program | str) -> KRelation:
        """Evaluate a datalog program, returning the event of each output tuple.

        As with :meth:`query_events`, events force the explicit world space:
        the program runs :func:`~repro.datalog.fixpoint.evaluate` directly in
        ``P(Omega)``, a finite lattice, so the fixpoint terminates (Section 8).
        """
        return evaluate(_with_edb(program, self.database), self.database)

    def _compile_output(self, program: Program | str) -> Dict[Tup, Any]:
        """The compiled lineage of every output tuple of ``program``.

        The absorptive provenance circuits of all derivable atoms are
        compiled as one multi-rooted diagram by the database's compiler;
        the output predicate's are returned.  A relation the database lacks
        is a :class:`~repro.errors.SchemaError` (:func:`_with_edb`)."""
        lineage = self.lineage_database
        program = _with_edb(program, lineage)
        sources = absorptive_circuit_provenance(program, lineage)
        compiled = self._compiler.compile_many(sources)
        schema = self._datalog_output_schema(program)
        key_of, tup_of = schema.key_of, schema.tup_of
        return {
            tup_of(key_of(atom.values)): circuit
            for atom, circuit in compiled.items()
            if atom.relation == program.output
        }

    def _datalog_output_schema(self, program: Program):
        return idb_schema(program, self.lineage_database, program.output)

    def datalog_probabilities(self, program: Program | str) -> Dict[Tup, float]:
        """Datalog evaluation with exact output probabilities.

        Compiles each output atom's absorptive provenance circuit -- over
        event-name variables, built from the program's grounding -- and
        weighted-model-counts it against the declared marginals, without
        ever constructing the world space.
        """
        compiled = self._compile_output(program)
        return wmc_many(
            {tup: circuit.root for tup, circuit in compiled.items()}, self.marginals
        )

    def datalog_top_k(
        self, program: Program | str, k: int
    ) -> Dict[Tup, List[Tuple[float, Dict[str, bool]]]]:
        """Per output tuple: the ``k`` most probable worlds deriving it.

        A world names the events the tuple's Boolean provenance depends on:
        those of its minimal derivations, not those only a derivation that
        another absorbs reads (Section 8's minimal fringes)."""
        compiled = self._compile_output(program)
        assert self._compiler is not None
        return top_k_many(self._compiler.essential(compiled), self.marginals, k)

    def tuple_probability(self, relation_name: str, row: Any) -> float:
        """Probability that an input tuple is present (no world space needed)."""
        lineage = self.lineage_database
        node = lineage.relation(relation_name).annotation(row)
        assert self._compiler is not None
        return self._compiler.compile(node).wmc(self.marginals)
