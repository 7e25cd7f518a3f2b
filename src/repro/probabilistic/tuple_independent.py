"""Tuple-independent probabilistic databases and exact query probabilities.

This is the user-facing layer over the probabilistic machinery, with two
exact inference paths selected per call by ``method=``:

* ``"compile"`` (the default for probabilities) -- evaluate the query over a
  *lineage* database annotated in ``Circ[X]`` (one variable per base event),
  knowledge-compile the answers' provenance circuits to one multi-rooted
  ordered decision diagram (:mod:`repro.circuits.compile`) and
  weighted-model-count it in one pass.  Cost is governed by the compiled
  circuit size, not by ``2^n`` over the number of uncertain tuples, so this
  scales far beyond enumeration reach -- the standard lineage route to
  exact probabilistic query evaluation (Jha-Suciu).  Top-k most-probable
  worlds and MAP come from the same compiled form.
* ``"enumerate"`` -- intensional evaluation over the explicitly constructed
  world space in ``P(Omega)`` (Fuhr-Roelleke, Figure 4 of the paper),
  exponential in the number of uncertain tuples.  It stays as the
  differential oracle: on small spaces the two paths must agree exactly,
  and the event-set representation (``query_events``) is inherently an
  enumeration-world object.

Correlations induced by *shared events* (two tuples declared with the same
event name) are handled by both paths: the lineage database reuses one
circuit variable per event name, so compilation sees exactly the
dependence structure enumeration does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.algebra.ast import Query
from repro.circuits.evaluate import CircuitEvaluator, wmc_many
from repro.datalog.grounding import GroundAtom
from repro.datalog.lattice_eval import (
    LatticeDatalogResult,
    evaluate_on_lattice,
    lattice_condition_provenance,
)
from repro.datalog.syntax import Program
from repro.errors import SemiringError
from repro.probabilistic.event_tables import EventTable, IndependentEventSpace
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.tuples import Tup

__all__ = ["ProbabilisticDatabase"]

METHODS = ("compile", "enumerate")


def _check_method(method: str) -> str:
    if method not in METHODS:
        raise SemiringError(f"unknown method {method!r} (use 'compile' or 'enumerate')")
    return method


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
        answer = pdb.query_probabilities(q)          # compiled inference
        oracle = pdb.query_probabilities(q, method="enumerate")
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
        """Materialize the enumeration-path database (``P(Omega)`` events).

        The world space itself stays lazy inside
        :class:`IndependentEventSpace`, but registering event tables forces
        it, so this path is only entered by ``method="enumerate"`` calls and
        direct :attr:`database`/:attr:`space` access.
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
                relation.set(row, circuit_var(event_name))
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
    def query_lineage(
        self,
        query: Query,
        *,
        optimize: bool = True,
        executor: str = "pipelined",
        storage: str | None = None,
    ) -> KRelation:
        """Evaluate a query over the lineage database: a circuit per answer."""
        return query.evaluate(
            self.lineage_database, optimize=optimize, executor=executor, storage=storage
        )

    def _compile_annotations(self, lineage: KRelation) -> Dict[Tup, Any]:
        """Compile all answers' lineage circuits as one multi-rooted diagram
        (shared compiler/cache)."""
        assert self._compiler is not None
        return self._compiler.compile_many(dict(lineage.items()))

    def _events_of(self, compiled: Dict[Any, Any]) -> Dict[Any, frozenset]:
        """Read compiled diagrams back as events of the explicit world space
        (negation = set complement), one shared evaluator for all of them."""
        space = self.space
        worlds = space.space.worlds
        evaluator = CircuitEvaluator(
            space.semiring,
            {name: space.event(name) for name in space.marginals},
            complement=lambda event: worlds - event,
        )
        events = evaluator.evaluate_many(circuit.root for circuit in compiled.values())
        return {key: events[circuit.root] for key, circuit in compiled.items()}

    def query_events(
        self,
        query: Query,
        *,
        optimize: bool = True,
        executor: str = "pipelined",
        method: str = "enumerate",
        storage: str | None = None,
    ) -> KRelation:
        """Evaluate a positive-algebra query, returning the event of each answer.

        Events are subsets of the explicit world space, so both methods
        force its construction; the default ``"enumerate"`` evaluates the
        query directly over ``P(Omega)``, while ``"compile"`` evaluates the
        compiled lineage into ``P(Omega)`` (negation = set complement).  The
        answer events are identical -- ``"compile"`` exists here for the
        differential tests; for scalable output use
        :meth:`query_probabilities`.

        Queries run through the semiring-aware planner by default
        (``optimize=True``) and the pipelined physical engine
        (``executor="pipelined"``); the answer events are identical in every
        mode.
        """
        _check_method(method)
        if method == "enumerate":
            return query.evaluate(
                self.database, optimize=optimize, executor=executor, storage=storage
            )
        lineage = self.query_lineage(
            query, optimize=optimize, executor=executor, storage=storage
        )
        result = KRelation(self.space.semiring, lineage.schema)
        for tup, event in self._events_of(self._compile_annotations(lineage)).items():
            if event:
                result.set(tup, event)
        return result

    def query_probabilities(
        self,
        query: Query,
        *,
        optimize: bool = True,
        executor: str = "pipelined",
        method: str = "compile",
        storage: str | None = None,
    ) -> Dict[Tup, float]:
        """Evaluate a query and return the exact probability of each answer tuple.

        ``method="compile"`` (default) weighted-model-counts the compiled
        lineage -- never builds the world space.  ``method="enumerate"`` is
        the Figure 4 oracle over explicit worlds.
        """
        _check_method(method)
        if method == "enumerate":
            events = self.query_events(
                query, optimize=optimize, executor=executor, storage=storage
            )
            return {tup: self.space.probability(event) for tup, event in events.items()}
        lineage = self.query_lineage(
            query, optimize=optimize, executor=executor, storage=storage
        )
        compiled = self._compile_annotations(lineage)
        return wmc_many(
            {tup: circuit.root for tup, circuit in compiled.items()}, self.marginals
        )

    def query_top_k(
        self,
        query: Query,
        k: int,
        *,
        optimize: bool = True,
        executor: str = "pipelined",
        storage: str | None = None,
    ) -> Dict[Tup, List[Tuple[float, Dict[str, bool]]]]:
        """Per answer tuple: the ``k`` most probable worlds that derive it.

        Worlds are returned as ``(probability, {event name: present})`` over
        the events the tuple's lineage depends on, most probable first --
        the "most likely explanations" reading of provenance.  Compiled path
        only (enumeration has no top-k shortcut).
        """
        lineage = self.query_lineage(
            query, optimize=optimize, executor=executor, storage=storage
        )
        marginals = self.marginals
        return {
            tup: compiled.top_k(marginals, k)
            for tup, compiled in self._compile_annotations(lineage).items()
        }

    def query_map(
        self,
        query: Query,
        *,
        optimize: bool = True,
        executor: str = "pipelined",
        storage: str | None = None,
    ) -> Dict[Tup, Tuple[float, Dict[str, bool]] | None]:
        """Per answer tuple: the most probable world that derives it (MAP)."""
        lineage = self.query_lineage(
            query, optimize=optimize, executor=executor, storage=storage
        )
        marginals = self.marginals
        return {
            tup: compiled.map_model(marginals)
            for tup, compiled in self._compile_annotations(lineage).items()
        }

    # -- datalog -------------------------------------------------------------------
    def _datalog_conditions(
        self, program: Program | str, *, engine: str = "seminaive"
    ) -> LatticeDatalogResult:
        """PosBool conditions of a program over *event-name* variables.

        The EDB id map sends every ground fact to its declared event name,
        so facts sharing an event share a condition variable -- the datalog
        counterpart of the shared-variable lineage database.
        """
        if isinstance(program, str):
            program = Program.parse(program)
        lineage = self.lineage_database
        ids: Dict[GroundAtom, str] = {}
        for predicate in program.edb_predicates:
            if predicate not in lineage:
                continue
            relation = lineage.relation(predicate)
            attributes = relation.schema.attributes
            for tup, node in relation.items():
                ids[GroundAtom(predicate, tup.values_for(attributes))] = node.name
        return lattice_condition_provenance(
            program, lineage, edb_ids=ids, engine=engine
        )

    def datalog_events(
        self,
        program: Program | str,
        *,
        engine: str = "seminaive",
        method: str = "enumerate",
    ) -> KRelation:
        """Evaluate a datalog program (Section 8: P(Omega) is a finite lattice).

        The underlying PosBool(X) condition fixpoint runs on the semi-naive
        delta-driven engine by default (``engine="seminaive"``); pass
        ``engine="naive"`` for the grounding-based reference path.  As with
        :meth:`query_events`, events force the explicit world space;
        ``method="compile"`` reads them off the compiled conditions and
        exists for the differential tests.
        """
        _check_method(method)
        if isinstance(program, str):
            program = Program.parse(program)
        if method == "enumerate":
            return evaluate_on_lattice(program, self.database, engine=engine)
        compiled = self._compile_output(program, engine)
        relation = KRelation(self.space.semiring, self._datalog_output_schema(program))
        for tup, event in self._events_of(compiled).items():
            if event:
                relation.set(tup, event)
        return relation

    def _compile_output(self, program: Program, engine: str) -> Dict[Tup, Any]:
        """The compiled condition of every output tuple of ``program``.

        All derivable atoms are compiled as one multi-rooted diagram by the
        database's compiler; the output predicate's are returned."""
        provenance = self._datalog_conditions(program, engine=engine)
        compiled = provenance.compile(compiler=self._compiler)
        attributes = self._datalog_output_schema(program).attributes
        return {
            Tup.from_values(attributes, atom.values): circuit
            for atom, circuit in compiled.items()
            if atom.relation == program.output
        }

    def _datalog_output_schema(self, program: Program):
        from repro.relations.schema import Schema

        predicate = program.output
        if predicate in self.lineage_database:
            return self.lineage_database.relation(predicate).schema
        head_names = program.head_attributes(predicate)
        arity = program.arity(predicate)
        return Schema(head_names or [f"c{i + 1}" for i in range(arity)])

    def datalog_probabilities(
        self,
        program: Program | str,
        *,
        engine: str = "seminaive",
        method: str = "compile",
    ) -> Dict[Tup, float]:
        """Datalog evaluation with exact output probabilities.

        ``method="compile"`` (default) compiles each output atom's
        PosBool(X) condition -- over event-name variables -- and
        weighted-model-counts it against the declared marginals, without
        ever constructing the world space.
        """
        _check_method(method)
        if method == "enumerate":
            events = self.datalog_events(program, engine=engine)
            return {tup: self.space.probability(event) for tup, event in events.items()}
        if isinstance(program, str):
            program = Program.parse(program)
        compiled = self._compile_output(program, engine)
        return wmc_many(
            {tup: circuit.root for tup, circuit in compiled.items()}, self.marginals
        )

    def datalog_top_k(
        self, program: Program | str, k: int, *, engine: str = "seminaive"
    ) -> Dict[Tup, List[Tuple[float, Dict[str, bool]]]]:
        """Per output tuple: the ``k`` most probable worlds deriving it."""
        if isinstance(program, str):
            program = Program.parse(program)
        marginals = self.marginals
        return {
            tup: circuit.top_k(marginals, k)
            for tup, circuit in self._compile_output(program, engine).items()
        }

    def tuple_probability(self, relation_name: str, row: Any) -> float:
        """Probability that an input tuple is present (no world space needed)."""
        lineage = self.lineage_database
        node = lineage.relation(relation_name).annotation(row)
        assert self._compiler is not None
        return self._compiler.compile(node).wmc(self.marginals)
