"""Event tables: probabilistic databases in the Fuhr-Roelleke-Zimanyi style.

Figure 4 of the paper annotates tuples with probabilistic *events*; query
answering computes the event of each output tuple (unions for alternative
derivations, intersections for joint use) and the probability of the tuple is
the probability of its event.  This is the positive algebra of Definition 3.2
over the event semiring ``(P(Omega), U, ∩, {}, Omega)``.

The most common special case -- and the one in Figure 4 -- is the
*tuple-independent* database: every tuple ``t_i`` carries an independent
Boolean event ``x_i`` with a marginal probability.  The sample space is then
``Omega = 2^{x_1..x_n}``, and this module constructs it explicitly (the
domain is small in the paper's examples and in our benchmarks), which keeps
probability computation exact rather than relying on independence-only
shortcuts that fail for correlated output events.  Explicit events are what
event-returning APIs need; probabilities of tables that carry lineage are
computed by knowledge compilation instead, and the world set is then never
built.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Mapping, Tuple

from repro.errors import SemiringError
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings.events import EventSemiring, EventSpace
from repro.semirings.posbool import BoolExpr

__all__ = ["IndependentEventSpace", "EventTable", "event_database"]


class IndependentEventSpace:
    """A sample space generated by independent Boolean events.

    Worlds are the truth assignments of the named events; the weight of a
    world is the product of the marginals (or their complements).  Worlds are
    identified by frozensets of the events that are true.

    The ``2^n`` world set is built *lazily*, on first access to
    :attr:`space` / :attr:`semiring` / the event constructors: the compiled
    inference path (:mod:`repro.circuits.compile`) only ever reads
    ``marginals``, so declaring a space far beyond enumeration reach is free
    as long as nothing asks for explicit worlds.  Once built, the space is
    immutable; :meth:`probability` memoizes per distinct event value, which
    pays off because answer relations repeat events heavily (shared lineage).
    """

    def __init__(self, marginals: Mapping[str, float]):
        for name, probability in marginals.items():
            if not 0.0 <= probability <= 1.0:
                raise SemiringError(f"marginal of {name!r} must be in [0, 1]")
        self.marginals = dict(marginals)
        self._space: EventSpace | None = None
        self._semiring: EventSemiring | None = None
        self._probability_memo: Dict[frozenset, float] = {}

    def _build(self) -> EventSpace:
        if self._space is None:
            weights: Dict[frozenset, float] = {}
            names = sorted(self.marginals)
            for assignment in itertools.product([False, True], repeat=len(names)):
                world = frozenset(n for n, value in zip(names, assignment) if value)
                weight = 1.0
                for name, value in zip(names, assignment):
                    p = self.marginals[name]
                    weight *= p if value else (1.0 - p)
                weights[world] = weight
            self._space = EventSpace(weights, normalize=True)
            self._semiring = EventSemiring(self._space)
        return self._space

    @property
    def is_built(self) -> bool:
        """Whether the explicit world set has been materialized yet."""
        return self._space is not None

    @property
    def space(self) -> EventSpace:
        """The explicit world space (``2^n`` worlds, built on first access)."""
        return self._build()

    @property
    def semiring(self) -> EventSemiring:
        """The ``P(Omega)`` annotation semiring over the explicit worlds."""
        self._build()
        assert self._semiring is not None
        return self._semiring

    def event(self, name: str) -> frozenset:
        """The event "``name`` is true": all worlds containing ``name``."""
        if name not in self.marginals:
            raise SemiringError(f"unknown event {name!r}")
        return frozenset(w for w in self.space.worlds if name in w)

    def event_of_expression(self, expression: BoolExpr | str | bool) -> frozenset:
        """The event of a positive Boolean combination of the base events."""
        expression = BoolExpr.of(expression)
        return frozenset(
            world
            for world in self.space.worlds
            if expression.evaluate({name: name in world for name in self.marginals})
        )

    def probability(self, event: Iterable) -> float:
        """Probability of an arbitrary event (set of worlds), memoized.

        The memo is never invalidated: the space is immutable after
        :meth:`_build`, so a given event's probability can never change.
        """
        event = frozenset(event)
        cached = self._probability_memo.get(event)
        if cached is None:
            cached = self.space.probability(event)
            self._probability_memo[event] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"IndependentEventSpace({sorted(self.marginals)})"


class EventTable:
    """A relation whose tuples are annotated with events of a shared space.

    Tuple-independent tables also carry a *lineage* companion: the same
    relation annotated in ``Circ[X]`` with one variable per base event.
    The probability APIs pick their path from what the table holds: with
    lineage they knowledge-compile it and weighted-model-count the diagram
    (never touching the ``2^n`` world set); without it they score the
    explicit event against the world space.
    """

    def __init__(
        self,
        space: IndependentEventSpace,
        relation: KRelation | None = None,
        *,
        lineage: KRelation | None = None,
        pending_rows: Iterable[Tuple[Any, str, float]] | None = None,
        schema: Schema | Iterable[str] | None = None,
    ):
        if relation is None and pending_rows is None:
            raise SemiringError("EventTable needs a relation or pending rows")
        self.space = space
        self.lineage = lineage
        self._relation = relation
        self._pending = (schema, list(pending_rows)) if pending_rows is not None else None

    @classmethod
    def tuple_independent(
        cls,
        schema: Schema | Iterable[str],
        rows: Iterable[Tuple[Any, str, float]],
        *,
        space: IndependentEventSpace | None = None,
    ) -> "EventTable":
        """Build a tuple-independent event table.

        ``rows`` is an iterable of ``(tuple, event name, probability)``; when
        ``space`` is given the probabilities there take precedence (allowing
        several tables to share one space).  The explicit event relation is
        materialized lazily -- compiled inference never needs it.
        """
        from repro.circuits.nodes import var as circuit_var
        from repro.circuits.semiring import CircuitSemiring

        rows = list(rows)
        if space is None:
            space = IndependentEventSpace({name: p for _, name, p in rows})
        lineage = KRelation(CircuitSemiring(), schema)
        for row, name, _probability in rows:
            lineage._set(row, circuit_var(name))
        return cls(
            space=space, lineage=lineage, pending_rows=rows, schema=schema
        )

    @property
    def relation(self) -> KRelation:
        """The ``P(Omega)``-annotated relation (built on first access)."""
        if self._relation is None:
            schema, rows = self._pending
            relation = KRelation(self.space.semiring, schema)
            for row, name, _probability in rows:
                relation._set(row, self.space.event(name))
            self._relation = relation
        return self._relation

    @property
    def schema(self) -> Schema:
        """The attribute schema."""
        if self._relation is not None:
            return self._relation.schema
        assert self.lineage is not None
        return self.lineage.schema

    def event(self, row: Any) -> frozenset:
        """The event annotating ``row``."""
        return self.relation.annotation(row)

    def probability(self, row: Any) -> float:
        """Marginal probability that ``row`` is in the (random) relation."""
        if self.lineage is not None:
            from repro.circuits.compile import compile_circuit

            return compile_circuit(self.lineage.annotation(row)).wmc(self.space.marginals)
        return self.space.probability(self.event(row))

    def probabilities(self) -> Dict[Tup, float]:
        """Marginal probability of every support tuple."""
        if self.lineage is not None:
            from repro.circuits.compile import CircuitCompiler
            from repro.circuits.evaluate import wmc_many

            compiled = CircuitCompiler().compile_many(dict(self.lineage.items()))
            return wmc_many(
                {tup: circuit.root for tup, circuit in compiled.items()},
                self.space.marginals,
            )
        return {tup: self.space.probability(event) for tup, event in self.relation.items()}

    def __len__(self) -> int:
        if self._relation is not None:
            return len(self._relation)
        assert self.lineage is not None
        return len(self.lineage)

    def __str__(self) -> str:
        return self.relation.to_table()


def event_database(tables: Mapping[str, EventTable]) -> Database:
    """Bundle event tables (sharing a single space) into a queryable database."""
    spaces = {id(table.space) for table in tables.values()}
    if len(spaces) > 1:
        raise SemiringError("all event tables in a database must share one event space")
    some_table = next(iter(tables.values()))
    database = Database(some_table.space.semiring)
    for name, table in tables.items():
        database.register(name, table.relation)
    return database
