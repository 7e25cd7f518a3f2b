"""A small query AST and fluent builder for positive-algebra queries.

Queries built from these nodes are *semiring-generic*: the same query object
can be evaluated against databases annotated in any commutative semiring,
which is what makes the factorization experiments (Theorem 4.3) and the
cross-semiring benchmarks possible.

The canonical example -- the query ``q`` used throughout Section 2 of the
paper::

    q(R) = π_ac( π_ab R ⋈ π_bc R  ∪  π_ac R ⋈ π_bc R )

is expressed as::

    R = Q.relation("R")
    q = (R.project("a", "b").join(R.project("b", "c"))
          .union(R.project("a", "c").join(R.project("b", "c")))
          .project("a", "c"))

and is available ready-made from :mod:`repro.workloads.paper_instances`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.algebra import operators
from repro.algebra.predicates import (
    Predicate,
    attr_eq,
    attr_eq_const,
    describe_predicate,
)
from repro.errors import QueryError
from repro.relations.database import Database, accept_pinned_keywords
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup

__all__ = [
    "Query",
    "RelationRef",
    "Union",
    "Project",
    "Select",
    "Join",
    "Rename",
    "EmptyRelation",
    "Q",
]


#: Queries whose base relations hold fewer rows than this (summed over the
#: distinct relations read) run as written on the row pipeline; larger ones
#: are planned and tried on the column kernels first.  On the Section 2 query
#: at 32 rows over N and B the planner costs ~0.2-0.3 ms per call (the
#: rewrite fixpoint alone: it reads no relation data) and the kernels
#: ~0.4-0.6 ms (2-core Xeon).  The row pipeline beat the fixed cost of
#: planning plus kernels up to 12-24 input rows over N and B (two-hop and
#: Section 2 queries, 3-256 rows, timed when planning also read statistics
#: and reordered joins, ~0.15-0.2 ms dearer); the constant splits the
#: difference.  Over N[X], Why and circuits, which the kernels run on object
#: arrays through the semiring's own operations, the two routes are within
#: 0.8x-1.25x of each other at 32 rows: planning plus kernels 0.59-2.41 ms
#: against the row pipeline's 0.65-2.90 ms on the same two queries (best
#: of 2 x 300 calls, each re-encoding the relation, same box).
PLANNED_INPUT_ROWS = 32


class Query:
    """Base class of positive-algebra query expressions.

    Subclasses implement :meth:`_execute`; the fluent combinators defined
    here (``union``, ``project``, ``select``, ``join``, ``rename``) build
    larger queries out of smaller ones, and :meth:`evaluate` runs the tree.
    """

    def evaluate(
        self,
        database: Database,
        *,
        optimize: bool = True,
        executor: str = "pipelined",
        storage: str | None = None,
    ) -> KRelation:
        """Evaluate the query against ``database`` and return a K-relation.

        One path, picked by input size.  When the base relations the query
        reads hold fewer than :data:`PLANNED_INPUT_ROWS` rows in total, the
        query is compiled as written into the pipelined row kernels of
        :mod:`repro.engine` (selections, projections and renames fused into
        scans and join probes, duplicate contributions combined with one
        ``+``-chain per output tuple).  Otherwise the semiring-aware planner
        (:func:`repro.planner.optimize`, justified by Proposition 3.4) rewrites
        it first, and :func:`repro.engine.execute` runs the plan on the
        whole-column kernels when the semiring has exact vector arithmetic,
        or on the row kernels.  Every route returns the same K-relation; only
        the display order of attributes may differ (the named perspective is
        order-free).  :meth:`_execute` is the operator-at-a-time reference.

        ``optimize``, ``executor`` and ``storage`` select nothing: only the
        values the end-to-end benchmark passes are accepted (see
        :func:`~repro.relations.database.accept_pinned_keywords`).
        """
        accept_pinned_keywords(optimize=optimize, executor=executor, storage=storage)
        from repro.engine import compile as _engine

        if self.uses_planner(database):
            return _engine.execute(self.optimized(database), database)
        return _engine.execute_rows(self, database)

    def uses_planner(self, database: Database) -> bool:
        """Whether :meth:`evaluate` plans this query on ``database``: its
        distinct base relations hold at least :data:`PLANNED_INPUT_ROWS` rows."""
        rows = sum(len(database.relation(name)) for name in self.relation_names())
        return rows >= PLANNED_INPUT_ROWS

    def _execute(self, database: Database) -> KRelation:
        """Execute this operator tree as written, one operator at a time.

        Every node materializes its full intermediate K-relation through
        :mod:`repro.algebra.operators` -- the paper-literal semantics of
        Definition 3.2, kept as the reference that the engine is tested
        against.  Implemented by subclasses, which recurse through
        ``_execute`` (never the engine).
        """
        raise NotImplementedError

    def optimized(self, database: Database | None = None, **options) -> "Query":
        """The planner's equivalent, cheaper plan for this query.

        ``options`` are forwarded to :func:`repro.planner.optimize`
        (``semiring=``, ``verify_properties=``).
        """
        from repro.planner import optimize as _optimize

        return _optimize(self, database, **options)

    def explain(
        self,
        database: Database | None = None,
        *,
        analyze: bool = False,
        **options,
    ):
        """Explain this query: the planner's report, or executed actuals.

        With ``analyze=False`` (default) this returns the logical planner's
        :class:`~repro.planner.optimizer.OptimizationReport` -- the plan as
        written, the rewritten plan and the applied rewrite rules; nothing
        is executed and no relation data is read; ``options`` forward to
        the planner.  With ``analyze=True`` the query is
        **executed** the way :meth:`evaluate` runs it -- planned or not,
        column kernels or rows -- with full observation, returning an
        :class:`~repro.obs.explain.ExplainAnalyzeReport`: the executor that
        answered and its operator tree annotated with actual rows, wall
        time, join build/probe sizes and semiring-op counts
        (``report.result`` holds the query's K-relation).
        """
        if analyze:
            if database is None:
                raise QueryError("explain(analyze=True) requires a database")
            from repro.obs.explain import explain_analyze as _explain_analyze

            return _explain_analyze(self, database, **options)
        from repro.planner import explain as _explain

        return _explain(self, database, **options)

    def explain_analyze(self, database: Database):
        """Shorthand for :meth:`explain` with ``analyze=True``."""
        return self.explain(database, analyze=True)

    def __call__(self, database: Database, **pinned) -> KRelation:
        """Shorthand for :meth:`evaluate`."""
        return self.evaluate(database, **pinned)

    # -- combinators -------------------------------------------------------------
    def union(self, other: "Query") -> "Union":
        """Union with another query (annotations added)."""
        return Union(self, other)

    def project(self, *attributes: str) -> "Project":
        """Project onto the listed attributes (annotations summed)."""
        if len(attributes) == 1 and not isinstance(attributes[0], str):
            attributes = tuple(attributes[0])
        return Project(self, attributes)

    def select(self, predicate: Predicate, *, description: str | None = None) -> "Select":
        """Select by a {0,1}-valued predicate (annotations multiplied)."""
        return Select(self, predicate, description=description)

    def where_eq(self, attribute: str, value: Any) -> "Select":
        """Shorthand for selection on attribute = constant."""
        return Select(
            self, attr_eq_const(attribute, value), description=f"{attribute} = {value!r}"
        )

    def where_attrs_equal(self, left: str, right: str) -> "Select":
        """Shorthand for selection on attribute = attribute."""
        return Select(self, attr_eq(left, right), description=f"{left} = {right}")

    def join(self, other: "Query") -> "Join":
        """Natural join with another query (annotations multiplied)."""
        return Join(self, other)

    def rename(self, mapping: Mapping[str, str]) -> "Rename":
        """Rename attributes by the given bijection."""
        return Rename(self, dict(mapping))

    # -- inspection ----------------------------------------------------------------
    def relation_names(self) -> frozenset[str]:
        """Names of base relations referenced by the query."""
        names: set[str] = set()
        for child in self.children():
            names |= child.relation_names()
        return frozenset(names)

    def children(self) -> Sequence["Query"]:
        """Direct sub-queries (empty for leaves)."""
        return ()

    def __repr__(self) -> str:
        return f"<Query {self}>"


class RelationRef(Query):
    """A reference to a named base relation of the database."""

    def __init__(self, name: str):
        self.name = name

    def _execute(self, database: Database) -> KRelation:
        return database.relation(self.name)

    def relation_names(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


class EmptyRelation(Query):
    """The empty relation over a fixed schema (the ∅ of Definition 3.2)."""

    def __init__(self, schema: Schema | Iterable[str]):
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)

    def _execute(self, database: Database) -> KRelation:
        return operators.empty(database.semiring, self.schema)

    def __str__(self) -> str:
        return f"∅{self.schema}"


class Union(Query):
    """Union of two union-compatible sub-queries."""

    def __init__(self, left: Query, right: Query):
        self.left, self.right = left, right

    def _execute(self, database: Database) -> KRelation:
        return operators.union(self.left._execute(database), self.right._execute(database))

    def children(self) -> Sequence[Query]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ∪ {self.right})"


class Project(Query):
    """Projection of a sub-query onto a list of attributes."""

    def __init__(self, child: Query, attributes: Iterable[str]):
        self.child = child
        self.attributes = tuple(attributes)
        if not self.attributes:
            raise QueryError("projection needs at least one attribute")

    def _execute(self, database: Database) -> KRelation:
        return operators.project(self.child._execute(database), self.attributes)

    def children(self) -> Sequence[Query]:
        return (self.child,)

    def __str__(self) -> str:
        return f"π_{{{','.join(self.attributes)}}}({self.child})"


class Select(Query):
    """Selection of a sub-query by a {0,1}-valued predicate."""

    def __init__(self, child: Query, predicate: Callable[[Tup], Any], *, description: str | None = None):
        self.child = child
        self.predicate = predicate
        self.description = description or describe_predicate(predicate)

    def _execute(self, database: Database) -> KRelation:
        return operators.select(self.child._execute(database), self.predicate)

    def children(self) -> Sequence[Query]:
        return (self.child,)

    def __str__(self) -> str:
        return f"σ_[{self.description}]({self.child})"


class Join(Query):
    """Natural join of two sub-queries."""

    def __init__(self, left: Query, right: Query):
        self.left, self.right = left, right

    def _execute(self, database: Database) -> KRelation:
        return operators.join(self.left._execute(database), self.right._execute(database))

    def children(self) -> Sequence[Query]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ⋈ {self.right})"


class Rename(Query):
    """Attribute renaming of a sub-query."""

    def __init__(self, child: Query, mapping: Mapping[str, str]):
        self.child = child
        self.mapping = dict(mapping)

    def _execute(self, database: Database) -> KRelation:
        return operators.rename(self.child._execute(database), self.mapping)

    def children(self) -> Sequence[Query]:
        return (self.child,)

    def __str__(self) -> str:
        renames = ", ".join(f"{old}→{new}" for old, new in self.mapping.items())
        return f"ρ_[{renames}]({self.child})"


class _QueryBuilder:
    """Entry point for the fluent query API (exported as ``Q``)."""

    @staticmethod
    def relation(name: str) -> RelationRef:
        """Reference a base relation by name."""
        return RelationRef(name)

    @staticmethod
    def empty(schema: Schema | Iterable[str]) -> EmptyRelation:
        """The empty relation over ``schema``."""
        return EmptyRelation(schema)


#: Fluent query builder: ``Q.relation("R").project("a", "c")`` etc.
Q = _QueryBuilder()
