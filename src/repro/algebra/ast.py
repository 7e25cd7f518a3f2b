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
from repro.relations.database import Database, check_storage_keyword
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


class Query:
    """Base class of positive-algebra query expressions.

    Subclasses implement :meth:`_execute`; the fluent combinators defined
    here (``union``, ``project``, ``select``, ``join``, ``rename``) build
    larger queries out of smaller ones, and :meth:`evaluate` runs the tree
    (optionally through the planner first with ``optimize=True``).
    """

    def evaluate(
        self,
        database: Database,
        *,
        optimize: bool = False,
        executor: str = "naive",
        storage: str | None = None,
    ) -> KRelation:
        """Evaluate the query against ``database`` and return a K-relation.

        With ``optimize=True`` the query is first run through the
        semiring-aware planner (:func:`repro.planner.optimize`) -- pushdowns,
        fusions and cost-based join reordering, all justified by Proposition
        3.4 -- and the optimized plan is executed instead.  The result is the
        same K-relation annotation-for-annotation; only the display order of
        attributes may differ (the named perspective is order-free).

        ``executor`` selects the physical execution strategy:

        * ``"naive"`` (default) -- operator-at-a-time: every node of the
          plan materializes its full intermediate K-relation;
        * ``"pipelined"`` -- compile the plan into streaming hash-based
          kernels (:mod:`repro.engine`): selections/projections/renames fuse
          into scans and join probe loops, joins build the cheaper side, and
          duplicate-tuple annotation contributions are combined batched (one
          ``+``-chain per output tuple).  Same result, no intermediate
          materialization.

        The pipelined executor runs supported plans over the whole-column
        kernels (:mod:`repro.engine.vectorized`) when the semiring has exact
        vector arithmetic.  ``storage`` selects nothing; it goes with
        ROADMAP item 1's ``calls.py`` edit (see
        :func:`~repro.relations.database.check_storage_keyword`).
        """
        check_storage_keyword(storage)
        plan = self.optimized(database) if optimize else self
        if executor == "pipelined":
            from repro.engine import execute as _execute_pipelined

            return _execute_pipelined(plan, database)
        if executor != "naive":
            raise QueryError(
                f"unknown executor {executor!r}; expected 'naive' or 'pipelined'"
            )
        return plan._execute(database)

    def _execute(self, database: Database) -> KRelation:
        """Execute this operator tree as written (implemented by subclasses)."""
        raise NotImplementedError

    def optimized(self, database: Database | None = None, **options) -> "Query":
        """The planner's equivalent, cheaper plan for this query.

        ``options`` are forwarded to :func:`repro.planner.optimize`
        (``semiring=``, ``statistics=``, ``reorder=``, ...).
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
        :class:`~repro.planner.optimizer.OptimizationReport` -- applied
        rewrite rules and cost estimates, nothing is executed.  With
        ``analyze=True`` the optimized plan is compiled to the pipelined
        engine and **executed** with full observation, returning an
        :class:`~repro.obs.explain.ExplainAnalyzeReport`: the physical
        operator tree annotated with actual rows, wall time, hash-join
        build/probe sizes and semiring-op counts (``report.result`` holds
        the query's K-relation).  ``options`` forward to the planner.
        """
        if analyze:
            if database is None:
                raise QueryError("explain(analyze=True) requires a database")
            from repro.obs.explain import explain_analyze as _explain_analyze

            return _explain_analyze(self, database, **options)
        from repro.planner import explain as _explain

        return _explain(self, database, **options)

    def explain_analyze(self, database: Database, **options):
        """Shorthand for :meth:`explain` with ``analyze=True``."""
        return self.explain(database, analyze=True, **options)

    def __call__(self, database: Database, **options) -> KRelation:
        """Shorthand for :meth:`evaluate` (same keyword options)."""
        return self.evaluate(database, **options)

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
        return operators.union(self.left.evaluate(database), self.right.evaluate(database))

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
        return operators.project(self.child.evaluate(database), self.attributes)

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
        return operators.select(self.child.evaluate(database), self.predicate)

    def children(self) -> Sequence[Query]:
        return (self.child,)

    def __str__(self) -> str:
        return f"σ_[{self.description}]({self.child})"


class Join(Query):
    """Natural join of two sub-queries."""

    def __init__(self, left: Query, right: Query):
        self.left, self.right = left, right

    def _execute(self, database: Database) -> KRelation:
        return operators.join(self.left.evaluate(database), self.right.evaluate(database))

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
        return operators.rename(self.child.evaluate(database), self.mapping)

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
