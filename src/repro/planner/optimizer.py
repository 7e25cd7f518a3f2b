"""The ``optimize`` entry point: semiring-safe rewrites to a fixpoint.

``optimize(query, database)`` returns a new :class:`~repro.algebra.ast.Query`
that evaluates to the *same K-relation* as ``query`` on ``database`` (and on
any database with the same schemas and a semiring with the same declared
properties) -- annotation for annotation, over every commutative semiring.
Only the output attribute *order* may differ (the named perspective is
order-free; :meth:`KRelation.equal_to` compares attribute sets).

Planning is :func:`~repro.planner.rewrites.rewrite_fixpoint` and nothing
else: pushdowns, fusions, eliminations and the idempotence-gated
deduplications until the plan stops changing.  Joins run in the order they
are written.  Proposition 3.4 makes re-bracketing them legal, but on the
end-to-end benchmark cost-based reordering never paid.  Planning reads
schemas and the semiring's declared properties, never relation data, so
neither ``optimize`` nor :func:`explain` touches a tuple.

``optimize`` is a fixpoint: optimizing an optimized plan returns a plan with
the same signature (the regression suite asserts this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.ast import Query
from repro.obs import trace as _trace
from repro.planner.plans import catalog_of, plan_signature
from repro.planner.rewrites import RewriteContext, rewrite_fixpoint, semiring_profile
from repro.relations.database import Database
from repro.semirings.base import Semiring

__all__ = ["optimize", "explain", "OptimizationReport"]


def _context(
    database: Database | None, semiring: Semiring | None, verify_properties: bool
) -> RewriteContext:
    if semiring is None and database is not None:
        semiring = database.semiring
    profile = semiring_profile(semiring, verify=verify_properties)
    return RewriteContext(catalog=catalog_of(database), profile=profile)


def _rewrite(query: Query, ctx: RewriteContext) -> Query:
    with _trace.span("planner.rewrite") as sp:
        plan = rewrite_fixpoint(query, ctx)
        sp.set(rules=len(ctx.trace))
    return plan


def optimize(
    query: Query,
    database: Database | None = None,
    *,
    semiring: Semiring | None = None,
    verify_properties: bool = False,
) -> Query:
    """Return an equivalent, cheaper plan for ``query``.

    Parameters
    ----------
    query:
        Any positive-algebra query (Definition 3.2 nodes).
    database:
        Supplies base-relation schemas (pushdown legality) and the semiring
        (idempotence-gated rewrites).  Optional: without it,
        schema-dependent rewrites simply skip.
    semiring:
        Overrides (or supplies, when ``database`` is absent) the semiring
        that gates the idempotence-based rewrites.
    verify_properties:
        Re-check declared idempotence through
        :mod:`repro.semirings.properties` before trusting it.
    """
    return _rewrite(query, _context(database, semiring, verify_properties))


@dataclass
class OptimizationReport:
    """What :func:`explain` saw: the plan as written, the rewritten plan and
    the rules the rewrite fixpoint applied."""

    original: Query
    optimized: Query
    applied_rules: list[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return plan_signature(self.original) != plan_signature(self.optimized)

    def __str__(self) -> str:
        lines = [
            f"original:  {self.original}",
            f"optimized: {self.optimized}",
        ]
        if self.applied_rules:
            lines.append("applied rules:")
            lines.extend(f"  - {rule}" for rule in self.applied_rules)
        else:
            lines.append("applied rules: (none)")
        return "\n".join(lines)


def explain(
    query: Query,
    database: Database | None = None,
    *,
    semiring: Semiring | None = None,
    verify_properties: bool = False,
) -> OptimizationReport:
    """Optimize ``query`` and report the original plan, the rewritten plan
    and the applied rules.

    Like :func:`optimize` it reads only schemas (and the semiring), never
    relation data, so explaining a query runs nothing and encodes nothing.
    """
    ctx = _context(database, semiring, verify_properties)
    plan = _rewrite(query, ctx)
    return OptimizationReport(
        original=query, optimized=plan, applied_rules=list(ctx.trace)
    )
