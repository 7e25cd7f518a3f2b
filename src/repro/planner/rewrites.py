"""Semiring-safe rewrite rules over positive-algebra query trees.

Every rule applied here is an instance of an identity that Proposition 3.4
proves valid over **any** commutative semiring:

* cascaded selections fuse (``σ_P(σ_Q(R)) = σ_{P∧Q}(R)`` -- both factors are
  {0, 1}-valued);
* selections push through unions (always), projections (when the predicate
  reads only preserved attributes), renames (rewriting the predicate through
  the inverse mapping), and joins (each CNF conjunct moves to the side whose
  schema covers it);
* projections push through unions, renames, and into the sides of a join
  (keeping the join attributes, by distributivity);
* cascaded projections and renames fuse; identity projections and renames
  vanish; the empty relation annihilates joins and selections and is the
  unit of union; ``σ_true`` vanishes and ``σ_false`` produces ∅.

Two further rewrites are **not** semiring-generic and are gated on the
annotation structure (the bag-semantics counterexamples of Proposition 3.4):

* ``R ∪ R = R`` requires idempotent addition (fails over ``N``: 2 ≠ 1);
* the self-join ``R ⋈ R = R`` requires idempotent multiplication (fails over
  ``N``: annotations square).

The gate is the :class:`SemiringProfile` computed by
:func:`semiring_profile`, which reads the semiring's declared flags and can
optionally re-verify them through the axiom checkers of
:mod:`repro.semirings.properties`.

Structurally, all rules move operators *downward* or delete nodes -- nothing
is ever hoisted -- so repeated bottom-up passes reach a fixpoint; the engine
detects it by plan signature and stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.algebra.ast import (
    EmptyRelation,
    Join,
    Project,
    Query,
    Rename,
    Select,
    Union,
)
from repro.algebra.predicates import (
    BasePredicate,
    Conjunction,
    FalsePredicate,
    TruePredicate,
    as_predicate,
    conjunction,
)
from repro.planner.plans import infer_attributes, plan_signature
from repro.semirings.base import Semiring
from repro.semirings.properties import check_semiring_axioms

__all__ = ["SemiringProfile", "semiring_profile", "RewriteContext", "rewrite_fixpoint"]

#: Bottom-up passes after which the engine gives up waiting for a fixpoint.
#: Every rule moves operators downward or deletes nodes, so in practice the
#: signature stabilizes after a handful of passes even on deep trees.
MAX_PASSES = 10


@dataclass(frozen=True)
class SemiringProfile:
    """The algebraic capabilities that gate non-generic rewrites."""

    idempotent_add: bool = False
    idempotent_mul: bool = False


def semiring_profile(
    semiring: Semiring | None, *, verify: bool = False
) -> SemiringProfile:
    """The rewrite gate for ``semiring`` (everything off when ``None``).

    With ``verify=True`` the declared idempotence flags are re-checked
    through :func:`repro.semirings.properties.check_semiring_axioms` on the
    semiring's 0/1 sample; a semiring whose declaration fails its own axioms
    gets no gated rewrites at all (fail safe).
    """
    if semiring is None:
        return SemiringProfile()
    if verify:
        report = check_semiring_axioms(semiring, [semiring.zero(), semiring.one()])
        if not report.ok:
            return SemiringProfile()
    return SemiringProfile(
        idempotent_add=semiring.idempotent_add,
        idempotent_mul=semiring.idempotent_mul,
    )


@dataclass
class RewriteContext:
    """Catalog, gate, and trace shared by one optimization run."""

    catalog: Mapping[str, Sequence[str]] = field(default_factory=dict)
    profile: SemiringProfile = field(default_factory=SemiringProfile)
    trace: list[str] = field(default_factory=list)

    def attrs(self, query: Query) -> tuple[str, ...] | None:
        return infer_attributes(query, self.catalog)

    def record(self, rule: str, detail: str = "") -> None:
        self.trace.append(f"{rule}: {detail}" if detail else rule)


# ---------------------------------------------------------------------------
# Predicate normalization
# ---------------------------------------------------------------------------


def _simplified_predicate(predicate) -> BasePredicate:
    """Flatten trivial conjunction structure (∧ of none = true, ∧ with false
    = false, singleton ∧ unwrapped) without touching opaque callables."""
    predicate = as_predicate(predicate)
    if isinstance(predicate, Conjunction):
        parts = [p for p in predicate.parts if not isinstance(p, TruePredicate)]
        if any(isinstance(p, FalsePredicate) for p in parts):
            return FalsePredicate()
        if not parts:
            return TruePredicate()
        if len(parts) == 1:
            return parts[0]
        return Conjunction(parts)
    return predicate


def _select(child: Query, predicate: BasePredicate) -> Query:
    """A Select node, collapsing ``σ_true`` on the spot."""
    predicate = _simplified_predicate(predicate)
    if isinstance(predicate, TruePredicate):
        return child
    return Select(child, predicate, description=str(predicate))


# ---------------------------------------------------------------------------
# Node-level rules.  Each returns a replacement query or None.
# ---------------------------------------------------------------------------


def _rule_select_trivial(query: Select, ctx: RewriteContext) -> Query | None:
    predicate = _simplified_predicate(query.predicate)
    if isinstance(predicate, TruePredicate):
        ctx.record("select-true-elimination", str(query))
        return query.child
    if isinstance(predicate, FalsePredicate):
        attrs = ctx.attrs(query.child)
        if attrs is None:
            return None
        ctx.record("select-false-to-empty", str(query))
        return EmptyRelation(attrs)
    if predicate.signature() != as_predicate(query.predicate).signature():
        return Select(query.child, predicate, description=str(predicate))
    return None


def _rule_fuse_selections(query: Select, ctx: RewriteContext) -> Query | None:
    child = query.child
    if not isinstance(child, Select):
        return None
    ctx.record("cascaded-selection-fusion", f"{query.description} ∧ {child.description}")
    # Inner predicate first: σ_P(σ_Q(R)) evaluates Q before P as written, and
    # guard-style predicates (Q filters the tuples P would choke on) rely on
    # the conjunction short-circuiting in that same order.
    fused = conjunction(as_predicate(child.predicate), as_predicate(query.predicate))
    return _select(child.child, fused)


def _rule_push_selection(query: Select, ctx: RewriteContext) -> Query | None:
    child = query.child
    predicate = as_predicate(query.predicate)

    if isinstance(child, Union):
        # σ_P(R ∪ S) = σ_P(R) ∪ σ_P(S) -- pointwise, legal for any predicate.
        ctx.record("selection-pushdown-union", str(predicate))
        return Union(_select(child.left, predicate), _select(child.right, predicate))

    if isinstance(child, Project):
        # σ_P(π_V(R)) = π_V(σ_P(R)) -- P reads only V, so the scalar factor
        # distributes over the projection's annotation sums.
        attrs = predicate.attributes
        if attrs is None or not attrs <= set(child.attributes):
            return None
        ctx.record("selection-pushdown-project", str(predicate))
        return Project(_select(child.child, predicate), child.attributes)

    if isinstance(child, Rename):
        # σ_P(ρ_m(R)) = ρ_m(σ_{P∘m}(R)) -- the pushed predicate reads the
        # pre-rename attribute names.
        if predicate.attributes is None:
            return None
        inverse = {new: old for old, new in child.mapping.items()}
        ctx.record("selection-pushdown-rename", str(predicate))
        return Rename(_select(child.child, predicate.rename(inverse)), child.mapping)

    if isinstance(child, Join):
        left_attrs = ctx.attrs(child.left)
        right_attrs = ctx.attrs(child.right)
        if left_attrs is None or right_attrs is None:
            return None
        left_set, right_set = set(left_attrs), set(right_attrs)
        push_left: list[BasePredicate] = []
        push_right: list[BasePredicate] = []
        keep: list[BasePredicate] = []
        for conjunct in predicate.conjuncts():
            attrs = conjunct.attributes
            # Pushing into a join side evaluates the conjunct on tuples the
            # join would have filtered away, so only *total* predicates move
            # (an ordering comparison may raise on tuples it never saw).
            if attrs is None or not conjunct.total:
                keep.append(conjunct)
            elif attrs <= left_set:
                push_left.append(conjunct)
            elif attrs <= right_set:
                push_right.append(conjunct)
            else:
                keep.append(conjunct)
        if not push_left and not push_right:
            return None
        ctx.record(
            "selection-pushdown-join",
            f"{len(push_left)} left, {len(push_right)} right, {len(keep)} kept",
        )
        left = _select(child.left, conjunction(*push_left)) if push_left else child.left
        right = (
            _select(child.right, conjunction(*push_right)) if push_right else child.right
        )
        joined: Query = Join(left, right)
        if keep:
            joined = _select(joined, conjunction(*keep))
        return joined

    return None


def _rule_fuse_projections(query: Project, ctx: RewriteContext) -> Query | None:
    child = query.child
    if not isinstance(child, Project):
        return None
    ctx.record("cascaded-projection-fusion", ",".join(query.attributes))
    return Project(child.child, query.attributes)


def _rule_identity_projection(query: Project, ctx: RewriteContext) -> Query | None:
    child_attrs = ctx.attrs(query.child)
    if child_attrs is None or set(query.attributes) != set(child_attrs):
        return None
    # π over the full attribute set merges nothing: each output tuple has a
    # single preimage, so annotations are untouched in any semiring.
    ctx.record("identity-projection-elimination", ",".join(query.attributes))
    return query.child


def _rule_push_projection(query: Project, ctx: RewriteContext) -> Query | None:
    child = query.child
    wanted = set(query.attributes)

    if isinstance(child, Union):
        # π_V(R ∪ S) = π_V(R) ∪ π_V(S) -- annotation sums regroup freely.
        ctx.record("projection-pushdown-union", ",".join(query.attributes))
        return Union(
            Project(child.left, query.attributes),
            Project(child.right, query.attributes),
        )

    if isinstance(child, Rename):
        inverse = {new: old for old, new in child.mapping.items()}
        below = tuple(inverse.get(a, a) for a in query.attributes)
        kept_mapping = {
            old: new for old, new in child.mapping.items() if new in wanted
        }
        ctx.record("projection-pushdown-rename", ",".join(query.attributes))
        if not kept_mapping:
            return Project(child.child, below)
        return Rename(Project(child.child, below), kept_mapping)

    if isinstance(child, Join):
        # π_V(L ⋈ R) = π_V(π_{(V∩U_L)∪J}(L) ⋈ π_{(V∩U_R)∪J}(R)) with J the
        # shared attributes: grouping the annotation sums per side first is
        # exactly distributivity of · over +.
        left_attrs = ctx.attrs(child.left)
        right_attrs = ctx.attrs(child.right)
        if left_attrs is None or right_attrs is None:
            return None
        shared = set(left_attrs) & set(right_attrs)
        need_left = tuple(a for a in left_attrs if a in wanted or a in shared)
        need_right = tuple(a for a in right_attrs if a in wanted or a in shared)
        # A Project node needs at least one attribute; a side of a cross
        # product that contributes nothing to the output still keeps one
        # column (its annotations -- the multiplicities -- must survive).
        if not need_left:
            need_left = left_attrs[:1]
        if not need_right:
            need_right = right_attrs[:1]
        if len(need_left) == len(left_attrs) and len(need_right) == len(right_attrs):
            return None
        ctx.record(
            "projection-pushdown-join",
            f"{','.join(need_left)} | {','.join(need_right)}",
        )
        left = child.left if len(need_left) == len(left_attrs) else Project(child.left, need_left)
        right = (
            child.right
            if len(need_right) == len(right_attrs)
            else Project(child.right, need_right)
        )
        return Project(Join(left, right), query.attributes)

    return None


def _rule_rename_trivial(query: Rename, ctx: RewriteContext) -> Query | None:
    mapping = {old: new for old, new in query.mapping.items() if old != new}
    if not mapping:
        ctx.record("identity-rename-elimination")
        return query.child
    if len(mapping) != len(query.mapping):
        return Rename(query.child, mapping)
    return None


def _rule_fuse_renames(query: Rename, ctx: RewriteContext) -> Query | None:
    child = query.child
    if not isinstance(child, Rename):
        return None
    composed: dict[str, str] = {}
    inner_targets = set(child.mapping.values())
    for old, mid in child.mapping.items():
        composed[old] = query.mapping.get(mid, mid)
    for old, new in query.mapping.items():
        if old not in inner_targets:
            composed[old] = new
    composed = {old: new for old, new in composed.items() if old != new}
    ctx.record("cascaded-rename-fusion")
    if not composed:
        return child.child
    return Rename(child.child, composed)


def _rule_eliminate_empty(query: Query, ctx: RewriteContext) -> Query | None:
    if isinstance(query, Union):
        if isinstance(query.left, EmptyRelation):
            ctx.record("empty-union-elimination")
            return query.right
        if isinstance(query.right, EmptyRelation):
            ctx.record("empty-union-elimination")
            return query.left
    if isinstance(query, Join) and (
        isinstance(query.left, EmptyRelation) or isinstance(query.right, EmptyRelation)
    ):
        left_attrs = ctx.attrs(query.left)
        right_attrs = ctx.attrs(query.right)
        if left_attrs is None or right_attrs is None:
            return None
        ctx.record("empty-join-annihilation")
        return EmptyRelation(
            tuple(left_attrs) + tuple(a for a in right_attrs if a not in set(left_attrs))
        )
    if isinstance(query, Project) and isinstance(query.child, EmptyRelation):
        ctx.record("empty-projection-elimination")
        return EmptyRelation(query.attributes)
    if isinstance(query, Select) and isinstance(query.child, EmptyRelation):
        ctx.record("empty-selection-elimination")
        return query.child
    if isinstance(query, Rename) and isinstance(query.child, EmptyRelation):
        ctx.record("empty-rename-elimination")
        return EmptyRelation(
            tuple(query.mapping.get(a, a) for a in query.child.schema.attributes)
        )
    return None


def _rule_idempotent_dedupe(query: Query, ctx: RewriteContext) -> Query | None:
    if isinstance(query, Union) and ctx.profile.idempotent_add:
        # R ∪ R = R needs a + a = a; Proposition 3.4 lists its failure under
        # bags as the reason idempotence is *not* a semiring-generic law.
        if plan_signature(query.left) == plan_signature(query.right):
            ctx.record("idempotent-union-dedupe", str(query.left))
            return query.left
    if isinstance(query, Join) and ctx.profile.idempotent_mul:
        # R ⋈ R = R (a natural self-join pairs each tuple only with itself,
        # same schema on both sides) needs a · a = a.
        if plan_signature(query.left) == plan_signature(query.right):
            ctx.record("idempotent-self-join-dedupe", str(query.left))
            return query.left
    return None


_SELECT_RULES = (_rule_select_trivial, _rule_fuse_selections, _rule_push_selection)
_PROJECT_RULES = (
    _rule_fuse_projections,
    _rule_identity_projection,
    _rule_push_projection,
)
_RENAME_RULES = (_rule_rename_trivial, _rule_fuse_renames)


def _apply_node_rules(query: Query, ctx: RewriteContext) -> Query | None:
    """The first applicable rule's result at this node, or None."""
    replaced = _rule_eliminate_empty(query, ctx)
    if replaced is not None:
        return replaced
    rules = ()
    if isinstance(query, Select):
        rules = _SELECT_RULES
    elif isinstance(query, Project):
        rules = _PROJECT_RULES
    elif isinstance(query, Rename):
        rules = _RENAME_RULES
    for rule in rules:
        replaced = rule(query, ctx)
        if replaced is not None:
            return replaced
    return _rule_idempotent_dedupe(query, ctx)


def _rewrite_once(query: Query, ctx: RewriteContext) -> Query:
    """One bottom-up pass: children first, then this node (repeatedly)."""
    if isinstance(query, Union):
        query = Union(_rewrite_once(query.left, ctx), _rewrite_once(query.right, ctx))
    elif isinstance(query, Join):
        query = Join(_rewrite_once(query.left, ctx), _rewrite_once(query.right, ctx))
    elif isinstance(query, Project):
        query = Project(_rewrite_once(query.child, ctx), query.attributes)
    elif isinstance(query, Select):
        query = Select(
            _rewrite_once(query.child, ctx), query.predicate, description=query.description
        )
    elif isinstance(query, Rename):
        query = Rename(_rewrite_once(query.child, ctx), query.mapping)
    # Apply node-local rules until none fires (each application either
    # deletes a node or moves an operator strictly downward, so this halts).
    for _ in range(MAX_PASSES):
        replaced = _apply_node_rules(query, ctx)
        if replaced is None:
            return query
        query = replaced
    return query


def rewrite_fixpoint(query: Query, ctx: RewriteContext) -> Query:
    """Run bottom-up rewrite passes until the plan signature stops changing."""
    signature = plan_signature(query)
    for _ in range(MAX_PASSES):
        query = _rewrite_once(query, ctx)
        new_signature = plan_signature(query)
        if new_signature == signature:
            break
        signature = new_signature
    return query
