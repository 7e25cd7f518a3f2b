"""Materialized views over K-relations, maintained by delta propagation.

A :class:`MaterializedView` compiles a positive-algebra query into a tree of
operator nodes, each owning the materialized K-relation of its subquery.
Applying an :class:`~repro.incremental.delta.UpdateBatch` propagates
change-valued deltas bottom-up through the tree:

* linear operators (union, projection, selection, renaming) pass the child
  delta through themselves;
* a join node uses the two-term rule ``Δ(L ⋈ R) = ΔL ⋈ R_old ∪ L_new ⋈ ΔR``
  against its children's *materialized* relations, so no subquery is ever
  re-evaluated.  Each term probes a hash index the join node keeps on the
  other child's materialization, so the work per update is proportional to
  the deltas and the tuples they join with -- not to the other side, and not
  to the view size.

The view is built operator-at-a-time (:mod:`repro.algebra.operators`), and
the linear operators' deltas run through the same operators; it is
maintained on its relations' row keys, and a
:class:`~repro.relations.tuples.Tup` is built only for a selection predicate
and for the changed rows :meth:`MaterializedView.apply` returns.  Subtrees
whose base relations are untouched by a batch are skipped entirely.

**Child indexes.**  A join node indexes each child on the shared attributes
as ``{index key: {row key: None}}`` (insertion-ordered buckets, so a probe's
order never depends on the hash seed).  An index holds row keys only; a
probe reads the annotations from the child's materialization, so only
support membership has to be kept in sync.  An index is built by one scan
of the child the first time a probe needs it, and from then on is kept in
sync from the keys every call on that child reports as touched (its delta's
keys, or the changed keys of a delete/rederive pass) -- right after that
child advances, so a join's first term still probes ``R_old`` and its second
``L_new``.  Children no probe ever reads (the fact table of a star view, whose
deltas only probe the dimensions) are never indexed.

Deletions take one of two paths (``last_apply_mode`` records which ran):

* **ring** semirings (``has_negation``, e.g. ``Z`` or ``Z[X]``): a deletion
  is the negated annotation delta ``-R(t)`` and propagates through the
  ordinary bilinear delta rules (``"incremental"``);
* plain semirings: a **delete/rederive pass** walks the node tree bottom-up
  recomputing only the *affected keys* of each materialization -- removed
  leaf tuples, the union/selection/rename images of changed child tuples,
  the projection groups they collapse into (re-aggregated by one scan of
  the projection's child), and for joins the output keys reachable from a
  changed child tuple (found by probing the join's child indexes, each
  output recomputed in O(1) from the two child annotations)
  (``"delete_rederive"``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping

from repro.algebra import operators
from repro.algebra.ast import (
    EmptyRelation,
    Join,
    Project,
    Query,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.errors import QueryError
from repro.obs import trace as _trace
from repro.incremental.delta import (
    UpdateBatch,
    _apply_batch,
    _apply_delta,
    batch_deltas,
)
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.tuples import Tup

__all__ = ["MaterializedView"]


class _Index:
    """A hash index on one child's materialization: ``{index key: {row key:
    None}}``, where the index key is the row key restricted to ``positions``.

    ``buckets`` is ``None`` until the first probe builds it (:meth:`built`);
    :meth:`sync` keeps a built index in step with the child's support.
    """

    __slots__ = ("relation", "positions", "buckets")

    def __init__(self, relation: KRelation, positions: tuple):
        self.relation = relation
        self.positions = positions
        self.buckets: Dict[tuple, Dict[tuple, None]] | None = None

    def built(self) -> Dict[tuple, Dict[tuple, None]]:
        """The buckets, built by one scan of the child on first use."""
        if self.buckets is None:
            positions = self.positions
            buckets: Dict[tuple, Dict[tuple, None]] = {}
            for key in self.relation._rows:
                buckets.setdefault(tuple([key[i] for i in positions]), {})[key] = None
            self.buckets = buckets
        return self.buckets

    def sync(self, keys: Iterable[tuple]) -> None:
        """Re-file ``keys`` (row keys the child just touched) by whether they
        are in its support now; a no-op until the index is built."""
        buckets = self.buckets
        if buckets is None:
            return
        positions, rows = self.positions, self.relation._rows
        for key in keys:
            index_key = tuple([key[i] for i in positions])
            bucket = buckets.get(index_key)
            if key in rows:
                if bucket is None:
                    buckets[index_key] = {key: None}
                else:
                    bucket[key] = None
            elif bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del buckets[index_key]


class _Node:
    """One operator of the compiled view: the query node, children, and the
    materialized K-relation of the subquery rooted here.

    Leaf (``RelationRef``) nodes hold a *private copy* of the base relation:
    each leaf occurrence advances from old to new state exactly when the
    propagation pass reaches it, which is what keeps the two-term join rule
    correct even when the same base relation feeds both sides of a join.

    A join node keeps ``indexes``, one lazily built :class:`_Index` per child
    on their shared attributes, and ``merge``, the positions of a result
    key's values in ``left key + right key``; other nodes have neither.
    Only this node mutates its children, and it syncs their indexes right
    after each child call returns.
    """

    __slots__ = ("query", "children", "relation", "base_names", "indexes", "merge")

    def __init__(self, query: Query, children: List["_Node"], relation: KRelation):
        self.query = query
        self.children = children
        self.relation = relation
        self.base_names = query.relation_names()
        self.indexes: tuple = ()
        self.merge: tuple = ()
        if isinstance(query, Join):
            left, right = (child.relation for child in children)
            shared = sorted(left.schema.attribute_set & right.schema.attribute_set)
            self.indexes = (
                _Index(left, left.schema.key_positions(shared)),
                _Index(right, right.schema.key_positions(shared)),
            )
            self.merge = operators._merge_order(left.schema, right.schema, relation.schema)


def _build(query: Query, database: Database) -> _Node:
    """Compile ``query`` into a node tree, evaluating every subquery once."""
    if isinstance(query, RelationRef):
        return _Node(query, [], database.relation(query.name).copy())
    if isinstance(query, EmptyRelation):
        return _Node(query, [], operators.empty(database.semiring, query.schema))
    children = [_build(child, database) for child in query.children()]
    return _Node(query, children, _evaluate_node(query, children))


def _evaluate_node(query: Query, children: List[_Node]) -> KRelation:
    """Evaluate one operator from its children's materialized relations."""
    if isinstance(query, Union):
        return operators.union(children[0].relation, children[1].relation)
    if isinstance(query, Project):
        return operators.project(children[0].relation, query.attributes)
    if isinstance(query, Select):
        return operators.select(children[0].relation, query.predicate)
    if isinstance(query, Rename):
        return operators.rename(children[0].relation, query.mapping)
    if isinstance(query, Join):
        return operators.join(children[0].relation, children[1].relation)
    raise QueryError(
        f"cannot materialize query node {type(query).__name__}; "
        "materialized views cover the positive algebra of Definition 3.2"
    )


def _probe(node: _Node, keys: Iterable[tuple], side: int):
    """Yield ``(result key, left key, right key)`` for every pair that joins
    a row key in ``keys`` of child ``side`` with a row of the other child,
    found in the other child's index."""
    positions = node.indexes[side].positions
    buckets = node.indexes[1 - side].built()
    merge = node.merge
    for key in keys:
        bucket = buckets.get(tuple([key[i] for i in positions]))
        if bucket is None:
            continue
        for match in bucket:
            left, right = (key, match) if side == 0 else (match, key)
            row = left + right
            yield tuple([row[i] for i in merge]), left, right


def _delta_join(node: _Node, delta: KRelation, side: int) -> KRelation:
    """``ΔL ⋈ R`` (``side`` 0) or ``L ⋈ ΔR`` (``side`` 1) for the join
    ``node``: each delta row probes the other child's index, and every match
    is multiplied ``left · right`` and accumulated once, exactly as
    :func:`~repro.algebra.operators.join` would."""
    result = node.relation.empty_like()
    rows = delta._rows
    if not rows:
        return result
    other = node.children[1 - side].relation._rows
    left_rows, right_rows = (rows, other) if side == 0 else (other, rows)
    mul, accumulate = node.relation.semiring.mul, result._accumulate
    for key, left, right in _probe(node, rows, side):
        accumulate(key, mul(left_rows[left], right_rows[right]))
    return result


def _propagate(
    node: _Node,
    deltas: Mapping[str, KRelation],
    changed_out: Dict[tuple, Any] | None = None,
) -> KRelation:
    """Advance ``node`` (and its subtree) to the post-update state.

    Returns the node's change-valued delta.  On entry the subtree holds the
    pre-update materializations; on exit the post-update ones.  When
    ``changed_out`` is given (the root call), it collects the row keys whose
    materialized annotation *actually* changed -- a delta entry that is
    absorbed without effect (idempotent re-insert) is not a change.
    """
    query = node.query
    if not (node.base_names & deltas.keys()):
        return node.relation.empty_like()
    if isinstance(query, RelationRef):
        delta = deltas[query.name]
        applied = _apply_delta(node.relation, delta)
        if changed_out is not None:
            changed_out.update(applied)
        return delta
    if isinstance(query, Union):
        delta = operators.union(
            _propagate(node.children[0], deltas), _propagate(node.children[1], deltas)
        )
    elif isinstance(query, Project):
        delta = operators.project(_propagate(node.children[0], deltas), query.attributes)
    elif isinstance(query, Select):
        delta = operators.select(_propagate(node.children[0], deltas), query.predicate)
    elif isinstance(query, Rename):
        delta = operators.rename(_propagate(node.children[0], deltas), query.mapping)
    elif isinstance(query, Join):
        left, right = node.children
        left_index, right_index = node.indexes
        # Two-term bilinear rule: the left child advances first, so the
        # first term joins ΔL with R's *old* relation and the second joins
        # L's *new* relation with ΔR (absorbing the ΔL ⋈ ΔR cross term).
        # Each child's index is synced as soon as that child has advanced.
        left_delta = _propagate(left, deltas)
        left_index.sync(left_delta._rows)
        delta = _delta_join(node, left_delta, 0)
        right_delta = _propagate(right, deltas)
        right_index.sync(right_delta._rows)
        delta = operators.union(delta, _delta_join(node, right_delta, 1))
    else:  # pragma: no cover - _build already rejected exotic nodes
        raise QueryError(f"no delta rule for {type(query).__name__}")
    applied = _apply_delta(node.relation, delta)
    if changed_out is not None:
        changed_out.update(applied)
    return delta


def _refresh_value(relation: KRelation, key: tuple, value: Any, semiring) -> bool:
    """Store ``value`` for ``key`` (``None``/zero = remove); report a change."""
    annotations = relation._annotations
    current = annotations.get(key)
    if value is None or semiring.is_zero(value):
        if current is None:
            return False
        del annotations[key]
        return True
    if current is not None and current == value:
        return False
    annotations[key] = value
    return True


def _restriction(source: KRelation, target: KRelation):
    """Map a row key of ``source`` to the key of its restriction to
    ``target``'s attributes."""
    kept = source.schema.key_positions(target.schema.key_attributes)
    return lambda key: tuple([key[i] for i in kept])


def _keyed_probe(relation: KRelation, keys: set, semiring) -> KRelation:
    """A relation over ``relation``'s schema holding ``keys``, each annotated 1."""
    probe = KRelation(semiring, relation.schema)
    one = semiring.one()
    for key in keys:
        probe._accumulate(key, semiring.coerce(one))
    return probe


def _delete_rederive(node: _Node, removed: Mapping[str, set], semiring) -> set:
    """Propagate base-relation deletions by recomputing only affected keys.

    ``removed`` maps base relation names to the sets of row keys deleted
    from them (already applied to the database).  Every operator recomputes
    just the keys a changed child row can reach: unions, selections and
    renames re-read the one child annotation, projections re-aggregate only
    the groups a changed child row collapses into (one scan of the child),
    and joins probe their child indexes for the output keys reachable from a
    changed child row, recomputing each in O(1) as the product of the two
    child annotations.  A join syncs each child index from the changed keys
    that child returns, as in :func:`_propagate`, before anything probes it.
    No negation is needed -- deletion works in every semiring because
    affected values are recomputed, not subtracted.
    Returns the node's row keys whose materialized annotation changed
    (removed or revalued).
    """
    if not (node.base_names & removed.keys()):
        return set()
    query = node.query
    relation = node.relation
    if isinstance(query, RelationRef):
        affected = set()
        annotations = relation._annotations
        for key in removed.get(query.name, ()):
            if key in annotations:
                del annotations[key]
                affected.add(key)
        return affected
    if isinstance(query, Union):
        left, right = node.children
        affected = _delete_rederive(left, removed, semiring) | _delete_rederive(
            right, removed, semiring
        )
        changed = set()
        for key in affected:
            left_value = left.relation._rows.get(key)
            right_value = right.relation._rows.get(key)
            if left_value is None:
                value = right_value
            elif right_value is None:
                value = left_value
            else:
                value = semiring.add(left_value, right_value)
            if _refresh_value(relation, key, value, semiring):
                changed.add(key)
        return changed
    if isinstance(query, Project):
        child = node.children[0]
        child_changed = _delete_rederive(child, removed, semiring)
        if not child_changed:
            return set()
        restrict = _restriction(child.relation, relation)
        groups = {restrict(key) for key in child_changed}
        totals: Dict[tuple, Any] = {}
        for key, value in child.relation._rows.items():
            group = restrict(key)
            if group in groups:
                current = totals.get(group)
                totals[group] = value if current is None else semiring.add(current, value)
        return {
            group
            for group in groups
            if _refresh_value(relation, group, totals.get(group), semiring)
        }
    if isinstance(query, Select):
        child = node.children[0]
        tup_of = child.relation.schema.tup_of
        changed = set()
        for key in _delete_rederive(child, removed, semiring):
            value = child.relation._rows.get(key)
            if value is not None:
                value = semiring.mul(
                    value, operators.predicate_factor(semiring, query.predicate(tup_of(key)))
                )
            if _refresh_value(relation, key, value, semiring):
                changed.add(key)
        return changed
    if isinstance(query, Rename):
        child = node.children[0]
        order = operators._rename_order(child.relation.schema, relation.schema, query.mapping)
        changed = set()
        for key in _delete_rederive(child, removed, semiring):
            image = tuple([key[i] for i in order])
            value = child.relation._rows.get(key)
            if _refresh_value(relation, image, value, semiring):
                changed.add(image)
        return changed
    if isinstance(query, Join):
        left, right = node.children
        left_index, right_index = node.indexes
        left_changed = _delete_rederive(left, removed, semiring)
        left_index.sync(left_changed)
        right_changed = _delete_rederive(right, removed, semiring)
        right_index.sync(right_changed)
        # Every output key whose value may have changed joins a changed
        # child row with the other side's old state.  Old supports are
        # covered by (new support) ∪ (changed keys) on each side, so probing
        # each side's changed keys against the other side's index, plus the
        # changed-by-changed cross join, finds them all.
        affected: Dict[tuple, None] = {}
        for changed_keys, side in ((left_changed, 0), (right_changed, 1)):
            if changed_keys:
                affected.update((key, None) for key, _, _ in _probe(node, changed_keys, side))
        if left_changed and right_changed:
            # the probes carry annotation 1 so the join only enumerates keys
            affected.update(
                operators.join(
                    _keyed_probe(left.relation, left_changed, semiring),
                    _keyed_probe(right.relation, right_changed, semiring),
                )._rows
            )
        left_key = _restriction(relation, left.relation)
        right_key = _restriction(relation, right.relation)
        left_annotations = left.relation._rows
        right_annotations = right.relation._rows
        changed = set()
        for key in affected:
            left_value = left_annotations.get(left_key(key))
            right_value = right_annotations.get(right_key(key))
            value = (
                semiring.mul(left_value, right_value)
                if left_value is not None and right_value is not None
                else None
            )
            if _refresh_value(relation, key, value, semiring):
                changed.add(key)
        return changed
    raise QueryError(f"no deletion rule for {type(query).__name__}")


class MaterializedView:
    """A query result kept up to date under base-relation update streams.

    Parameters
    ----------
    query:
        Any positive-algebra :class:`~repro.algebra.ast.Query`.
    database:
        The database the view reads; :meth:`apply` keeps its base relations
        and the view in sync.
    name:
        Optional label used in ``repr``.

    Usage::

        view = MaterializedView(Q.relation("R").join(Q.relation("S")), db)
        changed = view.apply(UpdateBatch(insertions={"R": [((1, 2), 1)]}))
        view.relation          # the maintained K-relation

    ``apply`` returns the view tuples whose annotation changed, mapped to
    their new annotations (the semiring zero for tuples that left the
    support).
    """

    def __init__(self, query: Query, database: Database, *, name: str = "view"):
        self.query = query
        self.database = database
        self.name = name
        with _trace.span("view.build", view=name) as sp:
            self._root = _build(query, database)
            sp.set(rows=len(self._root.relation))
        #: ``"incremental"`` or ``"delete_rederive"`` -- how the last
        #: :meth:`apply` ran (``None`` before the first apply).
        self.last_apply_mode: str | None = None

    # -- state ------------------------------------------------------------------
    @property
    def relation(self) -> KRelation:
        """The maintained view contents (do not mutate in place)."""
        return self._root.relation

    @property
    def semiring(self):
        """The annotation semiring of the view."""
        return self.database.semiring

    @property
    def supports_deletions(self) -> bool:
        """Whether deletions propagate incrementally (ring annotations)."""
        return self.database.semiring.has_negation

    # -- maintenance -------------------------------------------------------------
    def apply(
        self, batch: UpdateBatch | Mapping[str, Any]
    ) -> Dict[Tup, Any]:
        """Apply an update batch to the base relations and the view.

        Insertions always propagate incrementally.  Batches containing
        deletions propagate as negated deltas when the semiring has negation,
        and through the targeted delete/rederive pass otherwise.  Returns the
        changed view tuples mapped to their new annotations (zero = removed).
        """
        batch = UpdateBatch.of(batch)
        if batch.is_empty():
            self.last_apply_mode = "incremental"
            return {}
        if batch.has_deletions and not self.supports_deletions:
            with _trace.span(
                "view.apply", view=self.name, mode="delete_rederive"
            ) as sp:
                changed = self._apply_by_delete_rederive(batch)
                sp.set(changed=len(changed), mode=self.last_apply_mode)
                return changed
        with _trace.span("view.apply", view=self.name, mode="incremental") as sp:
            deltas = batch_deltas(self.database, batch)
            _apply_batch(self.database, batch)
            changed: Dict[tuple, Any] = {}
            _propagate(self._root, deltas, changed)
            self.last_apply_mode = "incremental"
            sp.set(changed=len(changed))
            return self._changed_tuples(changed)

    def _changed_tuples(self, changed: Dict[tuple, Any]) -> Dict[Tup, Any]:
        """The changed view rows, handed out as :class:`Tup` objects."""
        tup_of = self._root.relation.schema.tup_of
        return {tup_of(key): value for key, value in changed.items()}

    def _apply_by_delete_rederive(self, batch: UpdateBatch) -> Dict[Tup, Any]:
        """Targeted deletion pass for semirings without negation.

        Deletions apply first and propagate through :func:`_delete_rederive`
        (affected keys only); insertions then follow the ordinary
        delta-propagation path.
        """
        changed: Dict[tuple, Any] = {}
        zero = self.semiring.zero()
        removed: Dict[str, set] = {}
        for name, rows in batch.deletions.items():
            base = self.database.relation(name)
            keys = {key for key in map(base._key, rows) if key in base._rows}
            if keys:
                removed[name] = keys
        if removed:
            _apply_batch(self.database, UpdateBatch(deletions=batch.deletions))
            affected = _delete_rederive(self._root, removed, self.semiring)
            annotations = self._root.relation._rows
            for key in affected:
                changed[key] = annotations.get(key, zero)
        if any(batch.insertions.values()):
            insertions = UpdateBatch(insertions=batch.insertions)
            deltas = batch_deltas(self.database, insertions)
            _apply_batch(self.database, insertions)
            _propagate(self._root, deltas, changed)
        self.last_apply_mode = "delete_rederive"
        return self._changed_tuples(changed)

    def refresh(self) -> KRelation:
        """Rebuild the whole view from the database (full recomputation)."""
        self._root = _build(self.query, self.database)
        return self._root.relation

    def __repr__(self) -> str:
        return (
            f"MaterializedView({self.name!r}, {self.semiring.name}, "
            f"{len(self._root.relation)} tuples)"
        )
