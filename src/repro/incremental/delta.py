"""Delta K-relations: update batches and change-valued deltas.

Because every positive-algebra operator is built from the semiring's ``+``
and ``.``, the operators are *bilinear* in their inputs: evaluating a query
over ``R + ΔR`` expands into the old result plus terms that each contain at
least one delta factor.  Collecting those terms gives the classic delta
rules of incremental view maintenance, here stated on K-relations:

* ``Δ(R1 ∪ R2) = ΔR1 ∪ ΔR2``
* ``Δ(π_V R) = π_V (ΔR)``
* ``Δ(σ_P R) = σ_P (ΔR)``
* ``Δ(ρ_β R) = ρ_β (ΔR)``
* ``Δ(R1 ⋈ R2) = (ΔR1 ⋈ R2) ∪ (R1 ⋈ ΔR2) ∪ (ΔR1 ⋈ ΔR2)``

where a *delta relation* is itself a K-relation whose annotations are the
**changes** to be ``+``-combined into the current annotations.  Insertions
are always expressible this way; deletions need the change ``-R(t)``, i.e.
additive inverses, which is why *delta-expressible* deletion is gated on
the semiring's ring capability (``has_negation`` -- the ``Z`` / ``Z[X]``
structures of :mod:`repro.semirings.integers`).  Deletions over other
semirings are still maintained incrementally, just not as deltas:
:class:`~repro.incremental.view.MaterializedView` runs a targeted
delete/rederive pass and :class:`~repro.incremental.datalog.IncrementalDatalog`
runs DRed (see those modules); only :func:`batch_deltas` here refuses
them.

:class:`~repro.incremental.view.MaterializedView` applies these rules to
its materialized operator nodes, using the equivalent two-term join rule
``ΔL ⋈ R_old ∪ L_new ⋈ ΔR`` so that no subquery is re-evaluated.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping

from repro.errors import SemiringError
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.tuples import Tup

__all__ = [
    "UpdateBatch",
    "apply_delta",
    "batch_deltas",
    "apply_batch_to_database",
]


class UpdateBatch:
    """One batch of base-relation updates: insertions and deletions.

    ``insertions`` maps a relation name to entries in the same shape
    :class:`~repro.relations.krelation.KRelation` accepts: ``(row, change)``
    pairs or bare rows (change ``1``).  The change value combines into the
    tuple's current annotation with the semiring's ``+`` -- over a ring a
    "negative" change is therefore a partial or full retraction.

    ``deletions`` maps a relation name to rows whose annotation should drop
    to zero (removing the tuple from the support).  Deleting a row that is
    not in the support is a no-op.

    Within one batch, deletions are applied before insertions.
    """

    __slots__ = ("insertions", "deletions")

    def __init__(
        self,
        insertions: Mapping[str, Iterable[Any]] | None = None,
        deletions: Mapping[str, Iterable[Any]] | None = None,
    ):
        self.insertions: Dict[str, tuple] = {
            name: tuple(entries) for name, entries in (insertions or {}).items()
        }
        self.deletions: Dict[str, tuple] = {
            name: tuple(rows) for name, rows in (deletions or {}).items()
        }

    @classmethod
    def of(cls, value: "UpdateBatch | Mapping[str, Iterable[Any]]") -> "UpdateBatch":
        """Coerce a plain ``{relation: entries}`` mapping (insertions only)."""
        if isinstance(value, UpdateBatch):
            return value
        return cls(insertions=value)

    @property
    def touched_relations(self) -> frozenset[str]:
        """Names of the base relations this batch updates."""
        return frozenset(self.insertions) | frozenset(self.deletions)

    @property
    def has_deletions(self) -> bool:
        """Whether the batch removes any tuple from a support."""
        return any(rows for rows in self.deletions.values())

    def is_empty(self) -> bool:
        """Whether the batch contains no updates at all."""
        return not any(self.insertions.values()) and not self.has_deletions

    def __repr__(self) -> str:
        inserted = sum(len(e) for e in self.insertions.values())
        deleted = sum(len(r) for r in self.deletions.values())
        return f"UpdateBatch({inserted} insertions, {deleted} deletions)"


def apply_delta(relation: KRelation, delta: KRelation) -> Dict[Tup, Any]:
    """Combine a change-valued ``delta`` into ``relation`` with the semiring ``+``.

    Returns the tuples whose annotation actually changed, mapped to their
    **new** annotations -- the semiring zero for tuples whose annotation was
    cancelled exactly (those are removed from the support, so the relation
    stays :meth:`~repro.relations.krelation.KRelation.check_consistency`
    clean).  Unlike :meth:`KRelation.merge_delta` the returned mapping can
    therefore report removals, which is what view maintenance needs.
    """
    tup_of = relation.schema.tup_of
    return {tup_of(key): value for key, value in _apply_delta(relation, delta).items()}


def _apply_delta(relation: KRelation, delta: KRelation) -> Dict[tuple, Any]:
    """:func:`apply_delta` on row keys: the changed rows' keys, mapped to
    their new annotations."""
    semiring = relation.semiring
    annotations = relation._annotations
    zero = semiring.zero()
    changed: Dict[tuple, Any] = {}
    for key, change in delta._rows.items():
        current = annotations.get(key)
        combined = change if current is None else semiring.add(current, change)
        if semiring.is_zero(combined):
            if current is not None:
                del annotations[key]
                changed[key] = zero
        elif combined != current:
            annotations[key] = combined
            changed[key] = combined
    return changed


def batch_deltas(database: Database, batch: UpdateBatch) -> Dict[str, KRelation]:
    """Translate an :class:`UpdateBatch` into change-valued delta relations.

    Insertions contribute their change values directly; a deletion of tuple
    ``t`` from ``R`` contributes ``-R(t)``, which requires the semiring to be
    a ring (``has_negation``).  Reads the *current* (pre-update) state of
    ``database``; raises :class:`SemiringError` when deletions are requested
    over a semiring without negation (callers route those through the
    delete/rederive pass instead).
    """
    semiring = database.semiring
    deltas: Dict[str, KRelation] = {}

    def delta_for(name: str) -> KRelation:
        if name not in deltas:
            deltas[name] = KRelation(semiring, database.relation(name).schema)
        return deltas[name]

    for name, rows in batch.deletions.items():
        if not rows:
            continue
        if not semiring.has_negation:
            raise SemiringError(
                f"deletions need additive inverses, but {semiring.name} is not "
                "a ring (has_negation is False); use Z / Z[X] annotations or "
                "recompute the view"
            )
        relation = database.relation(name)
        delta = delta_for(name)
        seen: set[tuple] = set()
        for row in rows:
            key = relation._key(row)
            if key in seen:
                continue
            seen.add(key)
            current = relation._rows.get(key)
            if current is not None:
                delta._accumulate(key, semiring.coerce(semiring.negate(current)))
    for name, entries in batch.insertions.items():
        if not entries:
            continue
        relation = database.relation(name)
        delta = delta_for(name)
        for entry in entries:
            row, change = relation._split_entry(entry)
            delta._add(row, change)
    return deltas


def apply_batch_to_database(
    database: Database, batch: UpdateBatch
) -> Dict[str, Dict[Tup, Any]]:
    """Apply ``batch`` to the base relations of ``database`` in place.

    Deletions first (support removal), then insertions (``+``-combined, with
    exact cancellations dropping tuples from the support).  Works in every
    semiring -- no negation needed, since deletions mutate the stored
    annotation directly rather than going through a delta value.  Returns,
    per touched relation, the tuples whose annotation changed mapped to
    their new annotations (the semiring zero for removed tuples).
    """
    changed = _apply_batch(database, batch)
    return {
        name: {
            database.relation(name).schema.tup_of(key): value
            for key, value in delta.items()
        }
        for name, delta in changed.items()
    }


def _apply_batch(database: Database, batch: UpdateBatch) -> Dict[str, Dict[tuple, Any]]:
    """:func:`apply_batch_to_database` reporting the changed rows by row key."""
    changed: Dict[str, Dict[tuple, Any]] = {}
    for name in sorted(batch.touched_relations):
        relation = database.relation(name)
        semiring = relation.semiring
        zero = semiring.zero()
        before: Dict[tuple, Any] = {}
        annotations = relation._annotations
        for row in batch.deletions.get(name, ()):
            key = relation._key(row)
            if key in annotations:
                before.setdefault(key, annotations[key])
                del annotations[key]
        for entry in batch.insertions.get(name, ()):
            row, change = relation._split_entry(entry)
            key = relation._key(row)
            before.setdefault(key, annotations.get(key, zero))
            value = semiring.coerce(change)
            current = annotations.get(key)
            combined = value if current is None else semiring.add(current, value)
            if semiring.is_zero(combined):
                annotations.pop(key, None)
            else:
                annotations[key] = combined
        delta = {
            key: annotations.get(key, zero)
            for key, old in before.items()
            if annotations.get(key, zero) != old
        }
        if delta:
            changed[name] = delta
    return changed
