"""K-relations: relations whose tuples are annotated with semiring elements.

Definition 3.1 of the paper: a K-relation over attributes ``U`` is a function
``R : U-Tup -> K`` with finite support, where the support is the set of
tuples with non-zero annotation.  :class:`KRelation` stores exactly the
support as a dictionary from :class:`~repro.relations.tuples.Tup` to
annotation; every tuple not stored is implicitly annotated ``0``.

The relational-algebra operators of Definition 3.2 live in
:mod:`repro.algebra.operators`; :class:`KRelation` exposes them as
convenience methods (``union``, ``project``, ``select``, ``join``,
``rename``) so that small programs and the examples read naturally.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Iterable, Iterator, MutableMapping, Tuple

from repro.errors import SchemaError, SemiringError
from repro.relations.schema import Schema
from repro.relations.storage import RowStore, make_store, resolve_storage_kind
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring

__all__ = ["KRelation"]

_MISSING = object()

RowLike = Any  # a Tup, a mapping, or a sequence of values in schema order


class KRelation:
    """A finite-support map from tuples to annotations in a fixed semiring.

    Parameters
    ----------
    semiring:
        The annotation semiring ``K``.
    schema:
        The attribute set ``U`` (a :class:`Schema` or an iterable of names).
    rows:
        Optional initial contents: an iterable of ``(row, annotation)``
        pairs, or of bare rows (annotated with ``1``).  Rows may be
        :class:`Tup` objects, mappings, or value sequences in schema order.
    storage:
        The physical backend: ``"row"`` (dict-of-``Tup``, the default),
        ``"columnar"`` (per-attribute value arrays plus a parallel
        annotation array; see :mod:`repro.relations.storage`), or an
        already-populated :class:`~repro.relations.storage.RowStore` to
        adopt as-is.  ``None`` defers to the ``REPRO_STORAGE`` environment
        variable.
    """

    def __init__(
        self,
        semiring: Semiring,
        schema: Schema | Iterable[str],
        rows: Iterable[Any] = (),
        *,
        storage: Any = None,
    ):
        self.semiring = semiring
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        if isinstance(storage, RowStore):
            self._store = storage
        else:
            self._store = make_store(
                resolve_storage_kind(storage),
                sorted(self.schema.attribute_set),
            )
        for entry in rows:
            row, annotation = self._split_entry(entry)
            self.add(row, annotation)

    @property
    def storage(self) -> str:
        """The physical backend kind (``"row"`` or ``"columnar"``)."""
        return self._store.kind

    @property
    def _annotations(self) -> MutableMapping[Tup, Any]:
        """Dict-compatible view of the stored ``{Tup: annotation}`` contents.

        For the row backend this *is* the backing dictionary; the columnar
        backend returns a mutable adapter over its parallel arrays.  Writes
        through this view are raw (no zero/carrier checks) -- it exists so
        the engine's internal fast paths work identically on any backend.
        """
        return self._store.mapping()

    # -- construction helpers --------------------------------------------------
    def _split_entry(self, entry: Any) -> tuple[Any, Any]:
        if (
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], (Tup, Mapping, tuple, list))
            and not isinstance(entry[0], str)
        ):
            return entry[0], entry[1]
        return entry, self.semiring.one()

    def _coerce_tuple(self, row: RowLike) -> Tup:
        if isinstance(row, Tup):
            candidate = row
        elif isinstance(row, Mapping):
            candidate = Tup(row)
        elif isinstance(row, (tuple, list)):
            candidate = Tup.from_values(self.schema.attributes, row)
        else:
            raise SchemaError(f"cannot interpret {row!r} as a tuple over {self.schema}")
        if candidate.attributes != self.schema.attribute_set:
            raise SchemaError(
                f"tuple {candidate} does not match schema {self.schema}"
            )
        return candidate

    @classmethod
    def from_dict(
        cls,
        semiring: Semiring,
        schema: Schema | Iterable[str],
        annotations: Mapping[Any, Any],
    ) -> "KRelation":
        """Build a relation from a ``{row: annotation}`` mapping."""
        return cls(semiring, schema, annotations.items())

    def empty_like(self) -> "KRelation":
        """A fresh empty relation with the same semiring, schema and backend."""
        return KRelation(self.semiring, self.schema, storage=self._store.kind)

    def copy(self) -> "KRelation":
        """A shallow copy (annotations are immutable values, so this is safe)."""
        return KRelation(self.semiring, self.schema, storage=self._store.copy())

    def with_storage(self, storage: Any) -> "KRelation":
        """The same relation converted to another physical backend.

        Always returns a new relation (a plain copy when the backend is
        already the requested one), so callers can mutate the result freely.
        """
        kind = resolve_storage_kind(storage)
        if kind == self._store.kind:
            return self.copy()
        result = KRelation(self.semiring, self.schema, storage=kind)
        store = result._store
        for tup, annotation in self._store.items():
            store.set(tup, annotation)
        return result

    # -- mutation ---------------------------------------------------------------
    def add(self, row: RowLike, annotation: Any | None = None) -> Tup:
        """Add ``annotation`` (default ``1``) to the tuple's current annotation.

        Following Definition 3.2's treatment of union/projection, annotations
        of the same tuple combine with the semiring's ``+``.  Returns the
        canonical :class:`Tup` that was updated.
        """
        tup = self._coerce_tuple(row)
        value = (
            self.semiring.one()
            if annotation is None
            else self.semiring.coerce(annotation)
        )
        store = self._store
        current = store.get(tup)
        if current is None:
            combined = value
        else:
            combined = self.semiring.add(current, value)
        if self.semiring.is_zero(combined):
            store.discard(tup)
        else:
            store.set(tup, combined)
        return tup

    def set(self, row: RowLike, annotation: Any) -> Tup:
        """Overwrite the annotation of a tuple (removing it when set to zero)."""
        tup = self._coerce_tuple(row)
        value = self.semiring.coerce(annotation)
        if self.semiring.is_zero(value):
            self._store.discard(tup)
        else:
            self._store.set(tup, value)
        return tup

    def _accumulate(self, tup: Tup, value: Any) -> None:
        """Internal fast path for the algebra operators: ``add`` without coercion.

        ``tup`` must already be a canonical :class:`Tup` over this schema and
        ``value`` a carrier element (both hold by construction inside
        :mod:`repro.algebra.operators`, where every value comes out of this
        semiring's own operations).  Skipping the per-tuple validation is a
        measurable win on join/projection hot paths.
        """
        store = self._store
        current = store.get(tup)
        if current is not None:
            value = self.semiring.add(current, value)
        if self.semiring.is_zero(value):
            store.discard(tup)
        else:
            store.set(tup, value)

    def merge_delta(self, updates: Iterable[Tuple[Tup, Any]]) -> "KRelation":
        """Accumulate ``updates`` into the relation and return the *delta*.

        Each ``(tup, value)`` pair is added (semiring ``+``) into the current
        annotation of ``tup``.  The returned relation holds exactly the tuples
        whose annotation changed, mapped to their **new** annotations -- the
        delta a semi-naive fixpoint round must re-fire on.  Tuples whose
        annotation is unchanged (e.g. idempotent re-derivations) are absent
        from the delta, so a fixpoint driver can stop as soon as a merge
        returns an empty relation.

        Updates that cancel an annotation exactly to zero (possible when the
        semiring has negation) remove the tuple from the support, keeping the
        stored-zero invariant of Definition 3.1; since a K-relation cannot
        carry a zero annotation, such cancelled tuples are absent from the
        returned delta (callers that must observe removals, like the
        incremental view layer, use :func:`repro.incremental.apply_delta`).

        Like :meth:`_accumulate` this is a fast path: ``tup`` must be a
        canonical :class:`Tup` over this schema and ``value`` a carrier
        element (both hold inside the datalog engines, where every value
        comes out of this semiring's own operations).
        """
        semiring = self.semiring
        store = self._store
        delta = self.empty_like()
        delta_store = delta._store
        for tup, value in updates:
            current = store.get(tup)
            combined = value if current is None else semiring.add(current, value)
            if current is None and semiring.is_zero(combined):
                continue
            if combined != current:
                if semiring.is_zero(combined):
                    store.discard(tup)
                    # an earlier update of this batch may have reported it
                    delta_store.discard(tup)
                else:
                    store.set(tup, combined)
                    delta_store.set(tup, combined)
        return delta

    def discard(self, row: RowLike) -> None:
        """Remove a tuple from the support (set its annotation to zero)."""
        tup = self._coerce_tuple(row)
        self._store.discard(tup)

    # -- access -----------------------------------------------------------------
    def annotation(self, row: RowLike) -> Any:
        """The annotation of ``row`` (the semiring zero when not in the support)."""
        tup = self._coerce_tuple(row)
        value = self._store.get(tup, _MISSING)
        return self.semiring.zero() if value is _MISSING else value

    __call__ = annotation

    def __getitem__(self, row: RowLike) -> Any:
        return self.annotation(row)

    @property
    def support(self) -> frozenset[Tup]:
        """The tuples with non-zero annotation (Definition 3.1)."""
        return frozenset(self._store)

    def items(self) -> Iterator[Tuple[Tup, Any]]:
        """Iterate over (tuple, annotation) pairs of the support."""
        return iter(self._store.items())

    def annotations(self) -> Iterator[Any]:
        """Iterate over the non-zero annotations."""
        return iter(self._store.values())

    def __iter__(self) -> Iterator[Tup]:
        return iter(self._store)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, row: RowLike) -> bool:
        try:
            tup = self._coerce_tuple(row)
        except SchemaError:
            return False
        return tup in self._store

    def __bool__(self) -> bool:
        return len(self._store) > 0

    # -- semiring-aware transformations ------------------------------------------
    def map_annotations(
        self,
        function: Callable[[Any], Any],
        target_semiring: Semiring | None = None,
    ) -> "KRelation":
        """Apply ``function`` to every annotation, optionally changing semiring.

        This is the tuple-wise transformation of Proposition 3.5; it commutes
        with queries exactly when ``function`` is a semiring homomorphism.
        Tuples whose image is zero are dropped ("the support may shrink but
        never increase").
        """
        semiring = target_semiring or self.semiring
        result = KRelation(semiring, self.schema, storage=self._store.kind)
        result_store = result._store
        for tup, annotation in self._store.items():
            value = semiring.coerce(function(annotation))
            if not semiring.is_zero(value):
                result_store.set(tup, value)
        return result

    def to_semiring(
        self, target: Semiring, conversion: Callable[[Any], Any] | None = None
    ) -> "KRelation":
        """Reinterpret the relation in another semiring.

        Without an explicit ``conversion`` the annotations are passed to the
        target's :meth:`~repro.semirings.base.Semiring.coerce` (useful e.g.
        for reading an ``N``-relation as an ``N-inf``-relation, as the paper
        does before running datalog).
        """
        return self.map_annotations(conversion or target.coerce, target)

    # -- relational algebra (thin wrappers over repro.algebra.operators) --------
    def union(self, other: "KRelation") -> "KRelation":
        """Union (Definition 3.2): annotations of shared tuples are added."""
        from repro.algebra import operators

        return operators.union(self, other)

    def project(self, attributes: Iterable[str]) -> "KRelation":
        """Projection onto ``attributes``, summing annotations of merged tuples."""
        from repro.algebra import operators

        return operators.project(self, attributes)

    def select(self, predicate: Callable[[Tup], Any]) -> "KRelation":
        """Selection by a {0,1}-valued predicate (annotations multiplied)."""
        from repro.algebra import operators

        return operators.select(self, predicate)

    def join(self, other: "KRelation") -> "KRelation":
        """Natural join: annotations of joinable tuples are multiplied."""
        from repro.algebra import operators

        return operators.join(self, other)

    def rename(self, mapping: Mapping[str, str]) -> "KRelation":
        """Attribute renaming by a bijection."""
        from repro.algebra import operators

        return operators.rename(self, mapping)

    # -- comparisons --------------------------------------------------------------
    def _require_same_semiring(self, other: "KRelation", operation: str) -> None:
        """Comparisons across semirings are type errors, not inequalities.

        Annotations from different semirings can be structurally equal as
        Python values (``N``'s ``2`` vs Tropical's ``2.0``) while meaning
        entirely different things, and ``leq`` applied to foreign carrier
        values is undefined -- so mixing semirings raises instead of
        silently answering.
        """
        if self.semiring.name != other.semiring.name:
            raise SemiringError(
                f"cannot {operation} relations over different semirings "
                f"({self.semiring.name} vs {other.semiring.name})"
            )

    def equal_to(self, other: "KRelation") -> bool:
        """Annotation-wise equality of two relations over the same schema.

        Raises :class:`~repro.errors.SemiringError` when the relations are
        annotated in different semirings (see :meth:`_require_same_semiring`).
        """
        if not isinstance(other, KRelation):
            return False
        self._require_same_semiring(other, "compare")
        if self.schema.attribute_set != other.schema.attribute_set:
            return False
        # Store-aware comparison (the two relations may use different
        # physical backends): same support, equal annotations tuple-wise.
        if len(self._store) != len(other._store):
            return False
        other_get = other._store.get
        for tup, annotation in self._store.items():
            theirs = other_get(tup, _MISSING)
            if theirs is _MISSING:
                return False
            if theirs is not annotation and theirs != annotation:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KRelation):
            return NotImplemented
        # ``==`` must not raise (relations end up in assertion messages and
        # container lookups); cross-semiring relations are simply unequal.
        if self.semiring.name != other.semiring.name:
            return False
        return self.equal_to(other)

    # K-relations are mutable containers (``add``/``merge_delta`` change the
    # annotation dictionary in place), so they must not be usable as dict or
    # set keys: a hash derived from ``_annotations`` silently goes stale
    # after insertion.  Defining ``__eq__`` alone would already reset this to
    # None; the explicit assignment documents that the unhashability is
    # deliberate.
    __hash__ = None

    def contained_in(self, other: "KRelation") -> bool:
        """Annotation-wise containment in the semiring's natural order.

        Raises :class:`~repro.errors.SemiringError` when the relations are
        annotated in different semirings -- ``leq`` is only defined on this
        semiring's own carrier.
        """
        self._require_same_semiring(other, "compare")
        if self.schema.attribute_set != other.schema.attribute_set:
            raise SchemaError("containment requires union-compatible relations")
        leq = self.semiring.leq
        for tup in set(self._store) | set(other._store):
            if not leq(self.annotation(tup), other.annotation(tup)):
                return False
        return True

    # -- display -------------------------------------------------------------------
    def to_table(self, sort: bool = True, *, max_annotation_width: int | None = None) -> str:
        """Human-readable table of the support with annotations.

        ``max_annotation_width`` summarizes oversized annotations (see
        :func:`repro.relations.display.format_relation`).
        """
        from repro.relations.display import format_relation

        return format_relation(
            self, sort=sort, max_annotation_width=max_annotation_width
        )

    def __repr__(self) -> str:
        return (
            f"KRelation({self.semiring.name}, {list(self.schema.attributes)}, "
            f"{len(self._store)} tuples)"
        )

    def __str__(self) -> str:
        return self.to_table()

    # -- misc -----------------------------------------------------------------------
    def total_annotation(self) -> Any:
        """The sum of all annotations (e.g. total multiplicity under bags)."""
        return self.semiring.sum(self._store.values())

    def check_consistency(self) -> None:
        """Validate the Definition 3.1 invariants on any storage backend.

        Every stored annotation must be a non-zero carrier element (a stored
        zero violates the finite-support representation), and the backend's
        own layout invariants must hold (for the columnar store: parallel
        arrays in sync with the tuple index).
        """
        for tup, annotation in self._store.items():
            if not self.semiring.contains(annotation):
                raise SemiringError(
                    f"annotation {annotation!r} of {tup} is not in {self.semiring.name}"
                )
            if self.semiring.is_zero(annotation):
                raise SemiringError(f"stored zero annotation for {tup}")
        self._store.check(tuple(sorted(self.schema.attribute_set)))
