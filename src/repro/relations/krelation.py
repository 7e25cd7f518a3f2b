"""K-relations: relations whose tuples are annotated with semiring elements.

Definition 3.1 of the paper: a K-relation over attributes ``U`` is a function
``R : U-Tup -> K`` with finite support, where the support is the set of
tuples with non-zero annotation.  :class:`KRelation` stores exactly the
support as a dictionary from row key to annotation -- a row key is the
tuple's values in the schema's key order (its sorted attribute names, see
:class:`~repro.relations.schema.Schema`) -- and every tuple not stored is
implicitly annotated ``0``.  :class:`~repro.relations.tuples.Tup` objects
are built only where a row is handed to a caller.

The relational-algebra operators of Definition 3.2 live in
:mod:`repro.algebra.operators`; :class:`KRelation` exposes them as
convenience methods (``union``, ``project``, ``select``, ``join``,
``rename``) so that small programs and the examples read naturally.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterable, Iterator, Tuple

from repro.errors import SchemaError, SemiringError
from repro.relations import tuples as _tuples
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring

__all__ = ["KRelation", "check_keys"]

_MISSING = object()

RowLike = Any  # a Tup, a mapping, or a sequence of values in schema order


def check_keys(keys: Iterable[Any], schema: Schema) -> None:
    """Under ``REPRO_DEBUG_TUPLES=1``, reject a row key that is not a tuple
    of ``schema``'s arity.

    The engines write row keys straight into a relation's store, skipping
    the per-row checks of the mutators; every such writer passes its keys
    here (a no-op unless the flag is set; tests flip
    ``repro.relations.tuples._DEBUG_TUPLES``).
    """
    if not _tuples._DEBUG_TUPLES:
        return
    arity = len(schema)
    for key in keys:
        if type(key) is not tuple or len(key) != arity:
            raise SchemaError(
                f"row key {key!r} is not a tuple of {arity} values over {schema}"
            )


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

    The support lives in one ``{row key: annotation}`` dictionary, ``_rows``:
    each key is the row's values in the schema's key order (sorted
    attribute names), so ``1``, ``1.0`` and ``True`` are one value, as they
    are in a :class:`Tup`.  Reads and mutators accept rows in any of the
    forms above; :meth:`items`, iteration, :attr:`support` and the returns
    of :meth:`add` / :meth:`set` hand out :class:`Tup` objects.  Two caches
    are derived from the store: :mod:`repro.engine.vectorized` keeps a
    column encoding in ``_scan_cache``, which the whole-column kernels scan
    under every semiring, and :func:`repro.circuits.evaluate.specialize`
    keeps the circuit annotations' level program in ``_circuit_program``.
    Every mutator below drops both (:meth:`_drop_caches`), and so does
    reading :attr:`_annotations`, since the raw dictionary it hands out
    licenses writes the relation cannot see.  Pickling drops them too.
    """

    def __init__(
        self,
        semiring: Semiring,
        schema: Schema | Iterable[str],
        rows: Iterable[Any] = (),
    ):
        self.semiring = semiring
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._rows: Dict[tuple, Any] = {}
        self._drop_caches()
        if rows != ():
            self._load(rows)

    def _load(self, rows: Iterable[Any]) -> None:
        """Bulk-load ``(row, annotation)`` pairs or bare rows in one pass:
        :meth:`add` per row, without its per-row call overhead."""
        semiring = self.semiring
        add, is_zero, coerce = semiring.add, semiring.is_zero, semiring.coerce
        split, key_of, store = self._split_entry, self._key, self._rows
        for entry in rows:
            row, annotation = split(entry)
            key, value = key_of(row), coerce(annotation)
            current = store.get(key)
            if current is not None:
                value = add(current, value)
            if is_zero(value):
                store.pop(key, None)
            else:
                store[key] = value
        check_keys(store, self.schema)

    def __getstate__(self) -> dict:
        # The caches may hold numpy arrays and are rebuilt on demand.
        self._drop_caches()
        return self.__dict__.copy()

    def _drop_caches(self) -> None:
        """Forget what was derived from ``_rows``: the column encoding of
        :mod:`repro.engine.vectorized` and the level program of
        :func:`repro.circuits.evaluate.specialize` are valid only until the
        next mutation."""
        self._scan_cache = self._circuit_program = None

    @property
    def _annotations(self) -> Dict[tuple, Any]:
        """The stored ``{row key: annotation}`` dictionary itself.

        Writes through it are raw (no zero/carrier checks) -- it exists for
        the engines' internal fast paths, which read and write row keys in
        the schema's key order.  Handing it out drops the caches, so a
        caller must not keep the dictionary across a vectorized scan or a
        ``specialize`` of this relation and write to it afterwards.
        """
        self._drop_caches()
        return self._rows

    # -- construction helpers --------------------------------------------------
    def _split_entry(self, entry: Any) -> tuple[Any, Any]:
        if (
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], (Tup, Mapping, tuple, list))
        ):
            return entry[0], entry[1]
        return entry, self.semiring.one()

    def _key(self, row: RowLike) -> tuple:
        """The row key of ``row``: a :class:`Tup`, a mapping or a value
        sequence in schema order (raises :class:`SchemaError` otherwise)."""
        schema = self.schema
        if isinstance(row, (tuple, list)):
            if len(row) != len(schema._attributes):
                raise SchemaError(
                    f"{len(row)} values for {len(schema._attributes)} attributes"
                )
            return schema.key_of(row)
        if isinstance(row, Mapping):
            row = Tup(row)
        elif not isinstance(row, Tup):
            raise SchemaError(f"cannot interpret {row!r} as a tuple over {schema}")
        items = row._items
        if tuple([attribute for attribute, _ in items]) != schema._sorted:
            raise SchemaError(f"tuple {row} does not match schema {schema}")
        return tuple([value for _, value in items])

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
        """A fresh empty relation with the same semiring and schema."""
        return KRelation(self.semiring, self.schema)

    def copy(self) -> "KRelation":
        """A shallow copy (annotations are immutable values, so this is safe)."""
        clone = KRelation(self.semiring, self.schema)
        clone._rows = dict(self._rows)
        return clone

    # -- mutation ---------------------------------------------------------------
    def add(self, row: RowLike, annotation: Any | None = None) -> Tup:
        """Add ``annotation`` (default ``1``) to the tuple's current annotation.

        Following Definition 3.2's treatment of union/projection, annotations
        of the same tuple combine with the semiring's ``+``.  Returns the
        canonical :class:`Tup` that was updated.
        """
        return self.schema.tup_of(self._add(row, annotation))

    def _add(self, row: RowLike, annotation: Any | None = None) -> tuple:
        """:meth:`add`, returning the row key instead of a :class:`Tup`."""
        key = self._key(row)
        value = (
            self.semiring.one()
            if annotation is None
            else self.semiring.coerce(annotation)
        )
        self._accumulate(key, value)
        return key

    def set(self, row: RowLike, annotation: Any) -> Tup:
        """Overwrite the annotation of a tuple (removing it when set to zero)."""
        return self.schema.tup_of(self._set(row, annotation))

    def _set(self, row: RowLike, annotation: Any) -> tuple:
        """:meth:`set`, returning the row key instead of a :class:`Tup`."""
        key = self._key(row)
        value = self.semiring.coerce(annotation)
        self._drop_caches()
        if self.semiring.is_zero(value):
            self._rows.pop(key, None)
        else:
            self._rows[key] = value
        return key

    def _accumulate(self, key: tuple, value: Any) -> None:
        """Internal fast path for the algebra operators: ``add`` without coercion.

        ``key`` must already be a row key over this schema and ``value`` a
        carrier element (both hold by construction inside
        :mod:`repro.algebra.operators`, where every value comes out of this
        semiring's own operations).
        """
        self._drop_caches()
        rows = self._rows
        current = rows.get(key)
        if current is not None:
            value = self.semiring.add(current, value)
        if self.semiring.is_zero(value):
            rows.pop(key, None)
        else:
            rows[key] = value

    def merge_delta(self, updates: Iterable[Tuple[RowLike, Any]]) -> "KRelation":
        """Accumulate ``updates`` into the relation and return the *delta*.

        Each ``(row, value)`` pair is added (semiring ``+``) into the current
        annotation of ``row``.  The returned relation holds exactly the tuples
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

        Rows may take any form :meth:`add` accepts; ``value`` must be a
        carrier element (it is not coerced).  The engines merge row keys
        directly with :meth:`_merge_keys`.
        """
        key = self._key
        return self._merge_keys([(key(row), value) for row, value in updates])

    def _merge_keys(self, updates: Iterable[Tuple[tuple, Any]]) -> "KRelation":
        """:meth:`merge_delta` on row keys: the datalog engines' merge.

        Every key must be a row key over this schema and every value a
        carrier element (both hold inside the engines, where every value
        comes out of this semiring's own operations);
        ``REPRO_DEBUG_TUPLES=1`` checks the keys.
        """
        semiring = self.semiring
        self._drop_caches()
        rows = self._rows
        delta = self.empty_like()
        delta_rows = delta._rows
        debug = _tuples._DEBUG_TUPLES
        for key, value in updates:
            if debug:
                check_keys((key,), self.schema)
            current = rows.get(key)
            combined = value if current is None else semiring.add(current, value)
            if current is None and semiring.is_zero(combined):
                continue
            if combined != current:
                if semiring.is_zero(combined):
                    del rows[key]
                    # an earlier update of this batch may have reported it
                    delta_rows.pop(key, None)
                else:
                    rows[key] = combined
                    delta_rows[key] = combined
        return delta

    def discard(self, row: RowLike) -> None:
        """Remove a tuple from the support (set its annotation to zero)."""
        key = self._key(row)
        self._drop_caches()
        self._rows.pop(key, None)

    # -- access -----------------------------------------------------------------
    def annotation(self, row: RowLike) -> Any:
        """The annotation of ``row`` (the semiring zero when not in the support)."""
        value = self._rows.get(self._key(row), _MISSING)
        return self.semiring.zero() if value is _MISSING else value

    __call__ = annotation

    def __getitem__(self, row: RowLike) -> Any:
        return self.annotation(row)

    @property
    def support(self) -> frozenset[Tup]:
        """The tuples with non-zero annotation (Definition 3.1)."""
        return frozenset(self)

    def items(self) -> Iterator[Tuple[Tup, Any]]:
        """Iterate over (tuple, annotation) pairs of the support."""
        tup_of = self.schema.tup_of
        return ((tup_of(key), value) for key, value in self._rows.items())

    def annotations(self) -> Iterator[Any]:
        """Iterate over the non-zero annotations."""
        return iter(self._rows.values())

    def __iter__(self) -> Iterator[Tup]:
        return map(self.schema.tup_of, self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: RowLike) -> bool:
        try:
            key = self._key(row)
        except SchemaError:
            return False
        return key in self._rows

    def __bool__(self) -> bool:
        return len(self._rows) > 0

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
        result = KRelation(semiring, self.schema)
        result_rows = result._rows
        for key, annotation in self._rows.items():
            value = semiring.coerce(function(annotation))
            if not semiring.is_zero(value):
                result_rows[key] = value
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
        # Same support, equal annotations tuple-wise.
        if len(self._rows) != len(other._rows):
            return False
        other_get = other._rows.get
        for key, annotation in self._rows.items():
            theirs = other_get(key, _MISSING)
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
        leq, zero = self.semiring.leq, self.semiring.zero
        mine, theirs = self._rows, other._rows
        for key in mine.keys() | theirs.keys():
            left, right = mine.get(key, _MISSING), theirs.get(key, _MISSING)
            if not leq(
                zero() if left is _MISSING else left,
                zero() if right is _MISSING else right,
            ):
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
            f"{len(self._rows)} tuples)"
        )

    def __str__(self) -> str:
        return self.to_table()

    # -- misc -----------------------------------------------------------------------
    def total_annotation(self) -> Any:
        """The sum of all annotations (e.g. total multiplicity under bags)."""
        return self.semiring.sum(self._rows.values())

    def check_consistency(self) -> None:
        """Validate the Definition 3.1 invariants.

        Every stored annotation must be a non-zero carrier element (a stored
        zero violates the finite-support representation).
        """
        for key, annotation in self._rows.items():
            if not self.semiring.contains(annotation):
                raise SemiringError(
                    f"annotation {annotation!r} of {self.schema.tup_of(key)} "
                    f"is not in {self.semiring.name}"
                )
            if self.semiring.is_zero(annotation):
                raise SemiringError(f"stored zero annotation for {self.schema.tup_of(key)}")
