"""Row stores: pluggable physical storage backends for K-relations.

A :class:`~repro.relations.krelation.KRelation` is *logically* a finite-
support map ``Tup -> K`` (Definition 3.1); this module separates that logic
from its physical layout.  Two backends implement the :class:`RowStore`
protocol:

* :class:`DictRowStore` (kind ``"row"``, the default) -- the original
  dict-of-``Tup`` layout.  Zero overhead over a plain dictionary: its
  :meth:`~RowStore.mapping` view *is* the underlying dict.
* :class:`ColumnarRowStore` (kind ``"columnar"``) -- one value array per
  attribute plus a parallel annotation array, with a ``Tup -> position``
  index for point lookups and swap-with-last deletion.  The column arrays
  are plain Python lists of carrier values (contiguous object references;
  circuit annotations are hash-consed ``Node`` references, i.e. interned
  node ids), which the vectorized kernels in :mod:`repro.engine.vectorized`
  lift into ``numpy`` arrays (``int64``/``float64``/``bool`` for the
  numeric semirings N, Z, Tropical and B, ``object`` for attribute
  columns) without per-tuple dispatch.

Backend selection: ``KRelation(..., storage="columnar")`` explicitly, or
process-wide via the ``REPRO_STORAGE`` environment variable (``"row"`` or
``"columnar"``).  Every store keeps the same observable contract -- same
iteration of ``(tup, annotation)`` pairs, same point lookups -- so the
whole engine stack runs unchanged on either backend.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Iterator, MutableMapping, Tuple

from repro.errors import SchemaError, SemiringError
from repro.relations.tuples import Tup

__all__ = [
    "STORAGE_ENV",
    "STORAGE_KINDS",
    "RowStore",
    "DictRowStore",
    "ColumnarRowStore",
    "resolve_storage_kind",
    "make_store",
]

#: Environment variable selecting the process-wide default backend.
STORAGE_ENV = "REPRO_STORAGE"

#: The registered backend kinds.
STORAGE_KINDS = ("row", "columnar")

_MISSING = object()


def resolve_storage_kind(storage: Any = None) -> str:
    """Normalize a ``storage=`` argument (or the environment) to a kind name.

    ``None`` defers to ``$REPRO_STORAGE`` (default ``"row"``); strings are
    validated against :data:`STORAGE_KINDS`; a :class:`RowStore` instance
    resolves to its own kind.
    """
    if storage is None:
        storage = os.environ.get(STORAGE_ENV) or "row"
    if isinstance(storage, RowStore):
        return storage.kind
    kind = str(storage).strip().lower()
    if kind in ("dict", "rows"):
        kind = "row"
    if kind in ("column", "col", "columns"):
        kind = "columnar"
    if kind not in STORAGE_KINDS:
        raise SchemaError(
            f"unknown storage backend {storage!r}; expected one of {STORAGE_KINDS}"
        )
    return kind


def make_store(kind: str, attributes: Iterable[str]) -> "RowStore":
    """Instantiate a fresh store of ``kind`` over sorted ``attributes``."""
    if kind == "columnar":
        return ColumnarRowStore(attributes)
    return DictRowStore()


class RowStore:
    """The storage protocol behind :class:`KRelation`.

    Keys are canonical :class:`Tup` objects, values are non-zero carrier
    elements of the relation's semiring -- the store itself is
    semiring-agnostic and performs **no** validation (the relation layer
    owns the stored-zero invariant; :meth:`check` only audits layout
    invariants after the fact).
    """

    kind: str = "abstract"

    # -- point access ---------------------------------------------------------
    def get(self, tup: Tup, default: Any = None) -> Any:
        raise NotImplementedError

    def set(self, tup: Tup, value: Any) -> None:
        """Insert or overwrite, unconditionally (no zero handling here)."""
        raise NotImplementedError

    def discard(self, tup: Tup) -> bool:
        """Remove ``tup`` if present; return whether it was stored."""
        raise NotImplementedError

    def extend_rows(self, tuples: list, columns: Iterable[list], annotations: list) -> None:
        """Bulk-append pre-aligned rows (the vectorized materialize paths).

        ``tuples`` must be canonical, distinct and absent from the store;
        ``columns`` are per-attribute value lists in the store's attribute
        order, parallel to ``tuples`` and ``annotations`` -- a backend that
        keeps no columns ignores them.
        """
        raise NotImplementedError

    # -- bulk access ----------------------------------------------------------
    def items(self) -> Iterable[Tuple[Tup, Any]]:
        raise NotImplementedError

    def values(self) -> Iterable[Any]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Tup]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, tup: Tup) -> bool:
        return self.get(tup, _MISSING) is not _MISSING

    def copy(self) -> "RowStore":
        raise NotImplementedError

    def mapping(self) -> MutableMapping[Tup, Any]:
        """A dict-compatible mutable view of the store's contents."""
        raise NotImplementedError

    def check(self, attributes: Tuple[str, ...]) -> None:
        """Audit backend layout invariants (cheap no-op for the dict store)."""


class DictRowStore(RowStore):
    """The default backend: a plain ``{Tup: annotation}`` dictionary."""

    kind = "row"
    __slots__ = ("data",)

    def __init__(self, data: dict | None = None):
        self.data: dict = {} if data is None else data

    def get(self, tup: Tup, default: Any = None) -> Any:
        return self.data.get(tup, default)

    def set(self, tup: Tup, value: Any) -> None:
        self.data[tup] = value

    def discard(self, tup: Tup) -> bool:
        return self.data.pop(tup, _MISSING) is not _MISSING

    def extend_rows(self, tuples: list, columns: Iterable[list], annotations: list) -> None:
        self.data.update(zip(tuples, annotations))

    def items(self) -> Iterable[Tuple[Tup, Any]]:
        return self.data.items()

    def values(self) -> Iterable[Any]:
        return self.data.values()

    def __iter__(self) -> Iterator[Tup]:
        return iter(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __contains__(self, tup: Tup) -> bool:
        return tup in self.data

    def copy(self) -> "DictRowStore":
        return DictRowStore(dict(self.data))

    def mapping(self) -> MutableMapping[Tup, Any]:
        return self.data


class ColumnarRowStore(RowStore):
    """Columnar backend: per-attribute value arrays + a parallel annotation array.

    Rows live at a dense integer position: ``columns[j][i]`` is the value of
    attribute ``attributes[j]`` in row ``i`` and ``annotations[i]`` is that
    row's semiring annotation.  ``tuples[i]`` keeps the canonical
    :class:`Tup` (the hash-consed identity the rest of the system keys on)
    and ``_pos`` maps it back to ``i``.  Deletion swaps the last row into
    the vacated slot, so all arrays stay dense.

    ``version`` increments on every mutation; the vectorized kernels use it
    to invalidate cached ``numpy`` materializations of the columns.
    """

    kind = "columnar"
    __slots__ = (
        "attributes",
        "tuples",
        "columns",
        "annotations",
        "_pos",
        "version",
        "_mapping",
        "_vec_cache",
    )

    def __init__(self, attributes: Iterable[str]):
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self.tuples: list = []
        self.columns: Tuple[list, ...] = tuple([] for _ in self.attributes)
        self.annotations: list = []
        self._pos: dict = {}
        self.version: int = 0
        self._mapping: "_ColumnarMapping | None" = None
        #: Scratch slot for the vectorized kernels: an opaque cached
        #: encoding of the columns, tagged with the ``version`` it was
        #: built at (stale entries are simply ignored).
        self._vec_cache: Any = None

    def __getstate__(self):
        # Ship only the logical contents: ``_pos`` is rebuilt from
        # ``tuples`` (cheaper than pickling a second copy of every Tup
        # key), the mapping adapter is a cyclic view and the vectorized
        # scratch cache may hold numpy arrays -- neither belongs in a
        # pickle.
        return (self.attributes, self.tuples, self.columns, self.annotations)

    def __setstate__(self, state):
        self.attributes, self.tuples, self.columns, self.annotations = state
        self._pos = {tup: i for i, tup in enumerate(self.tuples)}
        self.version = 0
        self._mapping = None
        self._vec_cache = None

    def get(self, tup: Tup, default: Any = None) -> Any:
        position = self._pos.get(tup)
        if position is None:
            return default
        return self.annotations[position]

    def set(self, tup: Tup, value: Any) -> None:
        position = self._pos.get(tup)
        if position is not None:
            self.annotations[position] = value
            self.version += 1
            return
        self._pos[tup] = len(self.tuples)
        self.tuples.append(tup)
        items = tup._items
        if len(items) == len(self.columns):
            # Fast path: a canonical tuple's sorted item order is exactly the
            # store's (sorted) attribute order.
            for column, (_, value_) in zip(self.columns, items):
                column.append(value_)
        else:
            # Malformed row (validation was bypassed): keep the parallel
            # arrays aligned so check() can report it instead of crashing.
            lookup = dict(items)
            for column, attribute in zip(self.columns, self.attributes):
                column.append(lookup.get(attribute))
        self.annotations.append(value)
        self.version += 1

    def extend_rows(self, tuples: list, columns: Iterable[list], annotations: list) -> None:
        """One position-index pass and one version bump replace
        ``len(tuples)`` individual :meth:`set` calls (contract: see
        :meth:`RowStore.extend_rows`)."""
        base = len(self.tuples)
        self.tuples.extend(tuples)
        for column, new_values in zip(self.columns, columns):
            column.extend(new_values)
        self.annotations.extend(annotations)
        position_index = self._pos
        for offset, tup in enumerate(tuples):
            position_index[tup] = base + offset
        self.version += 1

    def discard(self, tup: Tup) -> bool:
        position = self._pos.pop(tup, None)
        if position is None:
            return False
        last = len(self.tuples) - 1
        if position != last:
            moved = self.tuples[last]
            self.tuples[position] = moved
            for column in self.columns:
                column[position] = column[last]
            self.annotations[position] = self.annotations[last]
            self._pos[moved] = position
        self.tuples.pop()
        for column in self.columns:
            column.pop()
        self.annotations.pop()
        self.version += 1
        return True

    def items(self) -> Iterable[Tuple[Tup, Any]]:
        return zip(self.tuples, self.annotations)

    def values(self) -> Iterable[Any]:
        return iter(self.annotations)

    def __iter__(self) -> Iterator[Tup]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, tup: Tup) -> bool:
        return tup in self._pos

    def copy(self) -> "ColumnarRowStore":
        clone = ColumnarRowStore(self.attributes)
        clone.tuples = list(self.tuples)
        clone.columns = tuple(list(column) for column in self.columns)
        clone.annotations = list(self.annotations)
        clone._pos = dict(self._pos)
        return clone

    def mapping(self) -> MutableMapping[Tup, Any]:
        if self._mapping is None:
            self._mapping = _ColumnarMapping(self)
        return self._mapping

    def check(self, attributes: Tuple[str, ...]) -> None:
        """Audit the parallel-array and position-index invariants."""
        n = len(self.tuples)
        if len(self.annotations) != n or any(len(c) != n for c in self.columns):
            raise SemiringError(
                f"columnar store arrays out of sync: {n} tuples, "
                f"{len(self.annotations)} annotations, "
                f"columns {[len(c) for c in self.columns]}"
            )
        if tuple(self.attributes) != tuple(attributes):
            raise SchemaError(
                f"columnar store attributes {self.attributes} do not match "
                f"schema attributes {tuple(attributes)}"
            )
        if len(self._pos) != n:
            raise SemiringError(
                f"columnar position index has {len(self._pos)} entries "
                f"for {n} rows"
            )
        for i, tup in enumerate(self.tuples):
            if self._pos.get(tup) != i:
                raise SemiringError(f"columnar position index stale for {tup}")
            items = tup._items
            if tuple(a for a, _ in items) != self.attributes:
                raise SchemaError(
                    f"stored tuple {tup} does not match store attributes "
                    f"{self.attributes}"
                )
            for column, (_, value) in zip(self.columns, items):
                if column[i] != value:
                    raise SemiringError(
                        f"column value {column[i]!r} disagrees with tuple {tup}"
                    )


class _ColumnarMapping(MutableMapping):
    """Dict-compatible mutable view over a :class:`ColumnarRowStore`.

    Lets every existing ``relation._annotations`` call site -- ``get``,
    ``pop``, item assignment/deletion, ``update``, iteration -- work
    unchanged against the columnar layout.  Writes are *raw* (no zero or
    carrier checks), exactly like writing into the backing dict of the row
    store; the relation layer enforces the invariants.
    """

    __slots__ = ("_store",)

    def __init__(self, store: ColumnarRowStore):
        self._store = store

    def __getitem__(self, tup: Tup) -> Any:
        value = self._store.get(tup, _MISSING)
        if value is _MISSING:
            raise KeyError(tup)
        return value

    def __setitem__(self, tup: Tup, value: Any) -> None:
        self._store.set(tup, value)

    def __delitem__(self, tup: Tup) -> None:
        if not self._store.discard(tup):
            raise KeyError(tup)

    def get(self, tup: Tup, default: Any = None) -> Any:
        return self._store.get(tup, default)

    def pop(self, tup: Tup, default: Any = _MISSING) -> Any:
        value = self._store.get(tup, _MISSING)
        if value is _MISSING:
            if default is _MISSING:
                raise KeyError(tup)
            return default
        self._store.discard(tup)
        return value

    def __contains__(self, tup: object) -> bool:
        return tup in self._store

    def __iter__(self) -> Iterator[Tup]:
        return iter(self._store)

    def __len__(self) -> int:
        return len(self._store)

    def items(self):
        return self._store.items()

    def values(self):
        return self._store.values()

    def keys(self):
        return iter(self._store)
