"""Relation schemas (finite attribute sets with a preferred display order)."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.relations.tuples import Tup

__all__ = ["Schema"]


class Schema:
    """An ordered collection of distinct attribute names.

    Semantically a schema is just the finite attribute set ``U`` of the named
    perspective; the order is retained only so that relations print in a
    stable, human-friendly column order (matching the paper's figures).

    A stored row is keyed by its values in the *key order*: the attribute
    names sorted (:attr:`key_attributes`), the order a :class:`Tup` keeps
    its items in.  It depends on the attribute set alone, so
    union-compatible relations share keys.  :meth:`key_of` and
    :meth:`values_of` convert between display-order values and keys;
    :meth:`tup_of` builds the :class:`Tup` of a key for callers.
    """

    __slots__ = ("_attributes", "_sorted", "_to_key", "_to_display")

    def __init__(self, attributes: Iterable[str]):
        ordered = tuple(str(a) for a in attributes)
        if len(set(ordered)) != len(ordered):
            raise SchemaError(f"duplicate attributes in schema {list(ordered)}")
        by_name = sorted(range(len(ordered)), key=ordered.__getitem__)
        identity = by_name == list(range(len(ordered)))
        object.__setattr__(self, "_attributes", ordered)
        object.__setattr__(self, "_sorted", tuple(ordered[i] for i in by_name))
        # Display positions in key order, and key positions in display
        # order; ``None`` when the display order is already sorted.
        object.__setattr__(self, "_to_key", None if identity else tuple(by_name))
        object.__setattr__(
            self,
            "_to_display",
            None if identity else tuple(sorted(range(len(ordered)), key=by_name.__getitem__)),
        )

    def __reduce__(self):
        return (Schema, (self._attributes,))

    # -- structure ------------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in display order."""
        return self._attributes

    @property
    def attribute_set(self) -> frozenset[str]:
        """Attribute names as a set (the ``U`` of the named perspective)."""
        return frozenset(self._attributes)

    @property
    def key_attributes(self) -> tuple[str, ...]:
        """Attribute names in key order (sorted): the positions of a row key."""
        return self._sorted

    # -- row keys -------------------------------------------------------------
    def key_of(self, values: Sequence[Any]) -> tuple:
        """The row key of ``values`` given in display order (no length check)."""
        order = self._to_key
        if order is None:
            return values if type(values) is tuple else tuple(values)
        return tuple([values[i] for i in order])

    def key_positions(self, attributes: Iterable[str]) -> tuple[int, ...]:
        """Where each of ``attributes`` sits in a row key."""
        return tuple(self._sorted.index(attribute) for attribute in attributes)

    def values_of(self, key: tuple) -> tuple:
        """The values of a row key in display order."""
        order = self._to_display
        return key if order is None else tuple([key[i] for i in order])

    def tup_of(self, key: tuple) -> Tup:
        """The :class:`Tup` of a row key: how a stored row is handed out."""
        return Tup._from_sorted_items(tuple(zip(self._sorted, key)))

    def __iter__(self) -> Iterator[str]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._attributes

    # -- operations -----------------------------------------------------------
    def project(self, attributes: Iterable[str]) -> "Schema":
        """Schema of a projection onto ``attributes`` (kept in the given order)."""
        wanted = [str(a) for a in attributes]
        missing = set(wanted) - self.attribute_set
        if missing:
            raise SchemaError(f"cannot project on unknown attributes {sorted(missing)}")
        return Schema(wanted)

    def rename(self, mapping: Mapping[str, str]) -> "Schema":
        """Schema after renaming attributes by the (injective) ``mapping``."""
        renamed = [mapping.get(a, a) for a in self._attributes]
        return Schema(renamed)

    def join(self, other: "Schema") -> "Schema":
        """Schema of a natural join: this schema followed by the new attributes."""
        extra = [a for a in other.attributes if a not in self.attribute_set]
        return Schema(self._attributes + tuple(extra))

    def is_compatible_with(self, other: "Schema") -> bool:
        """Whether the two schemas have the same attribute set (union-compatible)."""
        return self.attribute_set == other.attribute_set

    # -- protocol --------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.attribute_set == other.attribute_set

    def __hash__(self) -> int:
        return hash(("Schema", self.attribute_set))

    def __repr__(self) -> str:
        return f"Schema({list(self._attributes)})"

    def __str__(self) -> str:
        return "(" + ", ".join(self._attributes) + ")"
