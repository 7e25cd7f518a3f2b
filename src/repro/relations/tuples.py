"""Named-perspective tuples.

The paper works in the *named perspective* of the relational model
(Section 3): a tuple is a function ``t : U -> D`` from a finite set of
attribute names to domain values.  :class:`Tup` is an immutable, hashable
implementation of such a function, with the operations the positive algebra
needs: restriction to a subset of attributes (projection), renaming, and
merging of compatible tuples (natural join).
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from typing import Any, Dict, Iterable, Iterator, Tuple

from repro.errors import SchemaError

__all__ = ["Tup"]

#: Debug-mode validation of the :meth:`Tup._from_sorted_items` fast path.
#: The fast constructor deliberately skips sorting and schema checks, so a
#: kernel bug can silently emit malformed tuples; setting
#: ``REPRO_DEBUG_TUPLES=1`` turns the skipped checks back on (read once at
#: import; tests flip the module attribute directly).
_DEBUG_TUPLES = os.environ.get("REPRO_DEBUG_TUPLES", "").strip().lower() not in (
    "",
    "0",
    "false",
    "off",
)


def _validate_sorted_items(items: Tuple[tuple[str, Any], ...]) -> None:
    """The checks :meth:`Tup._from_sorted_items` bypasses, for debug mode."""
    if not isinstance(items, tuple):
        raise SchemaError(f"_from_sorted_items needs a tuple of pairs, got {items!r}")
    previous = None
    for pair in items:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise SchemaError(f"malformed (attribute, value) pair {pair!r}")
        attribute = pair[0]
        if not isinstance(attribute, str):
            raise SchemaError(f"attribute name {attribute!r} is not a string")
        if previous is not None and not (previous < attribute):
            raise SchemaError(
                f"items not sorted by distinct attribute names at {attribute!r} "
                f"(after {previous!r})"
            )
        previous = attribute


class Tup:
    """An immutable named tuple ``{attribute: value}``.

    ``Tup(a=1, b="x")`` and ``Tup({"a": 1, "b": "x"})`` are equivalent.
    Equality and hashing are value-based and independent of attribute
    ordering, matching the function view ``t : U -> D``.
    """

    __slots__ = ("_items",)

    def __init__(self, values: Mapping[str, Any] | Iterable[tuple[str, Any]] = (), **kwargs: Any):
        items: Dict[str, Any] = {}
        pairs = values.items() if isinstance(values, Mapping) else values
        for attribute, value in pairs:
            items[str(attribute)] = value
        for attribute, value in kwargs.items():
            if attribute in items:
                raise SchemaError(f"attribute {attribute!r} given twice")
            items[attribute] = value
        object.__setattr__(self, "_items", tuple(sorted(items.items())))

    # -- constructors ---------------------------------------------------------
    @classmethod
    def _from_sorted_items(cls, items: Tuple[tuple[str, Any], ...]) -> "Tup":
        """Internal fast constructor: ``items`` must already be distinct
        ``(attribute, value)`` pairs sorted by attribute name.

        The physical execution kernels (:mod:`repro.engine.kernels`) build
        output tuples from positional value rows whose attribute order is
        known at compile time, so re-sorting and re-validating per tuple
        would dominate the hot loops.  Set ``REPRO_DEBUG_TUPLES=1`` to
        re-enable the bypassed validation (sortedness, distinctness, string
        attribute names) while chasing a kernel bug.
        """
        if _DEBUG_TUPLES:
            _validate_sorted_items(items)
        tup = cls.__new__(cls)
        object.__setattr__(tup, "_items", items)
        return tup

    @classmethod
    def from_values(cls, attributes: Iterable[str], values: Iterable[Any]) -> "Tup":
        """Zip parallel attribute and value sequences into a tuple."""
        attributes, values = list(attributes), list(values)
        if len(attributes) != len(values):
            raise SchemaError(
                f"{len(values)} values for {len(attributes)} attributes"
            )
        return cls(zip(attributes, values))

    # -- mapping protocol -------------------------------------------------------
    @property
    def attributes(self) -> frozenset[str]:
        """The attribute set ``U`` of this tuple."""
        return frozenset(a for a, _ in self._items)

    def __getitem__(self, attribute: str) -> Any:
        for a, v in self._items:
            if a == attribute:
                return v
        raise KeyError(attribute)

    def get(self, attribute: str, default: Any = None) -> Any:
        """Value of ``attribute`` or ``default`` when absent."""
        for a, v in self._items:
            if a == attribute:
                return v
        return default

    def __contains__(self, attribute: str) -> bool:
        return any(a == attribute for a, _ in self._items)

    def __iter__(self) -> Iterator[str]:
        return (a for a, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> Tuple[tuple[str, Any], ...]:
        """Sorted (attribute, value) pairs."""
        return self._items

    def values_for(self, attributes: Iterable[str]) -> tuple:
        """Values listed in the order of ``attributes`` (useful for display)."""
        return tuple(self[a] for a in attributes)

    def as_dict(self) -> Dict[str, Any]:
        """A plain mutable dictionary copy."""
        return dict(self._items)

    # -- relational operations ---------------------------------------------------
    def restrict(self, attributes: Iterable[str]) -> "Tup":
        """Projection: the restriction of the function to ``attributes``."""
        wanted = set(attributes)
        missing = wanted - self.attributes
        if missing:
            raise SchemaError(f"cannot project on missing attributes {sorted(missing)}")
        return Tup((a, v) for a, v in self._items if a in wanted)

    def rename(self, mapping: Mapping[str, str]) -> "Tup":
        """Renaming: relabel attributes according to the bijection ``mapping``."""
        new_items = []
        for attribute, value in self._items:
            new_items.append((mapping.get(attribute, attribute), value))
        renamed = Tup(new_items)
        if len(renamed) != len(self):
            raise SchemaError(f"renaming {dict(mapping)!r} is not injective on {self}")
        return renamed

    def compatible_with(self, other: "Tup") -> bool:
        """Whether the two tuples agree on their shared attributes."""
        shared = self.attributes & other.attributes
        return all(self[a] == other[a] for a in shared)

    def merge(self, other: "Tup") -> "Tup":
        """Natural-join merge of two compatible tuples (union of the functions)."""
        if not self.compatible_with(other):
            raise SchemaError(f"cannot merge incompatible tuples {self} and {other}")
        combined = dict(self._items)
        combined.update(other.items())
        return Tup(combined)

    # -- protocol --------------------------------------------------------------
    def __reduce__(self):
        # Canonical tuples unpickle through the fast constructor: the items
        # are sorted by construction, so re-validation happens only under
        # REPRO_DEBUG_TUPLES (the receiving process's setting -- worker
        # pools propagate the parent's flag in their init payload).
        return (Tup._from_sorted_items, (self._items,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tup):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(("Tup", self._items))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={v!r}" for a, v in self._items)
        return f"Tup({inner})"

    def __str__(self) -> str:
        return "(" + ", ".join(f"{a}: {v}" for a, v in self._items) + ")"
