"""Databases: named collections of K-relations over one semiring."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping

from repro.errors import SchemaError, SemiringError
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.semirings.base import Semiring

__all__ = ["Database"]

#: The mode keywords ``benchmarks/e2e/calls.py`` still passes, with the values
#: it passes.  Each entry point has one path, so they select nothing; they go
#: once ``calls.py`` stops passing them.
PINNED_KEYWORDS: Dict[str, tuple] = {
    "optimize": (True,),
    "executor": ("pipelined",),
    "engine": ("seminaive",),
    "storage": (None, "row", "columnar"),
}


def accept_pinned_keywords(**keywords: Any) -> None:
    """Accept and ignore the pinned values of :data:`PINNED_KEYWORDS`.

    Any other value raises :class:`TypeError`: there is no other path for it
    to select.
    """
    for name, value in keywords.items():
        if value not in PINNED_KEYWORDS[name]:
            raise TypeError(
                f"{name}={value!r} selects nothing: this entry point has one path "
                f"(only {PINNED_KEYWORDS[name]} are accepted, for the benchmark)"
            )


class Database:
    """A catalog of named K-relations sharing a single annotation semiring.

    The positive-algebra evaluator and the datalog engine both read their
    input relations from a :class:`Database`; query results are themselves
    K-relations and can be registered back into the catalog.
    """

    def __init__(self, semiring: Semiring, relations: Mapping[str, KRelation] | None = None):
        self.semiring = semiring
        self._relations: Dict[str, KRelation] = {}
        for name, relation in (relations or {}).items():
            self.register(name, relation)

    # -- catalog ----------------------------------------------------------------
    def register(self, name: str, relation: KRelation) -> KRelation:
        """Add or replace a relation under ``name``.

        The relation's semiring must match the database's semiring (by name);
        this keeps query evaluation well-defined.
        """
        if relation.semiring.name != self.semiring.name:
            raise SemiringError(
                f"relation {name!r} is annotated in {relation.semiring.name}, "
                f"but the database uses {self.semiring.name}"
            )
        self._relations[name] = relation
        return relation

    def create(
        self,
        name: str,
        schema: Schema | Iterable[str],
        rows: Iterable[Any] = (),
        *,
        storage: Any = None,
    ) -> KRelation:
        """Create, register and return a new relation.

        ``storage`` selects nothing (see :func:`accept_pinned_keywords`).
        """
        accept_pinned_keywords(storage=storage)
        return self.register(name, KRelation(self.semiring, schema, rows))

    def relation(self, name: str) -> KRelation:
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(
                f"unknown relation {name!r}; known: {sorted(self._relations)}"
            ) from None

    __getitem__ = relation

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> list[str]:
        """Sorted relation names."""
        return sorted(self._relations)

    def items(self) -> Iterator[tuple[str, KRelation]]:
        """Iterate over (name, relation) pairs."""
        return iter(self._relations.items())

    # -- transformations -----------------------------------------------------------
    def map_annotations(self, function, target_semiring: Semiring | None = None) -> "Database":
        """Apply an annotation transformation to every relation (Prop. 3.5)."""
        semiring = target_semiring or self.semiring
        result = Database(semiring)
        for name, relation in self._relations.items():
            result.register(name, relation.map_annotations(function, semiring))
        return result

    def to_semiring(self, target: Semiring, conversion=None) -> "Database":
        """Reinterpret every relation in another semiring via coercion."""
        result = Database(target)
        for name, relation in self._relations.items():
            result.register(name, relation.to_semiring(target, conversion))
        return result

    def copy(self) -> "Database":
        """A copy with independently mutable relations."""
        result = Database(self.semiring)
        for name, relation in self._relations.items():
            result.register(name, relation.copy())
        return result

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Database({self.semiring.name}, relations={self.names()})"
