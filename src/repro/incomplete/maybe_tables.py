"""Maybe-tables: the simple incomplete-database representation of Figure 1.

A *maybe-table* annotates each tuple as either certain or optional ("?").
It represents the set of possible worlds obtained by independently keeping or
dropping every optional tuple.  Maybe-tables are a weak representation
system: they are not closed under relational queries (the paper's Figure 1
example), which is what motivates c-tables and, ultimately, K-relations.

A maybe-table is faithfully encoded as a ``PosBool(B)``-relation in which
every optional tuple carries its own Boolean variable and certain tuples
carry ``true`` -- exactly the translation of Figure 1(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import SchemaError
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings.boolean import BooleanSemiring
from repro.semirings.posbool import BoolExpr, PosBoolSemiring

__all__ = ["MaybeTable"]


@dataclass
class _MaybeRow:
    tup: Tup
    optional: bool
    variable: str | None


class MaybeTable:
    """A relation whose tuples are either certain or optional ("maybe") tuples."""

    def __init__(self, schema: Schema | Iterable[str]):
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._rows: List[_MaybeRow] = []
        self._variable_counter = 0

    # -- construction -----------------------------------------------------------
    def add_certain(self, row: Any) -> Tup:
        """Add a tuple that is present in every possible world."""
        tup = self._coerce(row)
        self._rows.append(_MaybeRow(tup, optional=False, variable=None))
        return tup

    def add_maybe(self, row: Any, *, variable: str | None = None) -> Tup:
        """Add an optional ("?") tuple, optionally naming its Boolean variable."""
        tup = self._coerce(row)
        if variable is None:
            self._variable_counter += 1
            variable = f"b{self._variable_counter}"
        self._rows.append(_MaybeRow(tup, optional=True, variable=variable))
        return tup

    def _coerce(self, row: Any) -> Tup:
        if isinstance(row, Tup):
            tup = row
        elif isinstance(row, dict):
            tup = Tup(row)
        else:
            tup = Tup.from_values(self.schema.attributes, row)
        if tup.attributes != self.schema.attribute_set:
            raise SchemaError(f"{tup} does not match schema {self.schema}")
        return tup

    # -- structure ---------------------------------------------------------------
    @property
    def certain_tuples(self) -> Tuple[Tup, ...]:
        """Tuples present in every world."""
        return tuple(r.tup for r in self._rows if not r.optional)

    @property
    def optional_tuples(self) -> Tuple[Tup, ...]:
        """Tuples present only in some worlds."""
        return tuple(r.tup for r in self._rows if r.optional)

    @property
    def variables(self) -> Tuple[str, ...]:
        """Boolean variables of the optional tuples, in insertion order."""
        return tuple(r.variable for r in self._rows if r.optional)  # type: ignore[misc]

    def __len__(self) -> int:
        return len(self._rows)

    # -- semantics ----------------------------------------------------------------
    def possible_worlds(self) -> Iterator[frozenset[Tup]]:
        """Enumerate the represented worlds (sets of tuples).

        Every subset of the optional tuples, together with all certain
        tuples, is one world; worlds that coincide as sets are yielded once.
        """
        optional = [r for r in self._rows if r.optional]
        certain = frozenset(r.tup for r in self._rows if not r.optional)
        seen: set[frozenset[Tup]] = set()
        for mask in range(2 ** len(optional)):
            world = set(certain)
            for bit, row in enumerate(optional):
                if mask >> bit & 1:
                    world.add(row.tup)
            frozen = frozenset(world)
            if frozen not in seen:
                seen.add(frozen)
                yield frozen

    def to_posbool_relation(self) -> KRelation:
        """Encode as a ``PosBool(B)``-relation (the c-table of Figure 1(b))."""
        semiring = PosBoolSemiring()
        relation = KRelation(semiring, self.schema)
        for row in self._rows:
            condition = BoolExpr.true() if not row.optional else BoolExpr.var(row.variable)
            relation._set(row.tup, semiring.add(relation.annotation(row.tup), condition))
        return relation

    def to_boolean_relation(self, world: Iterable[Tup]) -> KRelation:
        """Materialize one possible world as an ordinary (Boolean) relation."""
        semiring = BooleanSemiring()
        relation = KRelation(semiring, self.schema)
        for tup in world:
            relation._set(tup, True)
        return relation

    def assignment_for_world(self, world: Iterable[Tup]) -> Dict[str, bool]:
        """The Boolean assignment whose worlds contains exactly the given tuples."""
        world_set = set(world)
        assignment: Dict[str, bool] = {}
        for row in self._rows:
            if row.optional:
                assignment[row.variable] = row.tup in world_set  # type: ignore[index]
        return assignment

    @staticmethod
    def can_represent(worlds: Sequence[frozenset[Tup]]) -> bool:
        """Whether a set of possible worlds is representable by *some* maybe-table.

        A maybe-table's worlds are exactly: all sets ``C ∪ S`` with ``S`` any
        subset of the optional tuples, ``C`` the certain ones.  Equivalently
        the world set must be closed under union and intersection and contain
        every set between the intersection (certain tuples) and the union
        (all tuples).  The paper's Figure 1 result fails this closure, which
        is the motivation for c-tables.
        """
        if not worlds:
            return False
        world_list = [frozenset(w) for w in worlds]
        world_set = set(world_list)
        certain = frozenset.intersection(*world_list)
        everything = frozenset().union(*world_list)
        optional = everything - certain
        # The maybe-table over (certain, optional) represents 2^|optional| worlds;
        # representability means the given world set is exactly that family.
        if len(world_set) != 2 ** len(optional):
            return False
        for world in world_set:
            if not (certain <= world <= everything):
                return False
        return True
