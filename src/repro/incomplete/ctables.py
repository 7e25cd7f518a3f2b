"""Boolean c-tables and the Imielinski-Lipski query-answering algorithm.

A (Boolean) c-table annotates every tuple with a *condition*: a positive
Boolean expression over a set of variables.  The table represents one
possible world per truth assignment of the variables -- the world containing
exactly the tuples whose condition evaluates to true.  Imielinski and Lipski
showed that c-tables are closed under relational algebra; the paper's central
observation (Section 3) is that their algorithm *is* the generic positive
algebra of Definition 3.2 instantiated at the semiring ``PosBool(B)``.

A :class:`CTable` is therefore a thin, domain-flavoured wrapper around a
``PosBool(B)``-annotated :class:`~repro.relations.krelation.KRelation`: it
adds possible-worlds semantics, world enumeration, and certain/possible
answer extraction, while query answering is literally
:mod:`repro.algebra.operators` on the underlying K-relation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings.boolean import BooleanSemiring
from repro.semirings.posbool import BoolExpr, PosBoolSemiring

__all__ = ["CTable", "ctable_database"]


class CTable:
    """A Boolean c-table: tuples annotated with positive Boolean conditions."""

    def __init__(self, schema: Schema | Iterable[str], rows: Iterable[Any] = ()):
        self.semiring = PosBoolSemiring()
        self.relation = KRelation(self.semiring, schema)
        for entry in rows:
            if isinstance(entry, tuple) and len(entry) == 2 and not isinstance(entry[0], str):
                row, condition = entry
            else:
                row, condition = entry, True
            self.add(row, condition)

    @classmethod
    def from_relation(cls, relation: KRelation) -> "CTable":
        """Wrap an existing ``PosBool(B)``-relation as a c-table."""
        if not isinstance(relation.semiring, PosBoolSemiring):
            raise SchemaError("CTable.from_relation expects a PosBool(B)-relation")
        table = cls(relation.schema)
        table.relation._rows.update(relation._rows)
        return table

    # -- construction -----------------------------------------------------------
    def add(self, row: Any, condition: BoolExpr | str | bool = True) -> Tup:
        """Add a tuple under a condition (conditions of equal tuples are OR-ed)."""
        return self.relation.add(row, BoolExpr.of(condition))

    @property
    def schema(self) -> Schema:
        """The attribute schema."""
        return self.relation.schema

    @property
    def variables(self) -> frozenset[str]:
        """All condition variables used by the table."""
        result: set[str] = set()
        for condition in self.relation.annotations():
            result |= condition.variables
        return frozenset(result)

    def condition(self, row: Any) -> BoolExpr:
        """The condition annotating ``row`` (false when absent)."""
        return self.relation.annotation(row)

    def __len__(self) -> int:
        return len(self.relation)

    def __iter__(self) -> Iterator[Tup]:
        return iter(self.relation)

    # -- possible-worlds semantics ------------------------------------------------
    def world(self, assignment: Mapping[str, bool]) -> KRelation:
        """The possible world selected by a truth assignment (a Boolean relation)."""
        boolean = BooleanSemiring()
        result = KRelation(boolean, self.schema)
        one = boolean.one()
        result._rows = {
            key: one
            for key, condition in self.relation._rows.items()
            if condition.evaluate(assignment)
        }
        return result

    def _world_relations(
        self, variables: Iterable[str] | None = None
    ) -> Iterator[tuple[Dict[str, bool], KRelation]]:
        """(assignment, :meth:`world`) pairs over the given variables."""
        names = sorted(variables) if variables is not None else sorted(self.variables)
        for mask in range(2 ** len(names)):
            assignment = {
                name: bool(mask >> index & 1) for index, name in enumerate(names)
            }
            yield assignment, self.world(assignment)

    def possible_worlds(
        self, variables: Iterable[str] | None = None
    ) -> Iterator[tuple[Dict[str, bool], frozenset[Tup]]]:
        """Enumerate (assignment, world) pairs over the given variables.

        ``variables`` defaults to the variables mentioned by the table; a
        caller reproducing Figure 1(c) passes the input table's variables so
        that output worlds align with input assignments.
        """
        for assignment, world in self._world_relations(variables):
            yield assignment, world.support

    def world_set(self, variables: Iterable[str] | None = None) -> frozenset[frozenset[Tup]]:
        """The set of distinct possible worlds (the semantics of the c-table)."""
        return frozenset(world for _, world in self.possible_worlds(variables))

    # -- answers --------------------------------------------------------------------
    def certain_tuples(self) -> frozenset[Tup]:
        """Tuples present in every possible world (condition equivalent to true)."""
        tup_of = self.schema.tup_of
        return frozenset(
            tup_of(key) for key, condition in self.relation._rows.items() if condition.is_true
        )

    def possible_tuples(self) -> frozenset[Tup]:
        """Tuples present in at least one possible world (satisfiable condition).

        Positive conditions are satisfiable exactly when they are not the
        constant false, so this is simply the support.
        """
        return frozenset(self.relation.support)

    def simplified(self) -> "CTable":
        """Return a copy (conditions are already kept in minimal DNF).

        Provided for symmetry with the paper's Figure 2(a) -> 2(b)
        simplification step; with the canonical ``PosBool`` representation
        the simplification has already happened, so this is a copy.
        """
        return CTable.from_relation(self.relation.copy())

    def __str__(self) -> str:
        return self.relation.to_table()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CTable({list(self.schema.attributes)}, {len(self)} tuples)"


def ctable_database(tables: Mapping[str, CTable]) -> Database:
    """Bundle several c-tables into a ``PosBool(B)`` database for querying."""
    database = Database(PosBoolSemiring())
    for name, table in tables.items():
        database.register(name, table.relation)
    return database
