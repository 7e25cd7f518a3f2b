"""Abstract tagging: annotating tuples with their own identifiers.

Theorem 4.3 (and its datalog analogue, Theorem 6.4) evaluates a query in two
stages: first on an *abstractly tagged* version ``R-bar`` of the input, in
which every support tuple is annotated by a fresh variable (its tuple id),
producing provenance polynomials; then the polynomials are evaluated through
``Eval_v`` under the valuation that maps each tuple id back to the original
annotation.  This module provides the tagging step and the bookkeeping that
connects tuple ids to tuples and annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring
from repro.semirings.polynomial import ProvenancePolynomialSemiring

__all__ = ["TaggedDatabase", "abstractly_tag", "abstractly_tag_database"]


@dataclass
class TaggedDatabase:
    """An abstractly-tagged database together with its valuation.

    Attributes
    ----------
    database:
        The ``N[X]``-database in which every input tuple is annotated with a
        distinct provenance variable.
    valuation:
        Maps each introduced variable to the original annotation (in the
        original semiring); this is the ``v`` of ``Eval_v``.
    tuple_ids:
        Maps ``(relation name, tuple)`` to the introduced variable, so
        callers can trace provenance variables back to concrete tuples.
    source_semiring:
        The semiring of the original database.
    """

    database: Database
    valuation: Dict[str, Any]
    tuple_ids: Dict[tuple[str, Tup], str]
    source_semiring: Semiring
    _by_variable: Dict[str, tuple[str, Tup]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_variable = {v: k for k, v in self.tuple_ids.items()}

    def variable_for(self, relation_name: str, row: Any) -> str:
        """The provenance variable assigned to a given input tuple."""
        relation = self.database.relation(relation_name)
        tup = relation.schema.tup_of(relation._key(row))
        return self.tuple_ids[(relation_name, tup)]

    def tuple_for(self, variable: str) -> tuple[str, Tup]:
        """The (relation name, tuple) pair a provenance variable refers to."""
        return self._by_variable[variable]


def _variable_annotation(semiring: Semiring, name: str) -> Any:
    """The annotation representing bare variable ``name`` in ``semiring``."""
    maker = getattr(semiring, "var", None)
    if maker is not None:
        return maker(name)
    return semiring.coerce(name)


def abstractly_tag(
    relation: KRelation,
    *,
    relation_name: str = "R",
    id_format: str = "{name}{index}",
    ids: Mapping[Any, str] | None = None,
    semiring: Semiring | None = None,
) -> tuple[KRelation, Dict[str, Any], Dict[tuple[str, Tup], str]]:
    """Tag every support tuple of ``relation`` with its own fresh variable.

    Returns ``(tagged_relation, valuation, tuple_ids)`` where the tagged
    relation is an ``N[X]``-relation, ``valuation`` maps each variable to the
    tuple's original annotation and ``tuple_ids`` maps ``(relation_name,
    tuple)`` to the variable.  Pass ``ids`` to pin specific variable names to
    specific tuples (as the paper does with ``p, r, s`` in Figure 5).

    ``semiring`` selects the provenance representation: the default is the
    paper's expanded polynomials ``N[X]``; pass
    :class:`~repro.circuits.semiring.CircuitSemiring` (or any semiring with
    a ``var`` constructor) to tag with hash-consed circuit variables
    instead.
    """
    provenance = semiring if semiring is not None else ProvenancePolynomialSemiring()
    tagged = KRelation(provenance, relation.schema)
    valuation: Dict[str, Any] = {}
    tuple_ids: Dict[tuple[str, Tup], str] = {}

    explicit: Dict[Tup, str] = {}
    if ids:
        for row, variable in ids.items():
            explicit[relation.schema.tup_of(relation._key(row))] = str(variable)

    for index, (tup, annotation) in enumerate(
        sorted(relation.items(), key=lambda item: str(item[0])), start=1
    ):
        variable = explicit.get(tup) or id_format.format(name=relation_name.lower(), index=index)
        if variable in valuation:
            raise ValueError(f"duplicate tuple id {variable!r}")
        tagged._set(tup, _variable_annotation(provenance, variable))
        valuation[variable] = annotation
        tuple_ids[(relation_name, tup)] = variable
    return tagged, valuation, tuple_ids


def abstractly_tag_database(
    database: Database,
    *,
    ids: Mapping[str, Mapping[Any, str]] | None = None,
    semiring: Semiring | None = None,
) -> TaggedDatabase:
    """Tag every relation of ``database``, producing an ``N[X]`` database.

    ``ids`` may pin variable names per relation:
    ``{"R": {("a", "b", "c"): "p", ...}}``.  ``semiring`` selects the
    provenance representation (expanded polynomials by default, circuits
    when a :class:`~repro.circuits.semiring.CircuitSemiring` is passed).
    """
    provenance = semiring if semiring is not None else ProvenancePolynomialSemiring()
    tagged_db = Database(provenance)
    valuation: Dict[str, Any] = {}
    tuple_ids: Dict[tuple[str, Tup], str] = {}
    for name, relation in database.items():
        tagged, rel_valuation, rel_ids = abstractly_tag(
            relation,
            relation_name=name,
            ids=(ids or {}).get(name),
            semiring=provenance,
        )
        overlap = set(rel_valuation) & set(valuation)
        if overlap:
            raise ValueError(f"duplicate tuple ids across relations: {sorted(overlap)}")
        tagged_db.register(name, tagged)
        valuation.update(rel_valuation)
        tuple_ids.update(rel_ids)
    return TaggedDatabase(
        database=tagged_db,
        valuation=valuation,
        tuple_ids=tuple_ids,
        source_semiring=database.semiring,
    )
