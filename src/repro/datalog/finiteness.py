"""Finiteness analysis of datalog provenance series (Theorems 6.5 and the
classification used by Section 7's algorithms).

Given a grounded program, every derivable output tuple ``t`` falls into one
of three classes:

* ``POLYNOMIAL`` -- finitely many derivation trees; the provenance is a
  polynomial of ``N[X]`` (All-Trees answers "yes" and computes it);
* ``SERIES_FINITE_COEFFICIENTS`` -- infinitely many derivation trees but
  every monomial has a finite coefficient; the provenance lies in ``N[[X]]``
  (Theorem 6.5: no cycle of unit rules through the tuple);
* ``SERIES_INFINITE_COEFFICIENTS`` -- some monomial has coefficient
  ``infinity``; the provenance needs all of ``N-inf[[X]]`` (a unit-rule cycle
  feeds the tuple).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict

from repro.datalog.grounding import GroundAtom, GroundProgram, ground_program
from repro.datalog.syntax import Program
from repro.relations.database import Database

__all__ = ["ProvenanceClass", "FinitenessReport", "classify_provenance", "analyze_finiteness"]


class ProvenanceClass(Enum):
    """Which provenance semiring is needed to express a tuple's annotation."""

    POLYNOMIAL = "N[X]"
    SERIES_FINITE_COEFFICIENTS = "N[[X]]"
    SERIES_INFINITE_COEFFICIENTS = "N∞[[X]]"


@dataclass
class FinitenessReport:
    """Per-atom provenance classification for a grounded program."""

    ground: GroundProgram
    classification: Dict[GroundAtom, ProvenanceClass]

    def provenance_class(self, atom: GroundAtom) -> ProvenanceClass:
        """Classification of a derivable IDB atom."""
        return self.classification[atom]

    def is_polynomial(self, atom: GroundAtom) -> bool:
        """Whether the atom's provenance series is a polynomial (All-Trees' question)."""
        return self.classification[atom] is ProvenanceClass.POLYNOMIAL

    def has_finite_coefficients(self, atom: GroundAtom) -> bool:
        """Theorem 6.5: whether every coefficient of the series is finite."""
        return self.classification[atom] is not ProvenanceClass.SERIES_INFINITE_COEFFICIENTS

    def atoms_in_class(self, provenance_class: ProvenanceClass) -> frozenset[GroundAtom]:
        """All atoms with the given classification."""
        return frozenset(
            atom
            for atom, cls in self.classification.items()
            if cls is provenance_class
        )

    def summary(self) -> Dict[str, int]:
        """Counts per class, keyed by the class's semiring name."""
        counts = {cls.value: 0 for cls in ProvenanceClass}
        for cls in self.classification.values():
            counts[cls.value] += 1
        return counts


def classify_provenance(ground: GroundProgram) -> FinitenessReport:
    """Classify every derivable IDB atom of a grounded program.

    The classification combines two reachability analyses on the grounded
    dependency graph, both run on atom ids: atoms downstream of *any* cycle
    have infinitely many derivation trees (their provenance is a proper
    series); among those, the atoms downstream of a cycle of grounded *unit
    rules* additionally have an infinite coefficient (Theorem 6.5).
    """
    infinite_trees = ground.downstream_ids(ground.cyclic_ids())
    infinite_coefficients = ground.downstream_ids(ground.cyclic_ids(unit_rules_only=True))
    table, _ = ground.int_form()
    classification: Dict[GroundAtom, ProvenanceClass] = {}
    for atom, is_idb in enumerate(table.idb):
        if not is_idb:
            continue
        if atom in infinite_coefficients:
            provenance_class = ProvenanceClass.SERIES_INFINITE_COEFFICIENTS
        elif atom in infinite_trees:
            provenance_class = ProvenanceClass.SERIES_FINITE_COEFFICIENTS
        else:
            provenance_class = ProvenanceClass.POLYNOMIAL
        classification[table.atom(atom)] = provenance_class
    return FinitenessReport(ground=ground, classification=classification)


def analyze_finiteness(program: Program | str, database: Database) -> FinitenessReport:
    """Ground ``program`` over ``database`` and classify every output tuple."""
    if isinstance(program, str):
        program = Program.parse(program)
    return classify_provenance(ground_program(program, database))
