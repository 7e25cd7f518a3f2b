"""Datalog on boolean c-tables: the PosBool(X) condition of every atom.

Section 8 of the paper shows that datalog over a finite distributive lattice
``K`` -- ``B``, ``PosBool(B)``, the event sets ``P(Omega)``, the fuzzy
semiring over a finite value set -- always terminates, even for tuples with
infinitely many derivation trees: absorption (``a + a·b = a``) makes every
non-minimal fringe redundant, and by Dickson's lemma only finitely many
minimal fringes remain.  That evaluation is :func:`repro.datalog.evaluate`
over ``K`` itself: lattices are idempotent, so the semi-naive round loops run
and reach the least fixpoint after finitely many rounds.  By Theorem 6.4 it
equals ``Eval_v`` of the minimal-fringe provenance that this module computes.

:func:`lattice_condition_provenance` evaluates the program once in
``PosBool(X)`` (the free distributive lattice over the tuple ids) over the
abstractly tagged EDB.  The result is a boolean c-table -- the "datalog on
c-tables" semantics the paper notes is new for incomplete databases.  It is
the test oracle of the lattice evaluation and of the absorptive provenance
circuits (:func:`repro.datalog.provenance.absorptive_circuit_provenance`),
which give probabilities each atom's Boolean function without its minimal
DNF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.datalog.all_trees import default_edb_ids
from repro.datalog.fixpoint import evaluate_program
from repro.datalog.grounding import GroundAtom, collect_edb_annotations
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.semirings.posbool import BoolExpr, PosBoolSemiring

__all__ = ["LatticeDatalogResult", "lattice_condition_provenance"]


@dataclass
class LatticeDatalogResult:
    """Datalog-on-c-tables output: a condition (PosBool expression) per tuple."""

    edb_ids: Dict[GroundAtom, str]
    conditions: Dict[GroundAtom, BoolExpr]
    program: Program


def lattice_condition_provenance(
    program: Program | str,
    database: Database,
    *,
    edb_ids: Mapping[GroundAtom, str] | None = None,
) -> LatticeDatalogResult:
    """Compute the PosBool(X) ("minimal fringe") provenance of a datalog query.

    The database may be annotated in any semiring; only the support matters
    here, since each EDB fact is re-tagged with its own Boolean variable.
    (``edb_ids`` need not be injective: mapping two facts to one variable
    declares them perfectly correlated, as two tuples declared with one
    event of a probabilistic database are.)  The PosBool(X) fixpoint runs on
    the semi-naive engine (:func:`repro.datalog.fixpoint.evaluate_program`).
    """
    if isinstance(program, str):
        program = Program.parse(program)
    if edb_ids is not None:
        ids = dict(edb_ids)
    else:
        ids = default_edb_ids(collect_edb_annotations(program, database))

    posbool = PosBoolSemiring()
    tagged = Database(posbool)
    for predicate in program.edb_predicates:
        source = database.relation(predicate)
        relation = KRelation(posbool, source.schema)
        values_of = source.schema.values_of
        for key in source._rows:
            values = values_of(key)
            relation._set(values, BoolExpr.var(ids[GroundAtom(predicate, values)]))
        tagged.register(predicate, relation)

    result = evaluate_program(program, tagged)
    conditions = {
        atom: value
        for atom, value in result.annotations.items()
        if not posbool.is_zero(value)
    }
    return LatticeDatalogResult(edb_ids=ids, conditions=conditions, program=program)
