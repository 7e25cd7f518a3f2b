"""Datalog over finite distributive lattices (Section 8 of the paper).

When the annotation semiring ``K`` is a finite distributive lattice --
``B``, ``PosBool(B)``, the event sets ``P(Omega)``, the fuzzy semiring over a
finite value set -- datalog evaluation always terminates, even for tuples
with infinitely many derivation trees.  The paper obtains this by modifying
All-Trees to keep, per tuple, only the derivation trees whose fringe is
*minimal*; absorption (``a + a·b = a``) makes every non-minimal fringe
redundant, and by Dickson's lemma there are only finitely many minimal
fringes.

Operationally, keeping minimal fringes is the same as computing the tuple's
provenance in ``PosBool(X)`` (the free distributive lattice over the tuple
ids): multiplication idempotence flattens exponents and absorption removes
dominated monomials.  This module therefore evaluates the program once in
``PosBool(X)`` over the abstractly tagged EDB -- producing a boolean c-table,
the "datalog on c-tables" semantics the paper notes is new for incomplete
databases -- and then specializes the result to any distributive lattice via
the ``Eval_v`` homomorphism (Theorem 6.4 restricted to lattices).

There is one path: the PosBool(X) fixpoint runs on the semi-naive engine,
and :meth:`LatticeDatalogResult.evaluate` expands each condition's minimal
monomials into meets and joins.  Probabilities need only each atom's Boolean
function, not its minimal DNF: the probabilistic layer compiles circuits
built from the ground program instead
(:func:`repro.datalog.provenance.absorptive_circuit_provenance`), and these
conditions are their test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.errors import DatalogError, SemiringError
from repro.datalog.all_trees import default_edb_ids
from repro.datalog.fixpoint import evaluate_program, idb_schema
from repro.datalog.grounding import GroundAtom, collect_edb_annotations
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.semirings.base import Semiring
from repro.semirings.posbool import BoolExpr, PosBoolSemiring

__all__ = ["LatticeDatalogResult", "lattice_condition_provenance", "evaluate_on_lattice"]


@dataclass
class LatticeDatalogResult:
    """Datalog-on-c-tables output: a condition (PosBool expression) per tuple."""

    edb_ids: Dict[GroundAtom, str]
    conditions: Dict[GroundAtom, BoolExpr]
    program: Program

    def condition(self, atom: GroundAtom) -> BoolExpr:
        """The minimal-fringe condition of a derivable IDB atom."""
        try:
            return self.conditions[atom]
        except KeyError:
            raise DatalogError(f"{atom} is not a derivable IDB atom") from None

    def evaluate(
        self, lattice: Semiring, valuation: Mapping[str, Any]
    ) -> Dict[GroundAtom, Any]:
        """Specialize every condition to a distributive lattice ``K``.

        ``valuation`` maps tuple ids to lattice elements; each condition's
        minimal monomials are mapped to meets and joined, which is exactly
        evaluating the minimal-fringe polynomial of the paper's modified
        All-Trees in ``K``.  A tuple id the valuation lacks raises
        :class:`~repro.errors.SemiringError` naming it.
        """
        if not lattice.is_distributive_lattice:
            raise DatalogError(
                f"Section 8 evaluation needs a distributive lattice, got {lattice.name}"
            )
        coerced = {k: lattice.coerce(v) for k, v in valuation.items()}
        results: Dict[GroundAtom, Any] = {}
        for atom, condition in self.conditions.items():
            value = lattice.zero()
            for clause in condition.clauses:
                meet = lattice.one()
                for variable in clause:
                    try:
                        element = coerced[variable]
                    except KeyError:
                        raise SemiringError(
                            f"valuation is missing variable {variable!r}"
                        ) from None
                    meet = lattice.mul(meet, element)
                value = lattice.add(value, meet)
            results[atom] = value
        return results


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


def evaluate_on_lattice(program: Program | str, database: Database) -> KRelation:
    """Terminating datalog evaluation when the database's semiring is a lattice.

    This is the end-to-end Section 8 pipeline: compute the PosBool(X)
    conditions, then evaluate them under the valuation sending each tuple id
    to the fact's own annotation.  The sanity checks of the paper hold by
    construction: for ``K = B`` every derivable tuple gets ``true``; for
    ``K = PosBool(B)`` the result is the c-table datalog semantics; for
    ``K = P(Omega)`` it generalizes probabilistic datalog.  The relation
    holds the output predicate's non-zero tuples.
    """
    if isinstance(program, str):
        program = Program.parse(program)
    semiring = database.semiring
    if not semiring.is_distributive_lattice:
        raise DatalogError(
            f"evaluate_on_lattice requires a distributive-lattice semiring, got {semiring.name}"
        )
    # One EDB scan serves both the tuple ids and the valuation.
    edb_annotations = collect_edb_annotations(program, database)
    ids = default_edb_ids(edb_annotations)
    provenance = lattice_condition_provenance(program, database, edb_ids=ids)
    valuation = {
        ids[atom]: annotation for atom, annotation in edb_annotations.items()
    }
    values = provenance.evaluate(semiring, valuation)

    predicate = program.output
    schema = idb_schema(program, database, predicate)
    relation = KRelation(semiring, schema)
    for atom, value in values.items():
        if atom.relation == predicate and not semiring.is_zero(value):
            relation._set(atom.values, value)
    return relation
