"""Algorithm All-Trees (Figure 8 of the paper).

All-Trees decides, for every output tuple of a datalog query, whether its
provenance series is actually a *polynomial* of ``N[X]`` and computes that
polynomial when the answer is positive; tuples with infinitely many
derivation trees are reported with provenance ``infinity`` (the paper writes
``P(t) <- infinity``).

The paper's pseudo-code iterates a set ``T`` of derivation trees, moving a
tuple into ``T-infinity`` as soon as some tree repeats a tuple along a root
path or uses a ``T-infinity`` tuple.  The set of tuples classified infinite
by that process is exactly the set of derivable tuples on or downstream of a
cycle of the grounded dependency graph, and for the remaining tuples the sum
``Σ_τ Π_{l ∈ fringe(τ)} l`` is the least fixpoint of ``T_q`` over ``N[X]``
restricted to their acyclic dependency sub-graph.  This implementation
therefore tags every EDB fact with its tuple-id variable and hands the
grounding to the one ground solver (:func:`repro.datalog.fixpoint.solve_ground`)
with ``on_divergence="skip"``: the skipped atoms are ``T-infinity`` and the
others are solved in dependency order -- the same output as the literal
tree-set iteration, without materializing exponentially many trees and
without recursion, however deep the derivations.  The test-suite
cross-checks the result against brute-force tree enumeration
(:mod:`repro.datalog.derivations`) on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

from repro.errors import DatalogError
from repro.datalog.fixpoint import solve_ground
from repro.datalog.grounding import GroundAtom, GroundProgram, ground_program
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.semirings.base import Semiring
from repro.semirings.numeric import INFINITY, NatInf
from repro.semirings.polynomial import Polynomial, ProvenancePolynomialSemiring

__all__ = ["AllTreesResult", "all_trees", "all_trees_of", "default_edb_ids"]


@dataclass
class AllTreesResult:
    """Output of the All-Trees algorithm.

    ``polynomials`` maps each derivable IDB atom with finite provenance to
    its provenance polynomial over the EDB tuple ids; ``infinite`` collects
    the atoms whose provenance is not a polynomial (``P(t) = infinity`` in the
    paper's notation).
    """

    ground: GroundProgram
    edb_ids: Dict[GroundAtom, str]
    polynomials: Dict[GroundAtom, Polynomial]
    infinite: frozenset[GroundAtom]

    def provenance(self, atom: GroundAtom) -> Polynomial | None:
        """The provenance polynomial of ``atom``, or ``None`` when infinite."""
        if atom in self.infinite:
            return None
        try:
            return self.polynomials[atom]
        except KeyError:
            raise DatalogError(f"{atom} is not a derivable IDB atom") from None

    def is_polynomial(self, atom: GroundAtom) -> bool:
        """Whether the atom's provenance series is a polynomial."""
        return atom not in self.infinite and atom in self.polynomials

    def output_provenance(self) -> Dict[GroundAtom, Polynomial | None]:
        """Provenance of the output predicate's atoms (``None`` marks infinity)."""
        result: Dict[GroundAtom, Polynomial | None] = {}
        for atom in self.ground.output_atoms():
            result[atom] = None if atom in self.infinite else self.polynomials[atom]
        return result

    def evaluate(self, semiring: Semiring, valuation: Mapping[str, object]) -> Dict[GroundAtom, object]:
        """Evaluate every finite provenance polynomial in ``semiring``.

        Atoms with infinite provenance evaluate to the semiring's top element
        when one exists (matching the N-inf behaviour of Figure 7(b)); they
        are skipped otherwise.
        """
        coerced = {k: semiring.coerce(v) for k, v in valuation.items()}
        values: Dict[GroundAtom, object] = {}
        for atom, polynomial in self.polynomials.items():
            values[atom] = polynomial.evaluate(semiring, coerced)
        if semiring.has_top:
            for atom in self.infinite:
                values[atom] = semiring.top()
        return values


def default_edb_ids(
    ground: "GroundProgram | Iterable[GroundAtom]", prefix: str = "t"
) -> Dict[GroundAtom, str]:
    """Assign a deterministic tuple-id variable to every EDB fact.

    Accepts a :class:`GroundProgram` or any iterable of EDB atoms (e.g. the
    keys of :func:`repro.datalog.grounding.collect_edb_annotations`, which
    lets callers skip the grounding pass entirely); the id convention --
    sort by relation then stringified values, number from 1 -- is identical
    either way.
    """
    atoms = ground.edb_atoms if isinstance(ground, GroundProgram) else ground
    ids: Dict[GroundAtom, str] = {}
    for index, atom in enumerate(
        sorted(atoms, key=lambda a: (a.relation, tuple(map(str, a.values)))),
        start=1,
    ):
        ids[atom] = f"{prefix}{index}"
    return ids


def all_trees(
    program: Program | str,
    database: Database,
    *,
    edb_ids: Mapping[GroundAtom, str] | None = None,
) -> AllTreesResult:
    """Run All-Trees: classify every derivable IDB atom and compute finite provenance.

    ``edb_ids`` assigns tuple-id variable names to the EDB facts (defaults to
    ``t1, t2, ...`` in a deterministic order); the provenance polynomials are
    over these variables.
    """
    if isinstance(program, str):
        program = Program.parse(program)
    ground = ground_program(program, database)
    return all_trees_of(ground, default_edb_ids(ground) if edb_ids is None else edb_ids)


def all_trees_of(ground: GroundProgram, edb_ids: Mapping[GroundAtom, str]) -> AllTreesResult:
    """All-Trees on a program already grounded (the grounding is not repeated)."""
    ids = dict(edb_ids)
    missing = ground.edb_atoms - set(ids)
    if missing:
        raise DatalogError(f"edb_ids is missing ids for {len(missing)} EDB fact(s)")
    result = solve_ground(
        ground.reannotate({atom: Polynomial.var(ids[atom]) for atom in ground.edb_atoms}),
        ProvenancePolynomialSemiring(),
        on_divergence="skip",
    )
    return AllTreesResult(
        ground=ground,
        edb_ids=ids,
        polynomials=result.annotations,
        infinite=result.divergent_atoms,
    )


def bag_multiplicities(
    program: Program | str, database: Database
) -> Dict[GroundAtom, NatInf]:
    """Datalog under bag semantics via All-Trees (the paper's Section 7 remark).

    Every finite provenance polynomial is evaluated with all variables set to
    the corresponding tuple multiplicity; infinite tuples get multiplicity
    ``infinity``.  (Mumick-Shmueli-style evaluation as a corollary of
    Theorem 6.4.)
    """
    result = all_trees(program, database)
    valuation = {
        result.edb_ids[atom]: NatInf.of(result.ground.edb_annotation(atom))
        for atom in result.ground.edb_atoms
    }
    from repro.semirings.numeric import CompletedNaturalsSemiring

    semiring = CompletedNaturalsSemiring()
    multiplicities: Dict[GroundAtom, NatInf] = {}
    for atom, polynomial in result.polynomials.items():
        multiplicities[atom] = polynomial.evaluate(semiring, valuation)
    for atom in result.infinite:
        multiplicities[atom] = INFINITY
    return multiplicities
