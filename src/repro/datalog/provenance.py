"""Datalog provenance in the power-series semiring ``N-inf[[X]]`` (Section 6).

For every derivable output tuple the provenance is:

* an **exact polynomial** when the tuple has finitely many derivation trees
  (All-Trees' positive case);
* otherwise a **formal power series**, reported as a truncation that is exact
  for every monomial of total degree up to a chosen bound, with coefficients
  that are provably infinite marked ``infinity`` (Theorem 6.5 / the
  Monomial-Coefficient algorithm govern when that happens).

The truncated series are computed by the ground solver
(:func:`repro.datalog.fixpoint.solve_ground`) in the truncated power-series
semiring, one strongly connected component of the instantiation at a time.
An acyclic atom is exact after one application of ``T_q``.  A cyclic
component ``C`` is iterated in rounds with the components it reads already
final; round ``r`` accounts for every derivation tree whose part inside
``C`` is at most ``r`` high.  The stabilisation bound is per component: a
monomial of total degree ``d`` with a *finite* coefficient only receives
contributions from trees whose paths inside ``C`` are at most
``(d + 1) * (|C| + 1)`` long.  Along such a path at most ``d`` steps have a
sibling (every sibling contributes degree at least one), and a longer run of
leaf-free (unit-rule) steps repeats an atom, which by Theorem 6.5 forces the
coefficient to be infinite.  An *infinite* coefficient keeps growing: cutting
a repeated unit-rule segment (at most ``|C|`` steps) out of a tree taller
than the bound, again and again, reaches a tree at most ``|C|`` rounds above
it.  So after the bound, the coefficients that still move within ``|C|``
more rounds are exactly the infinite ones, and are marked as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.errors import DatalogError
from repro.datalog.all_trees import all_trees_of, default_edb_ids
from repro.datalog.finiteness import ProvenanceClass, classify_provenance
from repro.datalog.fixpoint import _initial_values, component_order, solve_ground
from repro.datalog.grounding import GroundAtom, GroundProgram, ground_program
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.semirings.base import Semiring
from repro.semirings.numeric import NatInf
from repro.semirings.polynomial import Monomial, Polynomial
from repro.semirings.power_series import FormalPowerSeries, PowerSeriesSemiring

__all__ = [
    "DatalogProvenance",
    "DatalogCircuitProvenance",
    "datalog_provenance",
    "datalog_circuit_provenance",
    "absorptive_circuit_provenance",
]


@dataclass
class DatalogProvenance:
    """Provenance series for every derivable IDB atom of a datalog query.

    ``series`` maps each atom to a :class:`FormalPowerSeries`: exact
    (``truncation_degree is None``) for atoms with polynomial provenance,
    truncated otherwise.  ``classification`` records which provenance
    semiring each atom needs (Theorem 6.5's trichotomy).
    """

    ground: GroundProgram
    edb_ids: Dict[GroundAtom, str]
    series: Dict[GroundAtom, FormalPowerSeries]
    classification: Dict[GroundAtom, ProvenanceClass]
    truncation_degree: int

    def provenance(self, atom: GroundAtom | tuple) -> FormalPowerSeries:
        """The provenance series of an output/IDB atom (tuples name output atoms)."""
        if not isinstance(atom, GroundAtom):
            atom = GroundAtom(self.ground.program.output, tuple(atom))
        try:
            return self.series[atom]
        except KeyError:
            raise DatalogError(f"{atom} is not a derivable IDB atom") from None

    def coefficient(self, atom: GroundAtom | tuple, monomial: Monomial | str) -> NatInf:
        """Exact coefficient of ``monomial`` via the Monomial-Coefficient algorithm.

        Unlike reading the truncated series, this works for monomials of any
        degree.
        """
        from repro.datalog.monomial_coefficient import monomial_coefficient

        if not isinstance(atom, GroundAtom):
            atom = GroundAtom(self.ground.program.output, tuple(atom))
        result = monomial_coefficient(
            self.ground.program, self.ground.database, atom, monomial, edb_ids=self.edb_ids
        )
        return result.coefficient

    def evaluate(self, semiring: Semiring, valuation: Mapping[str, object]) -> Dict[GroundAtom, object]:
        """Evaluate the *exact* (polynomial) provenance in an ω-continuous semiring.

        Only atoms whose provenance is an exact polynomial are evaluated;
        this is the datalog factorization theorem (Theorem 6.4) restricted to
        the polynomial case, which is what can be done without taking limits.
        The fixpoint engine evaluates the remaining atoms directly.
        """
        coerced = {k: semiring.coerce(v) for k, v in valuation.items()}
        values: Dict[GroundAtom, object] = {}
        for atom, series in self.series.items():
            if series.is_exact:
                values[atom] = series.to_polynomial().evaluate(semiring, coerced)
        return values

    def output_series(self) -> Dict[GroundAtom, FormalPowerSeries]:
        """Provenance series of the output predicate's atoms only."""
        output = self.ground.program.output
        return {atom: s for atom, s in self.series.items() if atom.relation == output}


@dataclass
class DatalogCircuitProvenance:
    """Hash-consed circuit provenance for the convergent IDB atoms of a query.

    The compact counterpart of :class:`DatalogProvenance`: every atom with
    finitely many derivation trees gets a circuit denoting exactly its
    ``N[X]`` provenance polynomial (compare with
    :func:`~repro.datalog.all_trees.all_trees`), built by running the
    *unchanged* ground solver over the circuit semiring.  Atoms with
    infinitely many derivations cannot be represented by a finite circuit
    and are listed in ``divergent`` (use the series machinery of
    :func:`datalog_provenance` for those).
    """

    ground: GroundProgram
    edb_ids: Dict[GroundAtom, str]
    circuits: Dict[GroundAtom, Any]
    divergent: frozenset[GroundAtom]
    iterations: int

    def provenance(self, atom: GroundAtom | tuple) -> Any:
        """The provenance circuit of an output/IDB atom (tuples name output atoms)."""
        if not isinstance(atom, GroundAtom):
            atom = GroundAtom(self.ground.program.output, tuple(atom))
        try:
            return self.circuits[atom]
        except KeyError:
            if atom in self.divergent:
                raise DatalogError(
                    f"{atom} has infinitely many derivations; its provenance is a "
                    "proper power series, not a circuit (use datalog_provenance)"
                ) from None
            raise DatalogError(f"{atom} is not a derivable IDB atom") from None

    def output_circuits(self) -> Dict[GroundAtom, Any]:
        """Provenance circuits of the output predicate's atoms only."""
        output = self.ground.program.output
        return {a: c for a, c in self.circuits.items() if a.relation == output}

    def to_polynomials(self) -> Dict[GroundAtom, Polynomial]:
        """Expand every circuit into its ``N[X]`` polynomial (may be large)."""
        from repro.circuits.evaluate import to_polynomial

        return {atom: to_polynomial(c) for atom, c in self.circuits.items()}

    def evaluate(self, semiring: Semiring, valuation: Mapping[str, object]) -> Dict[GroundAtom, object]:
        """Evaluate every circuit in ``semiring`` in one sweep of their joint DAG.

        The circuit form of the factorization theorem (Theorem 6.4 restricted
        to polynomial provenance): subcircuits shared between atoms are
        evaluated once.
        """
        from repro.circuits.evaluate import CircuitEvaluator

        values = CircuitEvaluator(semiring, valuation).evaluate_many(self.circuits.values())
        return {atom: values[c] for atom, c in self.circuits.items()}

    # Alias mirroring the module-level ``specialize`` naming.
    specialize = evaluate


def datalog_circuit_provenance(
    program: Program | str,
    database: Database,
    *,
    edb_ids: Mapping[GroundAtom, str] | None = None,
    on_divergence: str = "skip",
) -> DatalogCircuitProvenance:
    """Compute hash-consed circuit provenance by running datalog over ``Circ[X]``.

    The EDB facts are abstractly tagged with circuit variables (the same
    deterministic tuple ids as the series path, so results are directly
    comparable) and the ground solver of :mod:`repro.datalog.fixpoint` does
    the rest -- no provenance-specific evaluation code.  The program is
    grounded once; the solver then solves a re-annotated copy of that
    grounding directly.  ``on_divergence`` is forwarded to the solver:
    ``"skip"`` (default) records atoms with infinite provenance in
    ``divergent`` and keeps the exact circuits of the rest; ``"error"``
    raises :class:`~repro.errors.DivergenceError` instead.
    """
    from repro.circuits.semiring import CircuitSemiring

    if isinstance(program, str):
        program = Program.parse(program)
    ground = ground_program(program, database)
    ids = dict(edb_ids) if edb_ids is not None else default_edb_ids(ground)

    circ = CircuitSemiring()
    circuit_ground = ground.reannotate(
        {atom: circ.var(ids[atom]) for atom in ground.edb_atoms}
    )
    result = solve_ground(circuit_ground, circ, on_divergence=on_divergence)
    circuits = {
        atom: circuit
        for atom, circuit in result.annotations.items()
        if not circ.is_zero(circuit)
    }
    return DatalogCircuitProvenance(
        ground=ground,
        edb_ids=ids,
        circuits=circuits,
        divergent=result.divergent_atoms,
        iterations=result.iterations,
    )


def absorptive_circuit_provenance(
    program: Program | str, database: Database
) -> Dict[GroundAtom, Any]:
    """A circuit per derivable IDB atom denoting its Boolean provenance.

    Over an absorptive reading (``1 + a = 1``, Section 8: the minimal-fringe
    PosBool(X) conditions, probabilities) only the derivation trees that
    repeat no atom along a path matter: any other tree can be pruned to one
    of them with fewer leaves.  Inside a strongly connected component ``C``
    of the instantiation such a tree is at most ``|C|`` atoms high, so
    exactly ``|C|`` Jacobi rounds from zero -- with no equality test --
    reach every one of them.  A round builds one
    :func:`~repro.circuits.nodes.prod_node` per ground rule and one
    :func:`~repro.circuits.nodes.sum_node` per atom, so the circuit of ``C``
    has O(``|C|`` x ground rules) gates (Deutch, Milo, Roy, Tannen,
    "Circuits for Datalog Provenance", ICDT 2014).  An acyclic atom takes
    one application of ``T_q``.  Every gate the rounds add denotes a
    genuine derivation, so the circuit is exact as a Boolean function,
    though not as an ``N[X]`` polynomial (use
    :func:`datalog_circuit_provenance` for that).

    ``database`` must be annotated in ``Circ[X]`` (the probabilistic layer's
    lineage database, one variable per event); the program is grounded once
    on it and its annotations are the circuits' leaves.
    """
    from repro.circuits.nodes import ZERO, prod_node, sum_node

    if isinstance(program, str):
        program = Program.parse(program)
    table, facts, _, components = component_order(ground_program(program, database))
    rules, by_head = table.rules, table.by_head
    values = _initial_values(facts, len(table.atoms), database.semiring)

    def consequence(atom: int) -> Any:
        return sum_node(
            *[prod_node(*[values[body] for body in rules[rule][2]]) for rule in by_head[atom]]
        )

    for component, cyclic in components:
        if not cyclic:
            values[component[0]] = consequence(component[0])
            continue
        for atom in component:
            values[atom] = ZERO
        for _ in component:
            updated = [consequence(atom) for atom in component]
            for atom, value in zip(component, updated):
                values[atom] = value
    atom = table.atom
    return {
        atom(i): values[i]
        for i, is_idb in enumerate(table.idb)
        if is_idb and values[i] is not ZERO
    }


def datalog_provenance(
    program: Program | str,
    database: Database,
    *,
    truncation_degree: int = 6,
    edb_ids: Mapping[GroundAtom, str] | None = None,
) -> DatalogProvenance:
    """Compute the ``N-inf[[X]]`` provenance of a datalog query (Definition 6.1).

    ``truncation_degree`` bounds the total degree up to which coefficients of
    *proper* (non-polynomial) series are reported; polynomial provenance is
    always exact regardless of the bound.

    This is the paper's expanded polynomial / truncated power-series form;
    :func:`datalog_circuit_provenance` gives hash-consed DAG annotations
    instead -- exact for every convergent atom and asymptotically smaller
    under deep fixpoints.

    The program is grounded once.  That grounding is solved over ``N[X]``
    with ``on_divergence="skip"`` for the exact polynomials (All-Trees), and
    -- when some atom has infinitely many derivations -- once more over the
    truncated power series for those atoms.
    """
    if isinstance(program, str):
        program = Program.parse(program)
    ground = ground_program(program, database)
    ids = dict(edb_ids) if edb_ids is not None else default_edb_ids(ground)

    finite = all_trees_of(ground, ids)
    series: Dict[GroundAtom, FormalPowerSeries] = {
        atom: FormalPowerSeries.from_polynomial(polynomial)
        for atom, polynomial in finite.polynomials.items()
    }
    if finite.infinite:
        semiring = PowerSeriesSemiring(truncation_degree=truncation_degree)
        truncated = solve_ground(
            ground.reannotate({atom: semiring.var(ids[atom]) for atom in ground.edb_atoms}),
            semiring,
        ).annotations
        for atom in finite.infinite:
            series[atom] = truncated[atom]

    return DatalogProvenance(
        ground=ground,
        edb_ids=ids,
        series=series,
        classification=dict(classify_provenance(ground).classification),
        truncation_degree=truncation_degree,
    )
