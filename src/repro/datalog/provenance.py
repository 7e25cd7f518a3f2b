"""Datalog provenance in the power-series semiring ``N-inf[[X]]`` (Section 6).

For every derivable output tuple the provenance is:

* an **exact polynomial** when the tuple has finitely many derivation trees
  (All-Trees' positive case);
* otherwise a **formal power series**, reported as a truncation that is exact
  for every monomial of total degree up to a chosen bound, with coefficients
  that are provably infinite marked ``infinity`` (Theorem 6.5 / the
  Monomial-Coefficient algorithm govern when that happens).

The truncated series are computed by Kleene iteration in the truncated
power-series semiring.  The iteration is exact because round ``r`` of the
fixpoint accounts for every derivation tree of height at most ``r``, and a
monomial of total degree ``d`` with a *finite* coefficient only receives
contributions from trees of height at most ``(d + 1) * (number of IDB atoms
+ 1)``: any taller tree must repeat an IDB atom along a leaf-free (unit-rule)
chain, which by Theorem 6.5 forces the coefficient to be infinite.  So after
that many rounds every still-changing coefficient is infinite and is marked
as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.errors import DatalogError
from repro.datalog.all_trees import all_trees, default_edb_ids
from repro.datalog.finiteness import ProvenanceClass, classify_provenance
from repro.datalog.grounding import GroundAtom, GroundProgram, ground_program
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.semirings.base import Semiring
from repro.semirings.numeric import INFINITY, NatInf
from repro.semirings.polynomial import Monomial, Polynomial
from repro.semirings.power_series import FormalPowerSeries, PowerSeriesSemiring

__all__ = [
    "DatalogProvenance",
    "DatalogCircuitProvenance",
    "datalog_provenance",
    "datalog_circuit_provenance",
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
    *unchanged* fixpoint engine over the circuit semiring.  Atoms with
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
    engine: str = "naive",
) -> DatalogCircuitProvenance:
    """Compute hash-consed circuit provenance by running datalog over ``Circ[X]``.

    The EDB facts are abstractly tagged with circuit variables (the same
    deterministic tuple ids as the series path, so results are directly
    comparable) and the ordinary Kleene engine of
    :mod:`repro.datalog.fixpoint` does the rest -- no provenance-specific
    evaluation code.  The program is grounded once; the engine then solves
    a re-annotated copy of that grounding directly.  ``on_divergence`` is
    forwarded to the engine: ``"skip"`` (default) records atoms with
    infinite provenance in ``divergent`` and keeps the exact circuits of
    the rest; ``"error"`` raises :class:`~repro.errors.DivergenceError`
    instead.  ``engine="seminaive"`` solves the re-annotated grounding in
    one topological pass (:func:`repro.datalog.seminaive.solve_ground_seminaive`)
    instead of Kleene rounds; the circuits are structurally identical.
    """
    from repro.circuits.semiring import CircuitSemiring
    from repro.datalog.fixpoint import _check_engine, solve_ground
    from repro.datalog.seminaive import solve_ground_seminaive

    _check_engine(engine)
    if isinstance(program, str):
        program = Program.parse(program)
    ground = ground_program(program, database)
    ids = dict(edb_ids) if edb_ids is not None else default_edb_ids(ground)

    circ = CircuitSemiring()
    circuit_ground = ground.reannotate(
        {atom: circ.var(ids[atom]) for atom in ground.edb_atoms}
    )

    solver = solve_ground_seminaive if engine == "seminaive" else solve_ground
    result = solver(circuit_ground, circ, on_divergence=on_divergence)
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


def datalog_provenance(
    program: Program | str,
    database: Database,
    *,
    truncation_degree: int = 6,
    edb_ids: Mapping[GroundAtom, str] | None = None,
    provenance: str = "series",
    engine: str = "naive",
) -> DatalogProvenance | DatalogCircuitProvenance:
    """Compute the ``N-inf[[X]]`` provenance of a datalog query (Definition 6.1).

    ``truncation_degree`` bounds the total degree up to which coefficients of
    *proper* (non-polynomial) series are reported; polynomial provenance is
    always exact regardless of the bound.

    ``provenance`` selects the representation: ``"series"`` (default) is the
    paper's expanded polynomial / truncated power-series form;
    ``"circuit"`` returns a :class:`DatalogCircuitProvenance` with
    hash-consed DAG annotations instead -- exact for every convergent atom
    and asymptotically smaller under deep fixpoints.

    ``engine`` selects how the exact polynomial provenance of the convergent
    atoms is computed: ``"naive"`` (default) uses All-Trees' memoized
    recursion, ``"seminaive"`` solves the grounding re-annotated over
    ``N[X]`` with :func:`repro.datalog.seminaive.solve_ground_seminaive`
    (Theorem 5.6 guarantees the two coincide).  For ``provenance="circuit"``
    the option is forwarded to :func:`datalog_circuit_provenance`.  The
    truncated power series of the divergent atoms are engine-independent.
    """
    if provenance == "circuit":
        return datalog_circuit_provenance(
            program, database, edb_ids=edb_ids, engine=engine
        )
    if provenance != "series":
        raise DatalogError(
            f"provenance must be 'series' or 'circuit', got {provenance!r}"
        )
    from repro.datalog.fixpoint import _check_engine

    _check_engine(engine)
    if isinstance(program, str):
        program = Program.parse(program)
    ground = ground_program(program, database)
    ids = dict(edb_ids) if edb_ids is not None else default_edb_ids(ground)

    report = classify_provenance(ground)
    if engine == "seminaive":
        polynomials, infinite_atoms = _seminaive_polynomials(ground, ids)
    else:
        finite_result = all_trees(program, database, edb_ids=ids)
        polynomials = finite_result.polynomials
        infinite_atoms = finite_result.infinite

    series: Dict[GroundAtom, FormalPowerSeries] = {}
    for atom, polynomial in polynomials.items():
        series[atom] = FormalPowerSeries.from_polynomial(polynomial)
    if infinite_atoms:
        truncated = _truncated_series_fixpoint(
            ground, ids, truncation_degree=truncation_degree
        )
        for atom in infinite_atoms:
            series[atom] = truncated[atom]

    return DatalogProvenance(
        ground=ground,
        edb_ids=ids,
        series=series,
        classification=dict(report.classification),
        truncation_degree=truncation_degree,
    )


def _seminaive_polynomials(
    ground: GroundProgram,
    ids: Mapping[GroundAtom, str],
) -> tuple[Dict[GroundAtom, Polynomial], frozenset[GroundAtom]]:
    """Exact ``N[X]`` provenance of the convergent atoms via the semi-naive solver.

    Re-annotates the shared grounding with polynomial variables and solves it
    with ``on_divergence="skip"``: the kept annotations are exactly All-Trees'
    polynomials (the least fixpoint restricted to the acyclic sub-program is
    the sum over derivation trees), and the skipped atoms are exactly the
    atoms All-Trees classifies infinite.
    """
    from repro.datalog.seminaive import solve_ground_seminaive
    from repro.semirings.polynomial import ProvenancePolynomialSemiring

    missing = ground.edb_atoms - set(ids)
    if missing:
        raise DatalogError(f"edb_ids is missing ids for {len(missing)} EDB fact(s)")
    polynomial_ground = ground.reannotate(
        {atom: Polynomial.var(ids[atom]) for atom in ground.edb_atoms}
    )
    result = solve_ground_seminaive(
        polynomial_ground, ProvenancePolynomialSemiring(), on_divergence="skip"
    )
    return result.annotations, result.divergent_atoms


def _truncated_series_fixpoint(
    ground: GroundProgram,
    ids: Mapping[GroundAtom, str],
    *,
    truncation_degree: int,
) -> Dict[GroundAtom, FormalPowerSeries]:
    """Kleene iteration in the degree-truncated power-series semiring.

    After the stabilization bound (see the module docstring) any coefficient
    that is still changing is marked ``infinity``.
    """
    semiring = PowerSeriesSemiring(truncation_degree=truncation_degree)
    idb_atoms = sorted(
        ground.idb_atoms, key=lambda a: (a.relation, tuple(map(str, a.values)))
    )
    edb_series = {
        atom: FormalPowerSeries.var(ids[atom], truncation_degree)
        for atom in ground.edb_atoms
    }
    values: Dict[GroundAtom, FormalPowerSeries] = {
        atom: semiring.zero() for atom in idb_atoms
    }

    bound = (truncation_degree + 1) * (len(idb_atoms) + 1) + 1

    def one_round(current: Dict[GroundAtom, FormalPowerSeries]) -> Dict[GroundAtom, FormalPowerSeries]:
        updated: Dict[GroundAtom, FormalPowerSeries] = {}
        for atom in idb_atoms:
            total = semiring.zero()
            for rule in ground.rules_with_head(atom):
                product = semiring.one()
                for body_atom in rule.body:
                    if ground.is_edb(body_atom):
                        factor = edb_series[body_atom]
                    else:
                        factor = current.get(body_atom, semiring.zero())
                    product = semiring.mul(product, factor)
                total = semiring.add(total, product)
            updated[atom] = total
        return updated

    for _ in range(bound):
        updated = one_round(values)
        if updated == values:
            return updated
        values = updated

    # One more round to discover which coefficients are still growing.
    final_round = one_round(values)
    stabilized: Dict[GroundAtom, FormalPowerSeries] = {}
    for atom in idb_atoms:
        before, after = values[atom], final_round[atom]
        terms: Dict[Monomial, NatInf] = {}
        monomials = {m for m, _ in before.terms} | {m for m, _ in after.terms}
        for monomial in monomials:
            coefficient_before = before.coefficient(monomial)
            coefficient_after = after.coefficient(monomial)
            if coefficient_before == coefficient_after:
                terms[monomial] = coefficient_after
            else:
                terms[monomial] = INFINITY
        stabilized[atom] = FormalPowerSeries(terms, truncation_degree)
    return stabilized
