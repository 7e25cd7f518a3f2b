"""Datalog on K-relations: fixpoint semantics, provenance series and the Section 7/8 algorithms."""

from repro.datalog.algebraic_system import AlgebraicSystem, build_algebraic_system
from repro.datalog.all_trees import AllTreesResult, all_trees, bag_multiplicities, default_edb_ids
from repro.datalog.derivations import (
    DerivationTree,
    count_derivation_trees,
    enumerate_derivation_trees,
)
from repro.datalog.finiteness import (
    FinitenessReport,
    ProvenanceClass,
    analyze_finiteness,
    classify_provenance,
)
from repro.datalog.fixpoint import (
    DatalogResult,
    evaluate,
    evaluate_program,
    immediate_consequence,
    solve_ground,
)
from repro.datalog.grounding import GroundAtom, GroundProgram, GroundRule, ground_program
from repro.datalog.lattice_eval import LatticeDatalogResult, lattice_condition_provenance
from repro.datalog.monomial_coefficient import MonomialCoefficientResult, monomial_coefficient
from repro.datalog.provenance import (
    DatalogCircuitProvenance,
    DatalogProvenance,
    absorptive_circuit_provenance,
    datalog_circuit_provenance,
    datalog_provenance,
)
from repro.datalog.syntax import Program, Rule
from repro.datalog.translate import cq_to_program, ucq_to_program

__all__ = [
    "Program",
    "Rule",
    "GroundAtom",
    "GroundRule",
    "GroundProgram",
    "ground_program",
    "DatalogResult",
    "evaluate",
    "evaluate_program",
    "immediate_consequence",
    "solve_ground",
    "AlgebraicSystem",
    "build_algebraic_system",
    "DerivationTree",
    "enumerate_derivation_trees",
    "count_derivation_trees",
    "AllTreesResult",
    "all_trees",
    "bag_multiplicities",
    "default_edb_ids",
    "MonomialCoefficientResult",
    "monomial_coefficient",
    "FinitenessReport",
    "ProvenanceClass",
    "classify_provenance",
    "analyze_finiteness",
    "LatticeDatalogResult",
    "lattice_condition_provenance",
    "DatalogProvenance",
    "DatalogCircuitProvenance",
    "datalog_provenance",
    "datalog_circuit_provenance",
    "absorptive_circuit_provenance",
    "cq_to_program",
    "ucq_to_program",
]
