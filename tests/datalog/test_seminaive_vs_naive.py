"""``evaluate_program`` against ground-then-solve, and its divergence policy.

``solve_ground(ground_program(...))`` (Definition 5.5) is the reference:
``evaluate_program`` -- the semi-naive round loops over idempotent semirings
-- must match it, skipped atoms included (``on_divergence="skip"``), on
random programs over every registry semiring.  The solver itself is checked
against the Kleene oracle by ``test_solver_vs_kleene.py``.  The second half
covers ``on_divergence`` on a cyclic instance (raise, ``N∞`` top as in
Figure 7(b), skip) and the round count on an acyclic chain.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import REGISTRY_SEMIRING_NAMES, programs_with_databases

from repro.circuits import to_polynomial
from repro.datalog import (
    GroundAtom,
    Program,
    datalog_circuit_provenance,
    evaluate_program,
    ground_program,
    solve_ground,
)
from repro.datalog.seminaive import evaluate_program_seminaive
from repro.errors import DatalogError, DivergenceError
from repro.relations.database import Database
from repro.semirings import (
    INFINITY,
    CompletedNaturalsSemiring,
    NaturalsSemiring,
    Polynomial,
    ProvenancePolynomialSemiring,
    get_semiring,
)
from repro.workloads import chain_graph_database, transitive_closure_program

DIFFERENTIAL_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
TC = transitive_closure_program()


def _assert_agrees_with_the_oracle(program, database, on_divergence):
    semiring = database.semiring
    result = evaluate_program(program, database, on_divergence=on_divergence)
    oracle = solve_ground(
        ground_program(program, database), semiring, on_divergence=on_divergence
    )
    assert result.divergent_atoms == oracle.divergent_atoms
    zero = semiring.zero()
    for atom in set(result.annotations) | set(oracle.annotations):
        left = oracle.annotations.get(atom, zero)
        right = result.annotations.get(atom, zero)
        if semiring.name == "Circ[X]":  # equal polynomials, any DAG shape
            left, right = to_polynomial(left), to_polynomial(right)
        assert left == right, (
            f"{atom}: oracle={semiring.format_value(left)} "
            f"evaluate_program={semiring.format_value(right)}"
        )


@pytest.mark.parametrize("semiring_name", REGISTRY_SEMIRING_NAMES)
@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_evaluate_program_agrees_on_random_programs(semiring_name, data):
    """Same annotations, same skipped atoms, on every registry semiring."""
    program, database = data.draw(programs_with_databases(semiring_name))
    _assert_agrees_with_the_oracle(program, database, "skip")


@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_evaluate_program_agrees_under_top_assignment(data):
    """Under ``on_divergence="top"`` both pin the same atoms to ∞."""
    program, database = data.draw(programs_with_databases("natinf"))
    _assert_agrees_with_the_oracle(program, database, "top")


def test_idempotent_results_carry_no_rule_instantiations():
    """The round loops never record the instantiation; ``ground_program`` does."""
    database = Database(get_semiring("bool"))
    database.create("R", ["x", "y"], [("a", "b"), ("b", "a")])
    linear = transitive_closure_program(linear=True)
    result = evaluate_program(linear, database)
    grounding = ground_program(linear, database)
    assert not result.ground.ground_rules
    assert len(grounding.ground_rules) == 6
    assert result.ground.derivable == grounding.derivable


def test_round_loops_refuse_a_non_idempotent_semiring():
    with pytest.raises(DatalogError, match="idempotent"):
        evaluate_program_seminaive(TC, _cyclic_database(NaturalsSemiring()))


def test_polynomial_annotations_match_all_trees_shape():
    """Spot check: N[X] fixpoint annotations are genuine polynomials."""
    database = Database(get_semiring("nx"))
    database.create(
        "R", ["x", "y"], [(("a", "b"), Polynomial.var("p")), (("b", "c"), Polynomial.var("r"))]
    )
    program = Program.parse("Q(x, y) :- R(x, y)\nQ(x, y) :- R(x, z), Q(z, y)")
    relation = evaluate_program(program, database).output_relation(database)
    assert relation[("a", "c")] == Polynomial.var("p") * Polynomial.var("r")


# -- divergence ----------------------------------------------------------------------
def _cyclic_database(semiring):
    """a -> b -> a plus an off-ramp b -> c; every atom reaches the cycle."""
    database = Database(semiring)
    database.create("R", ["x", "y"], [("a", "b"), ("b", "a"), ("b", "c")])
    return database


def test_divergence_error_without_top():
    """N has no top element: a cyclic program must raise under 'top' and 'error'."""
    database = _cyclic_database(NaturalsSemiring())
    with pytest.raises(DivergenceError, match="on_divergence='skip'"):
        evaluate_program(TC, database)  # on_divergence="top"
    with pytest.raises(DivergenceError):
        evaluate_program(TC, database, on_divergence="error")


def test_divergence_error_in_polynomials():
    """N[X] has no top either; 'error' must also raise for provenance."""
    semiring = ProvenancePolynomialSemiring()
    database = _cyclic_database(semiring).map_annotations(lambda _: semiring.one(), semiring)
    with pytest.raises(DivergenceError):
        evaluate_program(TC, database, on_divergence="error")


def test_skip_drops_every_atom_on_or_after_the_cycle():
    result = evaluate_program(TC, _cyclic_database(NaturalsSemiring()), on_divergence="skip")
    assert result.divergent_atoms == frozenset(result.ground.idb_atoms)
    assert result.annotations == {}


def test_natinf_top_assignment_matches_figure_7b_semantics():
    """Under N∞ every atom that reaches the cycle gets ∞."""
    result = evaluate_program(TC, _cyclic_database(CompletedNaturalsSemiring()))
    assert result.divergent_atoms == frozenset(result.ground.idb_atoms)
    assert set(result.annotations.values()) == {INFINITY}
    assert result.annotations[GroundAtom("Q", ("a", "c"))] == INFINITY


def test_circuit_provenance_divergence_matrix():
    """The circuit path forwards on_divergence to the ground solver."""
    database = _cyclic_database(NaturalsSemiring())
    skip = datalog_circuit_provenance(TC, database)
    assert skip.circuits == {}
    assert skip.divergent == frozenset(skip.ground.idb_atoms)
    with pytest.raises(DivergenceError):
        datalog_circuit_provenance(TC, database, on_divergence="error")


def test_acyclic_chain_is_solved_in_one_pass():
    """Under ``N`` the chain's grounding is acyclic: every atom takes one
    application of ``T_q`` in dependency order -- not one Kleene round per
    path length."""
    result = evaluate_program(TC, chain_graph_database(NaturalsSemiring(), length=12))
    assert len(result.annotations) == 12 * 13 // 2
    assert result.iterations == 1


def test_invalid_on_divergence_is_rejected():
    with pytest.raises(ValueError, match="on_divergence"):
        evaluate_program(TC, _cyclic_database(NaturalsSemiring()), on_divergence="explode")
