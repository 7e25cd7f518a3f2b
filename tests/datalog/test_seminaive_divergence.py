"""Divergence behavior of the semi-naive engine, mirrored against the naive one.

Covers the full ``on_divergence`` matrix on a cyclic instance -- raising
:class:`DivergenceError` when the semiring cannot absorb an infinite sum,
assigning the top element when it can (``N∞``, Figure 7(b)), and skipping
the divergent atoms while keeping exact values -- plus the round count: on
an acyclic chain both engines solve the instantiation in a single pass.
"""

from __future__ import annotations

import pytest

from repro.datalog import (
    GroundAtom,
    datalog_circuit_provenance,
    evaluate_program,
    Program,
)
from repro.errors import DivergenceError
from repro.relations.database import Database
from repro.semirings import (
    INFINITY,
    CompletedNaturalsSemiring,
    NaturalsSemiring,
    ProvenancePolynomialSemiring,
)
from repro.workloads import chain_graph_database, transitive_closure_program

TC = transitive_closure_program()


def _cyclic_database(semiring):
    """a -> b -> a plus an off-ramp b -> c; every atom reaches the cycle."""
    database = Database(semiring)
    database.create("R", ["x", "y"], [("a", "b"), ("b", "a"), ("b", "c")])
    return database


@pytest.mark.parametrize("engine", ["naive", "seminaive"])
def test_divergence_error_without_top(engine):
    """N has no top element: a cyclic program must raise under 'top' and 'error'."""
    database = _cyclic_database(NaturalsSemiring())
    with pytest.raises(DivergenceError):
        evaluate_program(TC, database, engine=engine)  # on_divergence="top"
    with pytest.raises(DivergenceError):
        evaluate_program(TC, database, engine=engine, on_divergence="error")


@pytest.mark.parametrize("engine", ["naive", "seminaive"])
def test_divergence_error_in_polynomials(engine):
    """N[X] has no top either; 'error' must also raise for provenance."""
    semiring = ProvenancePolynomialSemiring()
    database = _cyclic_database(semiring).map_annotations(
        lambda _: semiring.one(), semiring
    )
    with pytest.raises(DivergenceError):
        evaluate_program(TC, database, engine=engine, on_divergence="error")


def test_skip_drops_the_same_atoms_in_both_engines():
    database = _cyclic_database(NaturalsSemiring())
    naive = evaluate_program(TC, database, on_divergence="skip")
    seminaive = evaluate_program(
        TC, database, on_divergence="skip", engine="seminaive"
    )
    assert naive.divergent_atoms == seminaive.divergent_atoms
    assert naive.annotations == seminaive.annotations
    # Every atom on/after the a<->b cycle is gone; nothing else was derivable.
    assert seminaive.divergent_atoms == frozenset(seminaive.ground.idb_atoms)
    assert seminaive.annotations == {}


def test_natinf_top_assignment_matches_figure_7b_semantics():
    """Under N∞ the divergent atoms must get ∞ in both engines."""
    database = _cyclic_database(CompletedNaturalsSemiring())
    naive = evaluate_program(TC, database)
    seminaive = evaluate_program(TC, database, engine="seminaive")
    assert naive.annotations == seminaive.annotations
    assert seminaive.annotations[GroundAtom("Q", ("a", "a"))] == INFINITY
    assert seminaive.annotations[GroundAtom("Q", ("a", "c"))] == INFINITY
    assert seminaive.divergent_atoms == naive.divergent_atoms


def test_circuit_provenance_divergence_matrix():
    """The circuit path forwards on_divergence to the ground solver."""
    bag = NaturalsSemiring()
    database = _cyclic_database(bag)
    skip = datalog_circuit_provenance(TC, database)
    assert skip.circuits == {}
    assert skip.divergent == frozenset(skip.ground.idb_atoms)
    with pytest.raises(DivergenceError):
        datalog_circuit_provenance(TC, database, on_divergence="error")


def test_acyclic_chain_is_solved_in_one_pass_by_both_engines():
    """Under ``N`` the chain's grounding is acyclic: every atom takes one
    application of ``T_q`` in dependency order, whichever engine found the
    instantiation -- not one Kleene round per path length."""
    database = chain_graph_database(NaturalsSemiring(), length=12)
    naive = evaluate_program(TC, database)
    seminaive = evaluate_program(TC, database, engine="seminaive")
    assert naive.annotations == seminaive.annotations
    assert naive.iterations == seminaive.iterations == 1


def test_invalid_on_divergence_is_rejected():
    database = _cyclic_database(NaturalsSemiring())
    with pytest.raises(ValueError, match="on_divergence"):
        evaluate_program(TC, database, engine="seminaive", on_divergence="explode")


def test_unsolvable_unless_skip_message_mentions_remedy():
    database = _cyclic_database(NaturalsSemiring())
    with pytest.raises(DivergenceError, match="on_divergence='skip'"):
        evaluate_program(TC, database, engine="seminaive")
