"""Differential tests: the ground solver against the global Kleene oracle.

:func:`repro.datalog.solve_ground` solves the instantiation one strongly
connected component at a time; ``kleene_reference.py`` iterates ``T_q`` over
every atom at once, with its own literal divergence analysis.  On random
programs from ``tests/strategies.py`` the two must agree on the annotations,
on the divergent atoms and on which inputs raise
:class:`~repro.errors.DivergenceError` -- over ``N``, ``N∞``, ``B``,
Tropical, ``N[X]`` and circuits under every ``on_divergence`` policy, for
algebraic-system valuations that zero EDB facts, and for truncated power
series.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import programs_with_databases

from repro.datalog import (
    GroundAtom,
    build_algebraic_system,
    datalog_provenance,
    default_edb_ids,
    ground_program,
    monomial_coefficient,
    solve_ground,
)
from repro.errors import DivergenceError
from repro.relations import Database
from repro.semirings import CompletedNaturalsSemiring, Monomial, PowerSeriesSemiring
from repro.semirings.numeric import INFINITY

from tests.datalog.kleene_reference import kleene_solve

ORACLE_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

POLICIES = ("top", "skip", "error")


def _outcome(solve):
    """``(annotations, divergent)`` or the marker of a DivergenceError."""
    try:
        return solve()
    except DivergenceError:
        return "DivergenceError"


def _solver(ground, semiring, on_divergence):
    result = solve_ground(ground, semiring, on_divergence=on_divergence)
    return result.annotations, result.divergent_atoms


@pytest.mark.parametrize("on_divergence", POLICIES)
@pytest.mark.parametrize("semiring_name", ["bag", "natinf", "bool", "tropical", "nx", "circuit"])
@given(data=st.data())
@ORACLE_SETTINGS
def test_solver_matches_kleene_on_random_programs(semiring_name, on_divergence, data):
    """Same annotations (circuits: the same hash-consed nodes), same divergent
    atoms, and a DivergenceError exactly when the oracle raises one."""
    program, database = data.draw(programs_with_databases(semiring_name, recursive=True))
    ground = ground_program(program, database)
    semiring = database.semiring
    expected = _outcome(lambda: kleene_solve(ground, semiring, on_divergence=on_divergence))
    assert _outcome(lambda: _solver(ground, semiring, on_divergence)) == expected


@pytest.mark.parametrize("on_divergence", ["top", "skip"])
@pytest.mark.parametrize("semiring_name", ["bag", "natinf", "bool", "tropical"])
@given(data=st.data())
@ORACLE_SETTINGS
def test_algebraic_system_valuations_that_zero_facts(semiring_name, on_divergence, data):
    """A fact valued zero kills the rules reading it -- and the cycles only
    they close -- in ``AlgebraicSystem.solve`` exactly as in the oracle."""
    program, database = data.draw(programs_with_databases(semiring_name, recursive=True))
    system = build_algebraic_system(program, database)
    semiring = database.semiring
    valuation = {
        variable: semiring.zero() if data.draw(st.booleans()) else value
        for variable, value in system.edb_valuation.items()
    }
    facts = {
        atom: semiring.coerce(valuation[variable])
        for atom, variable in system.edb_variables.items()
    }
    expected = _outcome(
        lambda: kleene_solve(
            system.ground.reannotate(facts), semiring, on_divergence=on_divergence
        )[0]
    )
    actual = _outcome(lambda: system.solve(semiring, valuation, on_divergence=on_divergence))
    assert actual == expected


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@given(data=st.data())
@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_truncated_series_match_kleene(degree, data):
    """Per-component stabilisation gives the global iteration's series, and
    ``datalog_provenance`` reports them for every atom with infinitely many
    derivations."""
    program, database = data.draw(programs_with_databases("bag", recursive=True))
    ground = ground_program(program, database)
    ids = default_edb_ids(ground)
    semiring = PowerSeriesSemiring(truncation_degree=degree)
    tagged = ground.reannotate({atom: semiring.var(ids[atom]) for atom in ground.edb_atoms})
    expected, _ = kleene_solve(tagged, semiring)
    assert solve_ground(tagged, semiring).annotations == expected
    provenance = datalog_provenance(program, database, truncation_degree=degree)
    for atom, series in provenance.series.items():
        if not series.is_exact:
            assert series == expected[atom], str(atom)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_unit_rule_cycles_give_infinite_series_coefficients(degree):
    """``P(a)`` and ``T(a)`` derive each other by unit rules, so ``t1`` has
    infinitely many trees in both -- Monomial-Coefficient says so at every
    truncation degree, and so must the series (a coefficient that grows only
    every other round is not settled)."""
    database = Database(CompletedNaturalsSemiring())
    database.create("E", ["x"], [(("a",), 1)])
    program = "P(x) :- E(x)\nP(x) :- T(x)\nT(x) :- P(x)"
    provenance = datalog_provenance(program, database, truncation_degree=degree)
    t1 = Monomial.var("t1")
    assert monomial_coefficient(program, database, ("a",), t1).coefficient == INFINITY
    for predicate in ("P", "T"):
        series = provenance.provenance(GroundAtom(predicate, ("a",)))
        assert series.coefficient(t1) == INFINITY
