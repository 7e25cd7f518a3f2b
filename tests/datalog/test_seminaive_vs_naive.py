"""Differential property tests: the semi-naive engine against the naive one.

The naive engine (ground, then solve) is the reference implementation,
closest to the paper's Definition 5.5; the semi-naive engine must agree with
it annotation-for-annotation on every program, database and semiring.  This
suite drives both engines with randomized programs and EDB databases from
``tests/strategies.py`` over every registry semiring the engines support,
including the non-idempotent provenance semirings where the semi-naive
engine collects the instantiation itself.

``on_divergence="skip"`` is used throughout so the same property holds for
semirings without a top element (``N``, ``N[X]``, circuits): both engines
must then also agree on *which* atoms they skipped.  Below the engines both
hand the instantiation to one ground solver, which
``test_solver_vs_kleene.py`` checks against the global Kleene oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import REGISTRY_SEMIRING_NAMES, programs_with_databases

from repro.circuits import to_polynomial
from repro.datalog import Program, evaluate_program
from repro.relations.database import Database
from repro.semirings import Polynomial, get_semiring

DIFFERENTIAL_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _comparable(semiring, value):
    """Map an annotation to a canonical comparable form.

    Circuits are compared by the polynomial they denote: the two engines may
    sum a head's rule contributions in different orders, which yields
    semantically equal but structurally distinct DAGs.
    """
    if semiring.name == "Circ[X]":
        return to_polynomial(value)
    return value


def _assert_engines_agree(semiring, naive, seminaive):
    assert naive.divergent_atoms == seminaive.divergent_atoms
    atoms = set(naive.annotations) | set(seminaive.annotations)
    zero = semiring.zero()
    for atom in atoms:
        left = naive.annotations.get(atom, zero)
        right = seminaive.annotations.get(atom, zero)
        assert _comparable(semiring, left) == _comparable(semiring, right), (
            f"{atom}: naive={semiring.format_value(left)} "
            f"seminaive={semiring.format_value(right)}"
        )


@pytest.mark.parametrize("semiring_name", REGISTRY_SEMIRING_NAMES)
@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_engines_agree_on_random_programs(semiring_name, data):
    """Same annotations, same skipped atoms, on every registry semiring."""
    program, database = data.draw(programs_with_databases(semiring_name))
    naive = evaluate_program(program, database, on_divergence="skip")
    seminaive = evaluate_program(
        program, database, on_divergence="skip", engine="seminaive"
    )
    _assert_engines_agree(database.semiring, naive, seminaive)


@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_engines_agree_under_top_assignment(data):
    """Under ``on_divergence="top"`` both engines pin the same atoms to ∞."""
    program, database = data.draw(programs_with_databases("natinf"))
    naive = evaluate_program(program, database, on_divergence="top")
    seminaive = evaluate_program(
        program, database, on_divergence="top", engine="seminaive"
    )
    _assert_engines_agree(database.semiring, naive, seminaive)


def test_rejects_unknown_engine():
    database = Database(get_semiring("bool"))
    database.create("R", ["x", "y"], [("a", "b")])
    program = Program.parse("Q(x, y) :- R(x, y)")
    with pytest.raises(ValueError, match="engine"):
        evaluate_program(program, database, engine="magic")


def test_polynomial_annotations_match_all_trees_shape():
    """Spot check: N[X] fixpoint annotations are genuine polynomials."""
    database = Database(get_semiring("nx"))
    database.create(
        "R",
        ["x", "y"],
        [
            (("a", "b"), Polynomial.var("p")),
            (("b", "c"), Polynomial.var("r")),
        ],
    )
    program = Program.parse("Q(x, y) :- R(x, y)\nQ(x, y) :- R(x, z), Q(z, y)")
    result = evaluate_program(program, database, engine="seminaive")
    relation = result.output_relation(database)
    assert relation[("a", "c")] == Polynomial.var("p") * Polynomial.var("r")
