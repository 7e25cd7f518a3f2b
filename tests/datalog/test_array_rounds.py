"""The array-resident semi-naive loop against the row loop it replaces.

With columnar IDB stores, vector arithmetic for an idempotent semiring and a
program made of copy / single-join plans, ``_SemiNaiveEngine`` runs its rounds
on :class:`repro.datalog.arraystore.ArrayState` and writes the stores once, at
the end.  Nothing selects that path, so everything here compares it with the
row loop (``storage="row"``) on the same input: identical annotations (floats
bit for bit), round counts, derivable sets and -- after a
:class:`~repro.errors.DivergenceError` -- identical partial stores; and every
way of *not* fitting the array path must leave the row result and say why
(``round_declined`` / the ``datalog.seed`` span's ``declined``).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import (
    EDB_PREDICATES,
    IDB_PREDICATES,
    VARIABLE_NAMES,
    edb_databases,
    programs,
)

from repro.datalog import Program, Rule, evaluate_program
from repro.datalog.seminaive import _SemiNaiveEngine
from repro.engine import vectorized
from repro.errors import DivergenceError
from repro.logic import Atom, Variable
from repro.obs import tracing
from repro.relations.database import Database
from repro.semirings import get_semiring
from repro.semirings.numeric import NatInf
from repro.workloads import chain_graph_database, transitive_closure_program

pytestmark = pytest.mark.skipif(
    not vectorized.numpy_available(),
    reason="the array path needs a numpy runtime",
)

#: The semirings with an array path: idempotent ``+`` and vector arithmetic.
ARRAY_SEMIRING_NAMES = ("tropical", "fuzzy", "viterbi", "bool")

#: Values that are equal across types: one domain value for every engine
#: (``dict`` equality), whichever spelling a relation happens to store.
MIXED_DOMAIN = (1, 1.0, True, 0, False, 2, 2.0, 3, "a", "b")

ARRAY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _evaluate(program, database, storage):
    """``(result, datalog.seed span attributes)`` of one semi-naive run."""
    with tracing() as sink:
        result = evaluate_program(program, database, engine="seminaive", storage=storage)
    (seed,) = sink.find("datalog.seed")
    return result, seed.attributes


def _identical(left, right) -> bool:
    """Equal values of equal type; floats down to the sign of zero."""
    if type(left) is not type(right) or left != right:
        return False
    return not isinstance(left, float) or math.copysign(1.0, left) == math.copysign(1.0, right)


def _assert_same_result(row, columnar):
    assert columnar.annotations == row.annotations
    for atom, value in row.annotations.items():
        assert _identical(columnar.annotations[atom], value), atom
    assert columnar.iterations == row.iterations
    assert columnar.ground.derivable == row.ground.derivable


@st.composite
def array_programs(draw) -> Program:
    """A random program the array path accepts: every rule has one or two
    body atoms over distinct variables, no constants, and a head of body
    variables -- copies, projections, equi-joins and cross products, linear,
    nonlinear and mutually recursive."""
    idb = IDB_PREDICATES[: draw(st.integers(min_value=1, max_value=2))]
    arities = {
        predicate: draw(st.integers(min_value=1, max_value=2))
        for predicate in EDB_PREDICATES + idb
    }

    def rule(head_predicate):
        body = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            predicate = draw(st.sampled_from(EDB_PREDICATES + idb))
            names = draw(st.permutations(VARIABLE_NAMES))[: arities[predicate]]
            body.append(Atom(predicate, tuple(Variable(name) for name in names)))
        variables = sorted({v.name for atom in body for v in atom.variables})
        head = tuple(
            Variable(draw(st.sampled_from(variables)))
            for _ in range(arities[head_predicate])
        )
        return Rule(Atom(head_predicate, head), body)

    rules = [rule(predicate) for predicate in idb]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        rules.append(rule(draw(st.sampled_from(idb))))
    return Program(rules, output=idb[0])


# -- (a) differential: array loop == row loop ------------------------------------------


@pytest.mark.parametrize("semiring_name", ARRAY_SEMIRING_NAMES)
@given(data=st.data())
@ARRAY_SETTINGS
def test_array_rounds_equal_row_rounds(semiring_name, data):
    semiring = get_semiring(semiring_name)
    program = data.draw(array_programs())
    database = data.draw(edb_databases(program, semiring, domain=MIXED_DOMAIN))
    row, row_seed = _evaluate(program, database, "row")
    columnar, columnar_seed = _evaluate(program, database, "columnar")
    assert (row_seed["path"], row_seed["declined"]) == ("rows", "storage")
    assert columnar_seed["path"] == "array" and "declined" not in columnar_seed
    _assert_same_result(row, columnar)


@pytest.mark.parametrize("semiring_name", ARRAY_SEMIRING_NAMES)
@given(data=st.data())
@ARRAY_SETTINGS
def test_columnar_equals_row_on_arbitrary_programs(semiring_name, data):
    # The general strategy mixes in constants, repeated variables and
    # three-atom bodies: some programs run on arrays, the others decline as
    # a whole -- either way the result is the row loop's.
    semiring = get_semiring(semiring_name)
    program = data.draw(programs())
    database = data.draw(edb_databases(program, semiring))
    row, _ = _evaluate(program, database, "row")
    columnar, seed = _evaluate(program, database, "columnar")
    assert (seed["path"], seed.get("declined")) in (("array", None), ("rows", "plan"))
    _assert_same_result(row, columnar)


def test_copies_projections_and_nullary_heads():
    program = Program.parse(
        """
        P(y, x) :- R(x, y)
        Q(x) :- P(x, y)
        N() :- Q(x)
        """
    )
    database = Database(get_semiring("tropical"))
    database.create(
        "R", ["a", "b"], [((1, "u"), 2.0), ((2, "u"), 0.5), ((2, "v"), 4.0)]
    )
    row, _ = _evaluate(program, database, "row")
    columnar, seed = _evaluate(program, database, "columnar")
    assert seed["path"] == "array"
    _assert_same_result(row, columnar)
    values = {(atom.relation, atom.values): v for atom, v in columnar.annotations.items()}
    assert values[("Q", ("u",))] == 0.5 and values[("N", ())] == 0.5


def test_products_reaching_zero_are_never_stored():
    # 1e-200 * 1e-200 underflows to 0.0, Viterbi's zero: the two-hop atom is
    # not derived at all, on either path (Definition 3.1).
    database = Database(get_semiring("viterbi"))
    database.create("R", ["x", "y"], [(("a", "b"), 1e-200), (("b", "c"), 1e-200)])
    program = transitive_closure_program(linear=True)
    row, _ = _evaluate(program, database, "row")
    columnar, seed = _evaluate(program, database, "columnar")
    assert seed["path"] == "array"
    _assert_same_result(row, columnar)
    assert len(columnar.annotations) == 2


# -- flush: the stores the loop leaves behind -----------------------------------------------


def _engine(program, database, storage, **options):
    return _SemiNaiveEngine(program, database, collect=False, storage=storage, **options)


def _state(engine):
    """What the stores hold: annotations, derivable atoms, per-store audits."""
    return (
        engine.annotations(),
        engine.derivable_atoms(),
        [store.audit() for store in engine.stores.values()],
    )


@pytest.mark.parametrize("linear", (True, False))
def test_flush_leaves_rows_indexes_and_relations_consistent(linear):
    database = chain_graph_database(get_semiring("tropical"), length=6, seed=3)
    program = transitive_closure_program(linear=linear)
    engine = _engine(program, database, "columnar", maintain_edb=True)
    changelog = engine.begin_changelog()
    engine.run(100)
    assert engine.round_path == "array" and engine.round_declined is None
    assert engine._arrays.audit() is None
    for store in engine.stores.values():
        assert store.audit() is None
        store.relation.check_consistency()
        assert {tup for _, tup in store.rows} == set(store.relation._annotations)
    # one flush wrote every derived tuple, and the changelog names each
    idb = engine.stores[program.output]
    assert changelog == {program.output: {tup for _, tup in idb.rows}}
    reference = _engine(program, database, "row", maintain_edb=True)
    reference.run(100)
    assert _state(engine) == _state(reference)


# -- (b) declines: the row loop runs, the stores stay sound ---------------------------------


def _graph():
    return chain_graph_database(get_semiring("tropical"), length=5, seed=1)


def _wide_database():
    """One 8-ary fact per row over 300 values: ``600 ** 8`` leaves ``int64``."""
    database = Database(get_semiring("bool"))
    database.create(
        "W", [f"c{i}" for i in range(8)], [((f"v{i}",) * 8, True) for i in range(300)]
    )
    return database


def _unliftable_database():
    database = _graph()
    relation = database.relation("R")
    first = next(iter(relation))
    # A carrier element ``coerce`` accepts but float64 cannot hold, stored
    # past validation (the raw view the engines themselves write through).
    relation._annotations[first] = NatInf(2)
    return database


DECLINES = {
    "a constant": ("T(x, y) :- R(x, y)\nT(x, 'n0') :- T(x, y)", _graph, "plan"),
    "a repeated variable": ("T(x, y) :- R(x, y)\nL(x) :- T(x, x)", _graph, "plan"),
    "a three-atom body": (
        "T(x, y) :- R(x, y)\nT(x, w) :- R(x, y), T(y, z), R(z, w)",
        _graph,
        "plan",
    ),
    "an unliftable annotation": (
        "T(x, y) :- R(x, y)\nT(x, z) :- R(x, y), T(y, z)",
        _unliftable_database,
        "value",
    ),
    "row codes beyond int64": (
        "V(a, b, c, d, e, f, g, h) :- W(a, b, c, d, e, f, g, h)",
        _wide_database,
        "radix",
    ),
    "no vector arithmetic": (
        "T(x, y) :- R(x, y)\nT(x, z) :- R(x, y), T(y, z)",
        lambda: chain_graph_database(get_semiring("posbool"), length=5, seed=1),
        "semiring",
    ),
}


@pytest.mark.parametrize("case", sorted(DECLINES))
def test_declines_run_the_row_loop_before_touching_a_store(case):
    text, make_database, reason = DECLINES[case]
    program, database = Program.parse(text), make_database()
    engine = _engine(program, database, "columnar")
    rounds = engine.run(100)
    assert (engine.round_path, engine.round_declined) == ("rows", reason)
    assert engine._arrays is None
    reference = _engine(program, database, "row")
    assert reference.run(100) == rounds
    assert (reference.round_path, reference.round_declined) == (
        "rows",
        "semiring" if reason == "semiring" else "storage",
    )
    assert _state(engine) == _state(reference)
    assert all(problem is None for problem in _state(engine)[2])
    with tracing() as sink:
        _engine(program, database, "columnar").run(100)
    (seed,) = sink.find("datalog.seed")
    assert (seed.attributes["path"], seed.attributes["declined"]) == ("rows", reason)


def test_collect_mode_and_missing_numpy_decline_as_semiring(monkeypatch):
    database = _graph()
    program = transitive_closure_program(linear=True)
    collecting = _SemiNaiveEngine(program, database, collect=True, storage="columnar")
    assert collecting.round_declined == "semiring"
    monkeypatch.setattr(vectorized, "_np", None)
    engine = _engine(program, database, "columnar")
    engine.run(100)
    assert (engine.round_path, engine.round_declined) == ("rows", "semiring")


# -- (c) divergence: the stores hold the state reached --------------------------------------


@pytest.mark.parametrize("linear", (True, False))
def test_iteration_cap_leaves_the_row_loops_partial_state(linear):
    database = chain_graph_database(get_semiring("tropical"), length=8, seed=2)
    program = transitive_closure_program(linear=linear)
    complete = evaluate_program(program, database, engine="seminaive", storage="row")
    assert complete.iterations >= 5
    states = {}
    for storage in ("row", "columnar"):
        engine = _engine(program, database, storage)
        with pytest.raises(DivergenceError, match="within 2 iterations"):
            engine.run(2)
        states[storage] = _state(engine)
        assert engine.round_path == ("array" if storage == "columnar" else "rows")
    assert states["columnar"] == states["row"]
    assert 0 < len(states["row"][0]) < len(complete.annotations)


# -- (f) spans ------------------------------------------------------------------------------


def test_array_loop_emits_seed_and_round_spans():
    database = chain_graph_database(get_semiring("bool"), length=6, seed=4)
    program = transitive_closure_program(linear=True)
    with tracing() as sink:
        result = evaluate_program(program, database, engine="seminaive", storage="columnar")
    (seed,) = sink.find("datalog.seed")
    rounds = sink.find("datalog.round")
    assert seed.attributes["path"] == "array" and seed.attributes["mode"] == "annotate"
    assert seed.attributes["delta_rows"] == 6
    assert [r.attributes["round"] for r in rounds] == list(range(2, result.iterations + 1))
    assert all(r.attributes["delta_rows"] > 0 for r in rounds)
    assert all(r.attributes["delta_predicates"] == 1 for r in rounds)
