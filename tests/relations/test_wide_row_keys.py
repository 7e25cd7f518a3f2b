"""Wide relations whose key order differs from their display order.

A relation stores each row under its values in sorted-attribute order.  With
eleven attributes ``c1`` .. ``c11`` that order is ``c1, c10, c11, c2, ...``,
so every position an engine computes must be a key position, not a display
position.  Each route that reads or writes row keys -- the column kernels,
the row pipeline (:func:`strategies.row_loop`), the operator oracle, the
semi-naive array and row rounds, collect mode solved by ``solve_ground``
and :meth:`~repro.incremental.MaterializedView.apply` -- must give the same
annotations, and the right ones.
"""

from __future__ import annotations

import pytest

from strategies import row_loop

from repro import Database, MaterializedView, Q, UpdateBatch
from repro.algebra.predicates import AttrEqualsConst, AttrNotEqualsConst
from repro.datalog import Program, evaluate_program, ground_program
from repro.datalog.fixpoint import solve_ground
from repro.datalog.seminaive import _SemiNaiveEngine
from repro.engine import vectorized
from repro.engine.compile import execute, execute_rows
from repro.obs import tracing
from repro.semirings import get_semiring

WIDE = tuple(f"c{i}" for i in range(1, 12))
#: display positions of ``c10`` and ``c2``: lexical and positional orders differ
assert sorted(WIDE)[1] == "c10" and sorted(WIDE)[3] == "c2"


def _row(i: int) -> tuple:
    """Row ``i``: ``c2`` cycles through 3 values, ``c10`` through 2, the
    rest through as many values as their index, so rows are distinct."""
    return tuple(f"v{(i % n) if n > 1 else i}" for n in range(1, 12))


def _database(semiring_name: str) -> Database:
    semiring = get_semiring(semiring_name)
    database = Database(semiring)
    one = semiring.one()
    database.create("W", WIDE, [(_row(i), one) for i in range(24)])
    database.create("D", ["c2", "name"], [((f"v{i}", f"d{i}"), one) for i in range(3)])
    return database


#: Plans the column kernels decline (an opaque predicate): the row routes only.
ROW_ONLY = {"opaque"}


def _queries():
    wide = Q.relation("W")
    return {
        "project": wide.project("c10", "c2", "c11"),
        "select": wide.select(AttrEqualsConst("c10", "v1")).project("c2", "c10"),
        "not_equal": wide.select(AttrNotEqualsConst("c2", "v0")).project("c10", "c3"),
        "opaque": wide.select(lambda tup: tup["c10"] == "v1" and tup["c2"] != "v0").project(
            "c2", "c11"
        ),
        "join": wide.join(Q.relation("D")).project("name", "c10", "c1"),
        "rename": wide.rename({"c1": "c12", "c2": "a"}).project("a", "c12", "c10"),
        "union": wide.project("c2", "c10").union(
            wide.rename({"c2": "c10", "c10": "c2"}).project("c2", "c10")
        ),
    }


def _by_values(relation, attributes):
    return {tup.values_for(attributes): value for tup, value in relation.items()}


@pytest.mark.parametrize("semiring_name", ("bag", "tropical", "nx"))
@pytest.mark.parametrize("query_name", sorted(_queries()))
def test_every_ra_route_agrees_on_wide_keys(semiring_name, query_name):
    database = _database(semiring_name)
    query = _queries()[query_name]
    oracle = query._execute(database)
    assert len(oracle) > 0
    routes = {"rows": execute_rows(query, database)}
    with row_loop():
        routes["row loop"] = execute(query.optimized(database), database)
    if vectorized.numpy_available() and query_name not in ROW_ONLY:
        columns = vectorized.try_execute(query, database)
        assert columns is not None
        routes["columns"] = columns
    attributes = tuple(oracle.schema.attributes)
    expected = _by_values(oracle, attributes)
    for name, relation in routes.items():
        assert relation.equal_to(oracle), name
        assert _by_values(relation, attributes) == expected, name
        relation.check_consistency()


def test_the_oracle_reads_the_right_columns():
    database = _database("bag")
    projected = Q.relation("W").project("c10", "c2")._execute(database)
    expected = {}
    for i in range(24):
        values = _row(i)
        key = (values[9], values[1])
        expected[key] = expected.get(key, 0) + 1
    assert _by_values(projected, ("c10", "c2")) == expected


PROGRAM = (
    "T(c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11) :- "
    "W(c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11)\n"
    "P(x, y) :- W(c1, x, c3, c4, c5, c6, c7, c8, c9, y, c11)\n"
    "P(x, z) :- P(x, y), P(y, z)"
)


def _program_rows():
    """Rows of ``W``; their ``c2 -> c10`` edges form cycles (``v0 -> v1 -> v0``)."""
    rows = []
    for i in range(12):
        values = list(_row(i))
        values[9] = f"v{(i + 1) % 3}"
        rows.append(tuple(values))
    return rows


def _program_database(semiring_name: str) -> Database:
    semiring = get_semiring(semiring_name)
    database = Database(semiring)
    rows = [
        (values, 1.0 + i % 3 if semiring_name == "tropical" else semiring.one())
        for i, values in enumerate(_program_rows())
    ]
    database.create("W", WIDE, rows)
    return database


def _closure() -> set:
    """``P``'s support computed directly: the transitive closure of the
    ``(c2, c10)`` pairs of ``W``, read by display position."""
    pairs = {(values[1], values[9]) for values in _program_rows()}
    while True:
        more = {(x, z) for x, y in pairs for w, z in pairs if y == w} - pairs
        if not more:
            return pairs
        pairs |= more


@pytest.mark.parametrize("semiring_name", ("tropical", "bool"))
def test_array_rounds_row_rounds_and_collect_mode_agree(semiring_name):
    database = _program_database(semiring_name)
    program = Program.parse(PROGRAM)
    with tracing() as sink:
        array = evaluate_program(program, database)
    (seed,) = sink.find("datalog.seed")
    if vectorized.numpy_available():
        assert seed.attributes["path"] == "array"
    with row_loop():
        rows = evaluate_program(program, database)
    collect = solve_ground(ground_program(program, database), database.semiring)
    assert array.annotations == rows.annotations == collect.annotations
    engine = _SemiNaiveEngine(program, database, collect=False)
    engine.run(100)
    for store in engine.stores.values():
        assert store.audit() is None
    wide = array.relation("T", database)
    assert wide.equal_to(database.relation("W"))
    pairs = array.relation("P", database)
    assert _by_values(pairs, ("x", "y")) == {
        atom.values: value for atom, value in array.annotations.items() if atom.relation == "P"
    }
    assert set(_by_values(pairs, ("x", "y"))) == _closure()


def test_collect_mode_over_a_non_idempotent_semiring():
    database = _program_database("bag")
    program = Program.parse(PROGRAM.split("\n")[0])
    result = evaluate_program(program, database)
    assert result.relation("T", database).equal_to(database.relation("W"))


@pytest.mark.parametrize("semiring_name", ("bag", "z", "bool"))
def test_materialized_view_apply_on_wide_keys(semiring_name):
    database = _database(semiring_name)
    semiring = database.semiring
    query = _queries()["join"].select(AttrEqualsConst("c10", "v0"))
    view = MaterializedView(query, database)
    inserted = list(f"n{i}" for i in range(11))
    inserted[1], inserted[9] = "v1", "v0"  # c2 joins D, c10 passes the selection
    batches = [
        UpdateBatch(insertions={"W": [(tuple(inserted), semiring.one())]}),
        UpdateBatch(deletions={"W": [_row(0)]}),  # c10 = "v0": leaves the view
    ]
    for batch in batches:
        changed = view.apply(batch)
        assert changed
        expected = query._execute(database)
        assert view.relation.equal_to(expected)
        for tup, value in changed.items():
            assert value == expected.annotation(tup)
