"""A datalog result's ``ground`` views describe the state it was computed on.

``DatalogResult.ground`` of the round loops (and of ``IncrementalDatalog`` over
an idempotent semiring) is a rule-less snapshot -- the IDB atoms and a copy of
the EDB rows -- decoded on first read.  Its ``derivable`` atoms must be the EDB
facts plus the annotated IDB atoms and its ``edb_annotations`` the database's
EDB facts, exactly as :func:`collect_edb_annotations` reads them, no matter
what happens to the result's annotation map or to the database after the
result is returned.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest
from strategies import row_loop

from repro.datalog import evaluate_program
from repro.datalog.grounding import collect_edb_annotations
from repro.engine import vectorized
from repro.incremental import IncrementalDatalog
from repro.obs import tracing
from repro.semirings import get_semiring
from repro.workloads import chain_graph_database, transitive_closure_program
from repro.workloads.generators import random_annotation

needs_numpy = pytest.mark.skipif(
    not vectorized.numpy_available(), reason="the array loop needs a numpy runtime"
)


def _expected_views(program, database, annotations):
    """``(derivable, edb_annotations)`` as the views must report them now."""
    edb = collect_edb_annotations(program, database)
    return frozenset(edb) | annotations.keys(), edb


def _assert_views(result, expected):
    derivable, edb = expected
    assert result.ground.derivable == derivable
    assert result.ground.edb_annotations == edb


def _new_edge(database, index):
    semiring = database.semiring
    return [(("n2", f"m{index}"), random_annotation(semiring, random.Random(index), index))]


@pytest.mark.parametrize(
    "semiring_name, linear, path",
    [
        pytest.param("bool", True, "array", marks=needs_numpy),
        pytest.param("tropical", True, "array", marks=needs_numpy),
        ("tropical", False, "rows"),  # quadratic TC, on the row loop
        ("why", True, "rows"),  # no declared carrier
    ],
)
def test_round_loop_results_snapshot_their_views(semiring_name, linear, path):
    database = chain_graph_database(get_semiring(semiring_name), length=6, seed=3)
    program = transitive_closure_program(linear=linear)
    with tracing() as sink, row_loop() if path == "rows" else nullcontext():
        result = evaluate_program(program, database)
    (seed,) = sink.find("datalog.seed")
    assert seed.attributes["path"] == path
    assert result.annotations
    expected = _expected_views(program, database, result.annotations)

    # Neither the caller's edits nor later database updates reach the
    # views, which are first read only after both.
    result.annotations.clear()
    relation = database.relation("R")
    relation.discard(("n0", "n1"))
    for row, annotation in _new_edge(database, 1):
        relation.add(row, annotation)
    _assert_views(result, expected)


@pytest.mark.parametrize("semiring_name", ["tropical", "bool", "why", "natinf"])
def test_maintained_results_snapshot_their_views(semiring_name):
    database = chain_graph_database(get_semiring(semiring_name), length=6, seed=3)
    program = transitive_closure_program(linear=True)
    maintained = IncrementalDatalog(program, database)

    results = []
    for update in ("start", "insert", "remove"):
        if update == "insert":
            maintained.insert("R", _new_edge(database, 2))
        elif update == "remove":
            maintained.remove("R", [("n3", "n4")])
        result = maintained.result
        results.append((result, _expected_views(program, database, result.annotations)))
    edges = database.relation("R")
    assert edges._key(("n2", "m2")) in edges._rows
    assert edges._key(("n3", "n4")) not in edges._rows

    # Each result's views are first read after every update (and, for the
    # last one, after the caller cleared its annotations): they still report
    # the state the result was computed on.
    results[-1][0].annotations.clear()
    for result, expected in results:
        _assert_views(result, expected)
