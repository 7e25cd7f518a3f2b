"""Maintenance on columnar stores resumes from the array-resident state.

``tests/incremental/test_deletion.py`` already replays random insert / delete
streams on both backends against fresh evaluation (and asserts the columnar
legs ran on arrays); this file pins what is particular to the array state of
:mod:`repro.datalog.arraystore` being a *cache over the stores*: which updates
extend it, which drop it, that the rebuilt state resumes exactly, that the
changelog a cached result is patched from names every tuple a flush wrote, and
that :meth:`IncrementalDatalog.check_consistency` audits it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datalog import evaluate_program
from repro.engine import vectorized
from repro.errors import DatalogError
from repro.incremental import IncrementalDatalog
from repro.relations.database import Database
from repro.semirings import get_semiring

pytestmark = pytest.mark.skipif(
    not vectorized.numpy_available(),
    reason="the array path needs a numpy runtime",
)

TC_LINEAR = "T(x, y) :- R(x, y)\nT(x, z) :- R(x, y), T(y, z)"
TC_QUADRATIC = "T(x, y) :- R(x, y)\nT(x, z) :- T(x, y), T(y, z)"

NODES = tuple(f"n{i}" for i in range(7))
COSTS = (0.5, 1.0, 2.0, 3.5)


def _maintained(program=TC_LINEAR, rows=(), semiring_name="tropical"):
    database = Database(get_semiring(semiring_name))
    database.create("R", ["x", "y"], list(rows), storage="columnar")
    return IncrementalDatalog(program, database, storage="columnar"), database


def _assert_equals_rebuild(maintained, database):
    maintained.check_consistency()
    fresh = evaluate_program(
        maintained.program, database, engine="seminaive", storage="row"
    )
    assert maintained.result.annotations == fresh.annotations
    assert maintained.result.ground.derivable == fresh.ground.derivable


@pytest.mark.parametrize("program", (TC_LINEAR, TC_QUADRATIC))
@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_interleaved_stream_equals_a_rebuild_after_every_step(program, data):
    maintained, database = _maintained(program)
    engine = maintained._engine
    edges = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))
    for _ in range(data.draw(st.integers(min_value=3, max_value=8), label="steps")):
        maintained.result  # a cached result: the next update must patch it
        rows = data.draw(st.lists(edges, min_size=1, max_size=3), label="rows")
        if data.draw(st.booleans(), label="delete?"):
            maintained.remove("R", rows)
        else:
            costs = data.draw(
                st.lists(st.sampled_from(COSTS), min_size=len(rows), max_size=len(rows))
            )
            maintained.insert("R", list(zip(rows, costs)))
        assert maintained._engine is engine  # never rebuilt
        _assert_equals_rebuild(maintained, database)
    assert engine.round_path == "array" and engine.round_declined is None


def test_appended_facts_extend_the_state_in_place():
    maintained, database = _maintained(rows=[(("a", "b"), 1.0), (("b", "c"), 1.0)])
    state = maintained._engine._arrays
    assert state is not None and state.audit() is None
    maintained.insert("R", [(("c", "d"), 2.0), (("a", "c"), 5.0)])
    assert maintained._engine._arrays is state  # same object, grown
    assert len(state.columns["R"].ann) == 4
    _assert_equals_rebuild(maintained, database)


def test_a_rewritten_annotation_drops_the_state_and_the_rebuilt_one_resumes():
    maintained, database = _maintained(rows=[(("a", "b"), 4.0), (("b", "c"), 1.0)])
    state = maintained._engine._arrays
    maintained.insert("R", [(("a", "b"), 1.5)])  # a cheaper cost for a known edge
    assert maintained._engine._arrays is not state
    assert maintained._engine.round_path == "array"
    assert maintained.relation("T").annotation(("a", "c")) == 2.5
    _assert_equals_rebuild(maintained, database)


def test_a_deletion_drops_the_state_and_the_next_loop_rebuilds_it():
    rows = [(("a", "b"), 1.0), (("b", "c"), 1.0), (("a", "c"), 5.0), (("c", "d"), 1.0)]
    maintained, database = _maintained(rows=rows)
    maintained.remove("R", [("b", "c")])
    assert maintained.last_delete_mode == "dred"
    _assert_equals_rebuild(maintained, database)
    maintained.insert("R", [(("b", "c"), 0.5)])
    assert maintained._engine.round_path == "array"
    assert maintained.relation("T").annotation(("a", "d")) == 2.5
    _assert_equals_rebuild(maintained, database)


def test_a_domain_outgrowing_the_radix_rekeys_the_state():
    maintained, database = _maintained(rows=[(("a", "b"), 1.0)])
    state = maintained._engine._arrays
    radix = state.radix
    chain = [((f"m{i}", f"m{i + 1}"), 1.0) for i in range(radix)]
    maintained.insert("R", chain + [(("b", "m0"), 1.0)])
    rekeyed = maintained._engine._arrays
    assert rekeyed is not state and rekeyed.radix > radix
    assert maintained.relation("T").annotation(("a", f"m{radix}")) == radix + 2.0
    _assert_equals_rebuild(maintained, database)


@pytest.mark.parametrize("program", (TC_LINEAR, TC_QUADRATIC))
def test_changelog_names_every_tuple_the_flush_wrote(program):
    rows = [(("a", "b"), 3.0), (("b", "c"), 1.0), (("c", "d"), 1.0), (("a", "d"), 9.0)]
    maintained, _ = _maintained(program, rows)
    engine = maintained._engine
    relation = engine.stores["T"].relation
    before = dict(relation.items())
    changelog = engine.begin_changelog()
    engine.apply_edb_delta(
        "R", [(engine.stores["R"].relation._coerce_tuple(("b", "d")), 0.5)]
    )
    engine.end_changelog()
    after = dict(relation.items())
    written = {tup for tup in after if before.get(tup) != after[tup]}
    # (b,d) is new, (a,d) improves from 5.0 to 3.5: one appended, one rewritten
    assert {tuple(sorted(tup.as_dict().items())) for tup in written} == {
        (("x", "b"), ("y", "d")),
        (("x", "a"), ("y", "d")),
    }
    assert changelog["T"] == written
    assert engine._arrays.audit() is None


def test_check_consistency_audits_the_array_state():
    maintained, _ = _maintained(rows=[(("a", "b"), 1.0), (("b", "c"), 1.0)])
    maintained.check_consistency()
    columns = maintained._engine._arrays.columns["T"]
    columns.ann[0] += 1.0
    with pytest.raises(DatalogError, match="array state"):
        maintained.check_consistency()
    columns.ann[0] -= 1.0
    columns.rows[:2] = columns.rows[:2][::-1].copy()
    with pytest.raises(DatalogError, match="key index"):
        maintained.check_consistency()
