"""Differential update-stream harness: incremental maintenance vs recompute.

:class:`MaterializedView` must agree with full recomputation
*annotation-for-annotation* after every batch of a random update stream, for
every supported semiring: insertions everywhere, deletions everywhere too --
through negated deltas over rings (``Z``, ``Z[X]``) and through the targeted
delete/rederive pass otherwise.  Queries are random positive-algebra
expressions from ``tests/strategies.py``; a shadow copy of the database is
updated independently so the comparison never trusts the view's own
bookkeeping.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import (
    DOMAIN,
    BASE_SCHEMAS,
    VIEW_SEMIRING_NAMES,
    annotation_for,
    ra_queries,
    view_databases,
)

from repro.incremental import (
    MaterializedView,
    UpdateBatch,
    apply_batch_to_database,
    batch_deltas,
)
from repro.semirings import get_semiring

DIFFERENTIAL_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

def _draw_batch(data, semiring, shadow, index: int, *, allow_deletions: bool):
    """One random update batch against the live supports of ``shadow``."""
    insertions = {}
    deletions = {}
    for name in sorted(BASE_SCHEMAS):
        attributes = BASE_SCHEMAS[name]
        count = data.draw(st.integers(min_value=0, max_value=3), label=f"ins {name}")
        entries = []
        for _ in range(count):
            values = tuple(
                data.draw(st.sampled_from(DOMAIN)) for _ in attributes
            )
            index += 1
            entries.append((values, annotation_for(semiring, index, data.draw)))
        if entries:
            insertions[name] = entries
        if allow_deletions:
            support = sorted(
                tup.values_for(attributes) for tup in shadow.relation(name)
            )
            if support and data.draw(st.booleans(), label=f"del {name}?"):
                deletions[name] = [data.draw(st.sampled_from(support))]
    return UpdateBatch(insertions=insertions, deletions=deletions), index


def _run_stream(semiring_name: str, data, *, allow_deletions: bool):
    semiring = get_semiring(semiring_name)
    query, _ = data.draw(ra_queries(), label="query")
    database = data.draw(view_databases(semiring), label="database")
    shadow = database.copy()
    view = MaterializedView(query, database)
    assert view.relation.equal_to(query.evaluate(shadow))
    index = 1000
    batches = data.draw(st.integers(min_value=1, max_value=4), label="batches")
    for _ in range(batches):
        batch, index = _draw_batch(
            data, semiring, shadow, index, allow_deletions=allow_deletions
        )
        changed = view.apply(batch)
        apply_batch_to_database(shadow, batch)
        expected = query.evaluate(shadow)
        assert view.relation.equal_to(expected), (
            f"view diverged from recompute over {semiring.name}\n"
            f"query: {query}\nview:\n{view.relation.to_table()}\n"
            f"expected:\n{expected.to_table()}"
        )
        view.relation.check_consistency()
        if batch.has_deletions:
            # rings delete through negated deltas, everything else through
            # the targeted delete/rederive pass
            expected_mode = (
                "incremental" if semiring.has_negation else "delete_rederive"
            )
            assert view.last_apply_mode == expected_mode
        # the changed-report must agree with the new state tuple-for-tuple
        for tup, value in changed.items():
            assert view.relation.annotation(tup) == value
        # base relations stayed in sync with the shadow
        for name in BASE_SCHEMAS:
            assert database.relation(name).equal_to(shadow.relation(name))


@pytest.mark.parametrize("semiring_name", VIEW_SEMIRING_NAMES)
@DIFFERENTIAL_SETTINGS
@given(data=st.data())
def test_insert_streams_match_recompute(semiring_name, data):
    _run_stream(semiring_name, data, allow_deletions=False)


@pytest.mark.parametrize("semiring_name", VIEW_SEMIRING_NAMES)
@DIFFERENTIAL_SETTINGS
@given(data=st.data())
def test_mixed_streams_match_recompute(semiring_name, data):
    """Insert/delete streams agree with recompute over *every* semiring."""
    _run_stream(semiring_name, data, allow_deletions=True)


def test_delete_rederive_triggers_without_negation():
    """Deletions over a semiring without negation use the targeted pass."""
    from repro import Database, NaturalsSemiring, Q

    database = Database(NaturalsSemiring())
    database.create("R", ["a", "b"], [(("1", "2"), 2), (("2", "3"), 1)])
    database.create("S", ["b", "c"], [(("2", "x"), 3)])
    query = Q.relation("R").join(Q.relation("S")).project("a", "c")
    view = MaterializedView(query, database)
    view.apply(UpdateBatch(insertions={"R": [(("4", "2"), 1)]}))
    assert view.last_apply_mode == "incremental"
    changed = view.apply(UpdateBatch(deletions={"R": [("1", "2")]}))
    assert view.last_apply_mode == "delete_rederive"
    assert not view.supports_deletions
    assert view.relation.equal_to(query.evaluate(database))
    assert changed  # the ('1','x') tuple left the view
    view.relation.check_consistency()


def test_changed_report_excludes_absorbed_updates():
    # Regression: a dominated (idempotent) re-insert changes nothing and must
    # not appear in apply's changed-tuples report.
    from repro import Database, Q, get_semiring

    database = Database(get_semiring("tropical"))
    database.create("R", ["a", "b"], [(("1", "2"), 2.0)])
    view = MaterializedView(Q.relation("R"), database)
    assert view.apply(UpdateBatch(insertions={"R": [(("1", "2"), 5.0)]})) == {}
    assert view.relation.annotation(("1", "2")) == 2.0
    changed = view.apply(UpdateBatch(insertions={"R": [(("1", "2"), 0.5)]}))
    assert list(changed.values()) == [0.5]


def test_batch_deltas_refuses_deletions_without_negation():
    from repro import Database, NaturalsSemiring
    from repro.errors import SemiringError

    database = Database(NaturalsSemiring())
    database.create("R", ["a", "b"], [(("1", "2"), 2)])
    with pytest.raises(SemiringError):
        batch_deltas(database, UpdateBatch(deletions={"R": [("1", "2")]}))
