"""The column-encoding cache on a K-relation never serves a stale scan.

The whole-column kernels encode a relation once and keep the encoding on the
:class:`~repro.relations.krelation.KRelation` until its next mutation.  This
sweep interleaves every way a relation can change -- the ``add`` / ``set`` /
``discard`` / ``merge_delta`` / ``_accumulate`` mutators, raw writes through
``_annotations``, :func:`repro.incremental.delta.apply_delta`, and
:class:`~repro.incremental.IncrementalDatalog` maintaining an EDB relation a
query also reads -- with planned runs of :func:`repro.engine.execute`, and
checks every answer against operator-at-a-time ``Query._execute``, which
never reads the cache.
A deterministic table then runs each mutation once over every semiring with
vector arithmetic, on a change no stale encoding could hide, and checks that
the encoding the next planned scan builds counts the new support.  Planning
reads schemas only, so evaluating a query encodes only the relations the
kernels scan, and ``planner.explain`` encodes none.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import (
    BASE_SCHEMAS,
    DOMAIN,
    annotation_for,
    ra_queries,
    row_loop,
    view_databases,
)

from repro.algebra.ast import Q
from repro.engine import execute, vectorized
from repro.incremental import IncrementalDatalog
from repro.incremental.delta import apply_delta
from repro.relations.krelation import KRelation
from repro.semirings import available_semirings, get_semiring

#: The vectorizable semirings the sweep runs over: a sum carrier and a
#: min carrier.
SEMIRING_NAMES = ("bag", "tropical")


def _carrier_semiring_names() -> tuple:
    """One registry name per semiring that declares an array carrier."""
    by_semiring = {}
    for name in available_semirings():
        semiring = get_semiring(name)
        if semiring.carrier is not None:
            by_semiring.setdefault(semiring.name, name)
    return tuple(by_semiring.values())


#: Every semiring with vector arithmetic.
VECTOR_SEMIRING_NAMES = _carrier_semiring_names()

#: Transitive closure over ``R``, the relation most random queries read.
TC_PROGRAM = "T(x, y) :- R(x, y)\nT(x, z) :- R(x, y), T(y, z)"

def _planned(query, database):  # the planned side, whatever the input size
    return execute(query.optimized(database), database)


MUTATIONS = (
    "add",
    "set",
    "discard",
    "merge_delta",
    "raw write",
    "raw delete",
    "accumulate",
    "apply_delta",
    "datalog insert",
    "datalog remove",
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _row(draw, name):
    return tuple(draw(st.sampled_from(DOMAIN)) for _ in BASE_SCHEMAS[name])


def _mutate(data, database, maintained, counter):
    """Apply one drawn mutation to a base relation of ``database``."""
    semiring = database.semiring
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    name = "R" if kind.startswith("datalog") else data.draw(
        st.sampled_from(sorted(BASE_SCHEMAS)), label="relation"
    )
    relation = database.relation(name)
    row = _row(data.draw, name)
    counter[0] += 1
    value = annotation_for(semiring, counter[0], data.draw)
    if kind == "add":
        relation.add(row, value)
    elif kind == "set":
        relation.set(row, value)
    elif kind == "discard":
        relation.discard(row)
    elif kind == "merge_delta":
        relation.merge_delta([(row, semiring.coerce(value))])
    elif kind == "accumulate":
        relation._accumulate(relation._key(row), semiring.coerce(value))
    elif kind == "raw write":
        relation._annotations[relation._key(row)] = semiring.coerce(value)
    elif kind == "raw delete":
        relation._annotations.pop(relation._key(row), None)
    elif kind == "apply_delta":
        apply_delta(relation, KRelation(semiring, relation.schema, [(row, value)]))
    elif kind == "datalog insert":
        maintained.insert("R", [(row, value)])
    else:
        maintained.remove("R", [row])


@pytest.mark.parametrize("semiring_name", SEMIRING_NAMES)
@given(data=st.data())
@SETTINGS
def test_pipelined_answers_follow_every_mutation(semiring_name, data):
    semiring = get_semiring(semiring_name)
    database = data.draw(view_databases(semiring), label="database")
    queries = [data.draw(ra_queries(), label="query")[0] for _ in range(2)]
    queries.append(Q.relation("R").project("a"))  # always vectorizable
    maintained = IncrementalDatalog(TC_PROGRAM, database, on_divergence="skip")
    counter = [1000]
    for _ in range(data.draw(st.integers(min_value=1, max_value=6), label="steps")):
        for query in queries:
            pipelined = _planned(query, database)
            assert pipelined.equal_to(query._execute(database)), str(query)
        _mutate(data, database, maintained, counter)
    for query in queries:
        pipelined = _planned(query, database)
        assert pipelined.equal_to(query._execute(database)), str(query)


@pytest.mark.skipif(not vectorized.numpy_available(), reason="needs numpy")
def test_a_scan_fills_the_cache_and_a_mutation_drops_it():
    from repro import Database

    database = Database(get_semiring("bag"))
    relation = database.create("R", ["a", "b"], [(("x", "y"), 2), (("y", "z"), 3)])
    query = Q.relation("R").project("a")
    assert relation._scan_cache is None
    _planned(query, database)
    cache = relation._scan_cache
    assert cache is not None
    _planned(query, database)
    assert relation._scan_cache is cache  # an unchanged relation re-scans for free
    relation.add(("x", "w"), 1)
    assert relation._scan_cache is None
    answer = _planned(query, database)
    assert answer.annotation(("x",)) == 3
    assert relation._scan_cache is not None
    assert isinstance(relation._annotations, dict)  # handing it out drops the cache
    assert relation._scan_cache is None


@pytest.mark.parametrize("semiring_name", ("nat", "polynomial", "why"))
def test_only_the_kernels_encode_a_relation(semiring_name):
    """A planned ``Query.evaluate`` encodes a relation only where the column
    kernels scan it: the planner reads schemas only, so a run the kernels
    do not take encodes nothing.  With numpy the kernels scan under every
    semiring, a carrier or not.  ``planner.explain`` encodes nothing."""
    from repro import Database
    from repro.planner import explain

    semiring = get_semiring(semiring_name)
    one = semiring.one()
    database = Database(semiring)
    relations = [
        database.create("R", ["a", "b"], [((str(i), str(i % 4)), one) for i in range(16)]),
        database.create("S", ["b", "c"], [((str(i % 4), str(i)), one) for i in range(16)]),
    ]
    query = Q.relation("R").join(Q.relation("S")).project("a", "c")
    assert query.uses_planner(database)
    with row_loop():
        query.evaluate(database)
    assert [relation._scan_cache for relation in relations] == [None] * 2
    query.evaluate(database)
    scanned = vectorized.numpy_available()
    assert [relation._scan_cache is not None for relation in relations] == [scanned] * 2
    for relation in relations:
        relation._annotations  # handing the store out drops the encoding
    explain(query, database)
    assert [relation._scan_cache for relation in relations] == [None] * 2


#: Mutations that take a tuple out of ``R``; the others put one in.
REMOVALS = ("discard", "raw delete", "datalog remove")


def _mutate_once(kind, relation, maintained):
    """``kind`` applied to ``R = {(x, y), (y, z)}``: removing ``(y, z)`` or
    inserting ``(w, y)`` adds or drops a whole group of ``R``'s projection
    on ``a`` over every semiring, idempotent ones included."""
    semiring = relation.semiring
    one = semiring.one()
    row = ("y", "z") if kind in REMOVALS else ("w", "y")
    key = relation._key(row)
    if kind == "add":
        relation.add(row, one)
    elif kind == "set":
        relation.set(row, one)
    elif kind == "discard":
        relation.discard(row)
    elif kind == "merge_delta":
        relation.merge_delta([(row, one)])
    elif kind == "accumulate":
        relation._accumulate(key, one)
    elif kind == "raw write":
        relation._annotations[key] = one
    elif kind == "raw delete":
        del relation._annotations[key]
    elif kind == "apply_delta":
        apply_delta(relation, KRelation(semiring, relation.schema, [(row, one)]))
    elif kind == "datalog insert":
        maintained.insert("R", [(row, one)])
    else:
        maintained.remove("R", [row])


@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("semiring_name", VECTOR_SEMIRING_NAMES)
def test_each_mutation_drops_the_cache_and_the_next_scan_sees_it(semiring_name, kind):
    from repro import Database

    semiring = get_semiring(semiring_name)
    one = semiring.one()
    database = Database(semiring)
    relation = database.create("R", ["a", "b"], [(("x", "y"), one), (("y", "z"), one)])
    database.create("S", ["b", "c"], [(("y", "u"), one), (("z", "v"), one)])
    maintained = IncrementalDatalog(TC_PROGRAM, database, on_divergence="skip")
    queries = (Q.relation("R").project("a"), Q.relation("R").join(Q.relation("S")))
    before = [_planned(q, database) for q in queries]
    if vectorized.numpy_available():
        assert relation._scan_cache is not None
    _mutate_once(kind, relation, maintained)
    assert relation._scan_cache is None
    relation.check_consistency()
    groups = {tup["a"] for tup in relation}
    assert groups == ({"x"} if kind in REMOVALS else {"x", "y", "w"})
    for query in queries:
        pipelined = _planned(query, database)
        assert pipelined.equal_to(query._execute(database)), str(query)
    if vectorized.numpy_available():
        # R is {(x, y)} or {(x, y), (y, z), (w, y)}: the encoding the next
        # scan built counts the new support, not the one the earlier scans
        # cached.
        columns, _ = relation._scan_cache
        counts = (len(relation), len(columns["a"].uniques), len(columns["b"].uniques))
        assert counts == ((1, 1, 1) if kind in REMOVALS else (3, 3, 2))
    assert {tup["a"] for tup in pipelined} != {tup["a"] for tup in before[1]}
    projected = _planned(queries[0], database)
    assert {tup["a"] for tup in projected} == groups
    if vectorized.numpy_available():
        assert relation._scan_cache is not None
