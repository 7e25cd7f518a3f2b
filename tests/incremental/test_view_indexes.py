"""The child indexes of :class:`MaterializedView`'s join nodes.

A delta join probes a hash index on the other child's materialization, so a
batch that touches only the fact table of a star view must not iterate the
dimension tables once their indexes exist -- over ``Z`` (negated deltas) and
over ``N`` (the delete/rederive pass).  A deterministic stream that alternates
delete/rederive batches and insert batches checks the view against
re-evaluation after every batch, and every built index against one rebuilt
from scratch, on the shapes where a stale index would show first: a
self-join, a join whose two children change in one batch, and a cross
product with no shared attributes.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, Q
from repro.algebra.ast import RelationRef
from repro.incremental import MaterializedView, UpdateBatch
from repro.semirings import get_semiring


class CountingRows(dict):
    """A row store that counts every iteration over it."""

    iterations = 0

    def _count(self):
        self.iterations += 1

    def __iter__(self):
        self._count()
        return super().__iter__()

    def keys(self):
        self._count()
        return super().keys()

    def values(self):
        self._count()
        return super().values()

    def items(self):
        self._count()
        return super().items()


def _nodes(node):
    yield node
    for child in node.children:
        yield from _nodes(child)


def _leaf(view, name):
    (leaf,) = [
        node
        for node in _nodes(view._root)
        if isinstance(node.query, RelationRef) and node.query.name == name
    ]
    return leaf


def _assert_indexes_fresh(view):
    """Every built index holds exactly its child's current support."""
    for node in _nodes(view._root):
        for index in node.indexes:
            if index.buckets is None:
                continue
            want = {}
            for key in index.relation._rows:
                want.setdefault(tuple(key[i] for i in index.positions), set()).add(key)
            got = {group: set(bucket) for group, bucket in index.buckets.items()}
            assert got == want


# -- work pin: a fact-table batch probes the dimensions, never scans them -------

STAR_QUERY = Q.relation("F").join(Q.relation("D1")).join(Q.relation("D2")).project("a", "x", "y")


def _star_database(semiring_name):
    database = Database(get_semiring(semiring_name))
    database.create("F", ["a", "b", "c"], [((a, a % 7, a % 3), 1 + a % 2) for a in range(40)])
    database.create("D1", ["a", "x"], [((a, f"x{a % 5}"), 2) for a in range(60)])
    database.create("D2", ["b", "y"], [((b, f"y{b % 4}"), 1) for b in range(60)])
    return database


def _fact_rows(start, count):
    return [((a % 60, a % 7, a), 1) for a in range(start, start + count)]


@pytest.mark.parametrize(
    "semiring_name, mode", [("z", "incremental"), ("bag", "delete_rederive")]
)
def test_fact_batches_do_not_iterate_the_dimensions(semiring_name, mode):
    database = _star_database(semiring_name)
    view = MaterializedView(STAR_QUERY, database)
    # the first batch builds the dimension indexes (one scan each)
    view.apply(UpdateBatch(insertions={"F": _fact_rows(100, 3)}, deletions={"F": [(0, 0, 0)]}))
    assert view.last_apply_mode == mode
    dimensions = [_leaf(view, name).relation for name in ("D1", "D2")]
    for relation in dimensions:
        relation._rows = CountingRows(relation._rows)
    view.apply(UpdateBatch(insertions={"F": _fact_rows(200, 5)}))
    assert view.last_apply_mode == "incremental"
    view.apply(UpdateBatch(insertions={"F": _fact_rows(300, 5)}, deletions={"F": [(1, 1, 1)]}))
    assert view.last_apply_mode == mode
    assert [relation._rows.iterations for relation in dimensions] == [0, 0]
    assert view.relation.equal_to(STAR_QUERY.evaluate(database))
    _assert_indexes_fresh(view)


def test_only_probed_children_are_indexed():
    view = MaterializedView(STAR_QUERY, _star_database("z"))
    view.apply(UpdateBatch(insertions={"F": _fact_rows(100, 3)}))
    # never the fact side of a join
    built = {
        child.query.name if isinstance(child.query, RelationRef) else type(child.query).__name__
        for node in _nodes(view._root)
        for index, child in zip(node.indexes, node.children)
        if index.buckets is not None
    }
    assert built == {"D1", "D2"}


# -- a deterministic mixed stream on the shapes a stale index breaks ----------

DOMAIN = ("p", "q", "r", "s", "t")
SCHEMAS = {"R": ("a", "b"), "S": ("b", "c"), "T": ("d", "e")}

STREAM_QUERIES = {
    # R ⋈ ρ(R): one base relation feeds both children
    "self_join": Q.relation("R").join(Q.relation("R").rename({"a": "b", "b": "c"})).project("a", "c"),
    # a batch touches R and S, so both children change in one pass
    "both_children": Q.relation("R").join(Q.relation("S")),
    # no shared attributes: every index key is ()
    "cross_product": Q.relation("R").join(Q.relation("T")),
}


def _annotation(semiring_name, rng):
    return True if semiring_name == "bool" else rng.randint(1, 3)


def _stream_database(semiring_name, rng):
    database = Database(get_semiring(semiring_name))
    for name, attributes in SCHEMAS.items():
        rows = {
            tuple(rng.choice(DOMAIN) for _ in attributes): _annotation(semiring_name, rng)
            for _ in range(8)
        }
        database.create(name, list(attributes), rows.items())
    return database


def _stream_batch(database, semiring_name, rng, *, deletions):
    inserted, deleted = {}, {}
    for name, attributes in SCHEMAS.items():
        inserted[name] = [
            (tuple(rng.choice(DOMAIN) for _ in attributes), _annotation(semiring_name, rng))
            for _ in range(rng.randint(0, 3))
        ]
        if deletions:
            support = sorted(
                tup.values_for(attributes) for tup in database.relation(name)
            )
            deleted[name] = rng.sample(support, min(len(support), rng.randint(1, 3)))
    return UpdateBatch(insertions=inserted, deletions=deleted)


@pytest.mark.parametrize("semiring_name", ["bag", "bool"])
@pytest.mark.parametrize("shape", sorted(STREAM_QUERIES))
def test_alternating_stream_matches_recompute(semiring_name, shape):
    query = STREAM_QUERIES[shape]
    rng = random.Random(f"{shape}/{semiring_name}")
    database = _stream_database(semiring_name, rng)
    view = MaterializedView(query, database)
    for number in range(12):
        deletions = number % 2 == 0
        view.apply(_stream_batch(database, semiring_name, rng, deletions=deletions))
        assert view.last_apply_mode == ("delete_rederive" if deletions else "incremental")
        assert view.relation.equal_to(query.evaluate(database)), (shape, number)
        view.relation.check_consistency()
        _assert_indexes_fresh(view)
    # the stream reached every index the shape has
    assert all(
        index.buckets is not None for node in _nodes(view._root) for index in node.indexes
    )
