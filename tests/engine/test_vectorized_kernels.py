"""Unit coverage of the whole-column kernels.

The differential harnesses prove the vectorized engine *agrees* with the
row engine end-to-end; this file pins down the pieces in isolation --
``fire_linear_join``'s arrays-in / arrays-out contract (grouped totals,
deliberate zero totals under a ring, its two instance guards),
``VectorOps.add``, exact group-by accumulation past int64, the overflow
guard at ``-2**63``, the numpy-missing degradation, and ``evaluate_program`` against
ground-then-solve over every vectorizable semiring plus a
non-vectorizable control -- and the
group-by itself: ``group_codes``
against a dict oracle on both sides of its direct-addressing span
threshold, ``_group``'s decode-from-key against the row engine, and the
shared ``(attribute, value)`` pairs of materialized ``Tup``s -- and that
a semiring takes a numeric carrier by its declaration alone: exactly the
six declaring semirings (instrumented or not) get one, and products named
after one of them do not.  Every other semiring runs the kernels on an
``ObjectCarrier``: its accumulation left-folds each group in contribution
order, and over N[X], Why and circuits a planned ``evaluate`` answers on
the columns and counts the row pipeline's semiring operations.
"""

from __future__ import annotations

import pickle

import pytest

from strategies import annotation_for, row_loop
from tests.conftest import ALL_SEMIRINGS

from repro import Database, IncrementalDatalog, KRelation, Q
from repro.algebra.ast import PLANNED_INPUT_ROWS
from repro.datalog import evaluate_program, ground_program, solve_ground
from repro.datalog.seminaive import _SemiNaiveEngine
from repro.engine import combine_contributions, execute, vectorized
from repro.obs import instrument, tracing
from repro.semirings import (
    BooleanSemiring,
    FuzzySemiring,
    IntegerRing,
    NaturalsSemiring,
    ProductSemiring,
    TropicalSemiring,
    ViterbiSemiring,
    get_semiring,
)
from repro.semirings.carriers import ObjectCarrier
from repro.workloads import random_graph_database, transitive_closure_program

requires_numpy = pytest.mark.skipif(
    not vectorized.numpy_available(),
    reason="vectorized kernels need a numpy runtime",
)


def _interned(table, *columns):
    """One ``int64`` code array per value column, through one shared interner."""
    import numpy as np

    return [
        np.array([table.setdefault(v, len(table)) for v in column], dtype=np.int64)
        for column in columns
    ]


@requires_numpy
class TestFireLinearJoin:
    """Arrays in (code columns, lifted annotations, a sorted build index),
    arrays out (distinct head codes ascending + one total each)."""

    RADIX = 16

    def _ops(self, name):
        ops = vectorized.vector_ops_for(get_semiring(name))
        assert ops is not None
        return ops

    def _fire(self, ops, probe, probe_ann, build, build_ann, key, head):
        """``key`` pairs a probe with a build position; returns ``{head: total}``."""
        table = {}
        probe_cols = _interned(table, *probe)
        build_cols = _interned(table, *build)
        build_index = vectorized.sort_codes(
            vectorized.combine_codes(
                [build_cols[b] for _, b in key], self.RADIX, len(build_ann)
            )
        )
        fired = vectorized.fire_linear_join(
            ops,
            dict(enumerate(probe_cols)),
            ops.to_array(probe_ann),
            build_cols,
            ops.to_array(build_ann),
            build_index,
            [p for p, _ in key],
            head,
            self.RADIX,
        )
        assert fired is not False
        codes, totals = fired
        assert list(codes) == sorted(set(codes.tolist()))  # ascending, distinct
        values = list(table)
        columns = vectorized.split_codes(codes, self.RADIX, len(head))
        heads = zip(*([values[c] for c in column.tolist()] for column in columns))
        return dict(zip(heads, totals.tolist())) if head else totals.tolist()

    def test_grouped_totals_match_the_hand_computed_join(self):
        # delta(a, b) ⋈ stored(b, c) grouped on (a, c) over N: the classic
        # two-hop shape the semi-naive recipe compiles TC rules into.
        totals = self._fire(
            self._ops("bag"),
            probe=(["x", "x", "y"], ["m", "n", "m"]),
            probe_ann=[2, 3, 5],
            build=(["m", "n", "m"], ["p", "p", "q"]),
            build_ann=[7, 11, 13],
            key=[(1, 0)],
            head=[("p", 0), ("b", 1)],
        )
        # (x,p): x-m(2*7) + x-n(3*11) = 47; (x,q): 2*13 = 26
        # (y,p): 5*7 = 35;              (y,q): 5*13 = 65
        assert totals == {("x", "p"): 47, ("x", "q"): 26, ("y", "p"): 35, ("y", "q"): 65}

    def test_selective_totals_keep_the_best_contribution(self):
        totals = self._fire(
            self._ops("tropical"),
            probe=(["x", "x"], ["m", "n"]),
            probe_ann=[1.0, 4.0],
            build=(["m", "n"], ["p", "p"]),
            build_ann=[2.5, 0.25],
            key=[(1, 0)],
            head=[("b", 1), ("p", 0)],
        )
        assert totals == {("p", "x"): 3.5}

    def test_zero_totals_are_emitted_for_merge_delta_to_cancel(self):
        # Under Z two contributions to the same head tuple may cancel; the
        # kernel returns the exact zero -- the merge owns the stored-zero rule.
        totals = self._fire(
            self._ops("z"),
            probe=(["x", "x"], ["m", "n"]),
            probe_ann=[1, -1],
            build=(["m", "n"], ["p", "p"]),
            build_ann=[4, 4],
            key=[(1, 0)],
            head=[("p", 0), ("b", 1)],
        )
        assert totals == {("x", "p"): 0}

    def test_no_shared_variable_is_a_cross_product(self):
        totals = self._fire(
            self._ops("bag"),
            probe=(["x", "y"],),
            probe_ann=[2, 3],
            build=(["p", "q"],),
            build_ann=[5, 7],
            key=[],
            head=[("p", 0), ("b", 0)],
        )
        assert totals == {("x", "p"): 10, ("x", "q"): 14, ("y", "p"): 15, ("y", "q"): 21}

    def test_empty_sides_fire_trivially(self):
        ops = self._ops("bag")
        shape = dict(key=[(1, 0)], head=[("p", 0), ("b", 1)])
        unmatched = self._fire(
            ops, (["x"], ["m"]), [2], (["n"], ["p"]), [1], **shape
        )
        no_delta = self._fire(ops, ([], []), [], (["n"], ["p"]), [1], **shape)
        assert unmatched == no_delta == {}

    def test_a_nullary_head_groups_everything_into_one_total(self):
        totals = self._fire(
            self._ops("bool"),
            probe=(["x", "y"],),
            probe_ann=[True, True],
            build=(["x"],),
            build_ann=[True],
            key=[(0, 0)],
            head=[],
        )
        assert totals == [True]

    def test_guards_decline_instead_of_wrapping(self):
        import numpy as np

        ops = self._ops("bag")
        one = np.zeros(1, dtype=np.int64)
        index = vectorized.sort_codes(one)
        big = ops.to_array([1 << 40])
        # int64 overflow in the annotation product ...
        assert (
            vectorized.fire_linear_join(
                ops, {0: one}, big, [one], big, index, [0], [("p", 0)], 2
            )
            is False
        )
        # ... and a head whose mixed-radix code would leave int64.
        assert (
            vectorized.fire_linear_join(
                ops,
                {0: one},
                ops.to_array([1]),
                [one],
                ops.to_array([1]),
                index,
                [0],
                [("p", 0)] * 3,
                1 << 21,
            )
            is False
        )


@requires_numpy
@pytest.mark.parametrize(
    "name, left, right, total",
    [
        ("bag", [1, 2], [3, 4], [4, 6]),
        ("tropical", [1.0, 5.0], [2.0, 0.5], [1.0, 0.5]),
        ("viterbi", [0.25, 0.5], [0.5, 0.125], [0.5, 0.5]),
        ("bool", [True, False], [False, False], [True, False]),
    ],
)
def test_vector_add_is_the_elementwise_semiring_plus(name, left, right, total):
    semiring = get_semiring(name)
    ops = vectorized.vector_ops_for(semiring)
    assert ops.add(ops.to_array(left), ops.to_array(right)).tolist() == total
    assert total == [semiring.add(a, b) for a, b in zip(left, right)]


@requires_numpy
def test_int_vector_add_guards_overflow():
    ops = vectorized.vector_ops_for(get_semiring("bag"))
    huge = ops.to_array([1 << 62])
    with pytest.raises(vectorized._Fallback):
        ops.add(huge, huge)


@requires_numpy
def test_the_overflow_guard_sees_minus_2_63():
    # |-2**63| does not fit int64 (np.abs hands it back negative), so a guard
    # reading it that way let -2**63 * 2 through to wrap to 0 and drop the row.
    database = Database(get_semiring("z"))
    database.create("A", ["k", "x"], [((0, "x"), -(2**63))] + [((i, i), 1) for i in range(1, 20)])
    database.create("B", ["k", "y"], [((0, "y"), 2)] + [((i, i), 1) for i in range(1, 20)])
    query = Q.relation("A").join(Q.relation("B"))
    assert query.uses_planner(database)
    result = query.evaluate(database)
    assert result == query._execute(database)
    assert result.annotation((0, "x", "y")) == -(2**64)


NEAR_INT64 = 3 << 61  # fits int64; the sum of two does not


@pytest.mark.parametrize(
    "name, rows, expected",
    [
        # Two contributions that each fit int64 but sum past it: exact.
        ("bag", [(("k", 1), NEAR_INT64), (("k", 2), NEAR_INT64)], {"k": 2 * NEAR_INT64}),
        # A cancelling pair under Z drops its key; the other key survives.
        (
            "z",
            [
                (("k", 1), NEAR_INT64),
                (("k", 2), -NEAR_INT64),
                (("j", 1), NEAR_INT64),
                (("j", 2), NEAR_INT64),
            ],
            {"j": 2 * NEAR_INT64},
        ),
    ],
)
def test_group_by_past_int64_is_exact(name, rows, expected):
    from repro import Database, Q

    database = Database(get_semiring(name))
    database.create("R", ["a", "b"], rows)
    result = execute(Q.relation("R").project("a"), database)
    assert {tup["a"]: value for tup, value in result.items()} == expected
    result.check_consistency()


#: Semirings whose annotate-mode semi-naive rounds vectorize, plus "nx"
#: (no vector arithmetic) as a control.
SEMINAIVE_NAMES = ("bool", "tropical", "fuzzy", "viterbi", "nx")


@pytest.mark.parametrize("semiring_name", SEMINAIVE_NAMES)
def test_evaluate_program_agrees_with_ground_then_solve(semiring_name):
    semiring = get_semiring(semiring_name)
    database = random_graph_database(
        semiring, nodes=12, edge_probability=0.25, seed=17
    )
    program = transitive_closure_program()
    kwargs = {"on_divergence": "skip"} if semiring_name == "nx" else {}
    result = evaluate_program(program, database, **kwargs)
    oracle = solve_ground(ground_program(program, database), semiring, **kwargs)
    assert result.annotations == oracle.annotations


def test_everything_degrades_gracefully_without_numpy(monkeypatch):
    # CI's plain test matrix has no numpy: every vectorized entry point
    # must decline instead of crashing.
    monkeypatch.setattr(vectorized, "_np", None)
    assert not vectorized.numpy_available()
    assert (
        vectorized.fire_linear_join(None, {}, None, [], None, None, [], [], 1) is False
    )

    from repro import Database, Q
    from repro.semirings import NaturalsSemiring

    database = Database(NaturalsSemiring())
    database.create("E", ["a", "b"], [(("1", "2"), 2), (("2", "3"), 3)])
    assert vectorized.try_execute(Q.relation("E"), database) is None
    query = (
        Q.relation("E")
        .join(Q.relation("E").rename({"a": "b", "b": "c"}))
        .project("a", "c")
    )
    result = execute(query, database)
    assert result.annotation(("1", "3")) == 6
    result.check_consistency()

    semiring = get_semiring("tropical")
    graph = random_graph_database(semiring, nodes=8, edge_probability=0.3, seed=5)
    program = transitive_closure_program()
    result = evaluate_program(program, graph)
    oracle = solve_ground(ground_program(program, graph), semiring)
    assert result.annotations == oracle.annotations


# ---------------------------------------------------------------------------
# group_codes: direct addressing (span <= 4n) and the sort fallback
# ---------------------------------------------------------------------------

#: A carrier-valued sample per vectorizable semiring (registry name -> draw).
CARRIER_DRAWS = {
    "bag": lambda rng: rng.randrange(0, 50),
    "z": lambda rng: rng.randrange(-20, 21),
    "tropical": lambda rng: rng.choice([0.0, 0.5, 1.25, 3.0, float("inf")]),
    "fuzzy": lambda rng: rng.choice([0.0, 0.125, 0.5, 0.75, 1.0]),
    "viterbi": lambda rng: rng.choice([0.0, 0.0625, 0.25, 0.5, 1.0]),
    "bool": lambda rng: rng.random() < 0.4,
}

N_CODES = 40


def _span_codes(rng, shape):
    """``N_CODES`` non-negative codes whose span lands in the named regime."""
    if shape == "dense":
        return [rng.randrange(N_CODES) for _ in range(N_CODES)]
    if shape == "span_4n":  # max code 4n - 1: the last direct-addressed span
        return [rng.randrange(4 * N_CODES) for _ in range(N_CODES - 1)] + [4 * N_CODES - 1]
    if shape == "span_4n_plus_1":  # max code 4n: the first sorted span
        return [rng.randrange(4 * N_CODES) for _ in range(N_CODES - 1)] + [4 * N_CODES]
    return [rng.randrange(N_CODES) * 10**6 for _ in range(N_CODES)]  # sparse


#: Whether each span regime should take the ``np.unique`` sort.
SORTED_SPANS = {"dense": False, "span_4n": False, "span_4n_plus_1": True, "sparse": True}


@pytest.fixture
def unique_calls(monkeypatch):
    """Count the ``np.unique`` sorts the kernels take."""
    import numpy as np

    calls = []
    original = np.unique

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    return calls


@requires_numpy
@pytest.mark.parametrize("shape", sorted(SORTED_SPANS))
@pytest.mark.parametrize("name", sorted(CARRIER_DRAWS))
def test_group_codes_matches_a_dict_oracle(name, shape, unique_calls):
    import random

    import numpy as np

    rng = random.Random(f"{name}-{shape}")
    semiring = get_semiring(name)
    ops = vectorized.vector_ops_for(semiring)
    codes = _span_codes(rng, shape)
    values = [CARRIER_DRAWS[name](rng) for _ in codes]
    oracle = {}
    for code, value in zip(codes, values):
        oracle[code] = semiring.add(oracle.get(code, semiring.zero()), value)

    distinct, totals = vectorized.group_codes(
        ops, np.array(codes, dtype=np.int64), ops.to_array(values)
    )
    assert distinct.tolist() == sorted(oracle)
    assert dict(zip(distinct.tolist(), totals.tolist())) == oracle
    assert bool(unique_calls) == SORTED_SPANS[shape]
    assert all("return_index" not in call for call in unique_calls)


@requires_numpy
def test_group_codes_on_empty_input():
    import numpy as np

    ops = vectorized.vector_ops_for(get_semiring("bag"))
    distinct, totals = vectorized.group_codes(
        ops, np.zeros(0, dtype=np.int64), ops.to_array([])
    )
    assert distinct.tolist() == totals.tolist() == []


@requires_numpy
@pytest.mark.parametrize("scale", [1, 10**6])
def test_group_codes_keeps_cancelled_z_totals(scale):
    # The stored-zero rule belongs to the merge: a key whose contributions
    # cancel under Z must still come back, with the exact total 0.
    import numpy as np

    ops = vectorized.vector_ops_for(get_semiring("z"))
    codes = np.array([0, 1, 1, 2, 2], dtype=np.int64) * scale
    distinct, totals = vectorized.group_codes(
        ops, codes, ops.to_array([4, 5, -5, -1, 3])
    )
    assert distinct.tolist() == [0, scale, 2 * scale]
    assert totals.tolist() == [4, 0, 2]


#: Three contributions of 2**61 fit int64 each but trip ``count * |v|.max``.
GUARD_VALUE = 1 << 61


@requires_numpy
@pytest.mark.parametrize(
    "rows, keep, sorted_span",
    [
        # One key, three rows: span 1 is direct-addressed.
        ([(("k", i), GUARD_VALUE) for i in range(3)], ("a",), False),
        # Ten keys coded i * 10 + i: span 100 > 4 * 10 takes the sort.
        ([((i, i), GUARD_VALUE) for i in range(10)], ("a", "b"), True),
    ],
)
def test_try_execute_declines_when_group_totals_could_overflow(
    rows, keep, sorted_span, unique_calls
):
    from repro import Database, Q

    database = Database(get_semiring("bag"))
    database.create("R", ["a", "b"], rows)
    query = Q.relation("R").project(*keep)
    assert vectorized.try_execute(query, database) is None
    assert bool(unique_calls) == sorted_span
    exact = execute(query, database)
    assert sum(value for _, value in exact.items()) == len(rows) * GUARD_VALUE


@requires_numpy
@pytest.mark.parametrize("head_code, sorted_span", [(0, False), (10**6, True)])
def test_fire_linear_join_declines_when_group_totals_could_overflow(
    head_code, sorted_span, unique_calls
):
    import numpy as np

    ops = vectorized.vector_ops_for(get_semiring("bag"))
    key = np.zeros(3, dtype=np.int64)
    head = np.full(3, head_code, dtype=np.int64)
    fired = vectorized.fire_linear_join(
        ops,
        {0: key, 1: head},
        ops.to_array([GUARD_VALUE] * 3),
        [np.zeros(1, dtype=np.int64)],
        ops.to_array([1]),
        vectorized.sort_codes(np.zeros(1, dtype=np.int64)),
        [0],
        [("p", 1)],
        1 << 20,
    )
    assert fired is False
    assert bool(unique_calls) == sorted_span


# ---------------------------------------------------------------------------
# _group decodes kept columns from the key: equal to the row engine
# ---------------------------------------------------------------------------


def _vectorized_and_reference(query, database):
    """The vectorized result (asserting it ran) and the naive row result."""
    vector = vectorized.try_execute(query, database)
    assert vector is not None, "the plan should vectorize"
    vector.check_consistency()
    return vector, query._execute(database)


@requires_numpy
class TestGroupDecode:
    def _database(self, name="bag"):
        from repro import Database

        return Database(get_semiring(name))

    def test_three_attribute_projection_with_a_size_one_alphabet(self):
        from repro import Q

        database = self._database()
        rows = [
            ((a, "only", c, d), 1 + a + 2 * c + d)
            for a in range(4)
            for c in range(3)
            for d in range(2)
        ]
        database.create("R", ["a", "b", "c", "d"], rows)
        for keep in (("a", "b", "c"), ("c", "b", "a"), ("b", "d", "a")):
            vector, reference = _vectorized_and_reference(
                Q.relation("R").project(*keep), database
            )
            assert vector == reference

    def test_alphabets_keep_values_a_selection_removed(self):
        from repro import Q
        from repro.algebra.predicates import AttrNotEqualsConst

        database = self._database("z")
        rows = [
            (("x", "p", 1), 3),
            (("y", "p", 2), -2),
            (("y", "q", 3), 5),
            (("z", "q", 1), 7),
            (("x", "r", 2), 1),
            (("y", "p", 4), 2),  # cancels ("y", "p", 2): (p, y) drops out
        ]
        database.create("R", ["a", "b", "c"], rows)
        for removed in ("p", "q"):
            query = (
                Q.relation("R")
                .select(AttrNotEqualsConst("b", removed))
                .project("b", "a")
            )
            vector, reference = _vectorized_and_reference(query, database)
            assert vector == reference
            assert removed not in {tup["b"] for tup in vector.support}

    def test_union_over_disjoint_alphabets(self):
        from repro import Q

        database = self._database()
        database.create("R", ["a", "b"], [(("x", 1), 2), (("y", 2), 3)])
        database.create("S", ["a", "b"], [(("u", 7), 5), (("v", 8), 7)])
        database.create("T", ["a", "b"], [(("x", 1), 4), (("v", 8), 1)])
        disjoint = Q.relation("R").union(Q.relation("S"))
        vector, reference = _vectorized_and_reference(disjoint, database)
        assert vector == reference
        overlapping = disjoint.union(Q.relation("T")).project("b", "a")
        vector, reference = _vectorized_and_reference(overlapping, database)
        assert vector == reference

    def test_hash_equal_values_form_one_group(self):
        from repro import Q

        database = self._database()
        rows = [((1, "x"), 2), ((1.0, "y"), 2), ((True, "z"), 3)]
        database.create("R", ["a", "b"], rows)
        vector, reference = _vectorized_and_reference(
            Q.relation("R").project("a"), database
        )
        assert vector == reference
        assert [(dict(tup._items), value) for tup, value in vector.items()] == [({"a": 1}, 7)]
        assert [type(tup["a"]) for tup in vector.support] == [
            type(tup["a"]) for tup in reference.support
        ]

    def test_rows_come_out_ascending_by_key(self):
        # Every value is first seen in ascending order, so each column's
        # code order is its value order and ascending mixed-radix keys read
        # as the lexicographic order of the kept values (in ``keep`` order).
        from repro import Q

        database = self._database()
        rows = [((a, b, c), 1) for a in range(3) for b in range(4) for c in range(2)]
        database.create("R", ["a", "b", "c"], rows)
        for keep in (("a", "c"), ("c", "b"), ("b", "a", "c")):
            vector, _ = _vectorized_and_reference(
                Q.relation("R").project(*keep), database
            )
            keys = [tuple(tup[a] for a in keep) for tup, _ in vector.items()]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# _materialize's shared (attribute, value) pairs build ordinary Tups
# ---------------------------------------------------------------------------


@requires_numpy
def test_materialized_row_keys_give_ordinary_tuples(monkeypatch):
    from repro import Q
    from repro.relations import tuples
    from repro.relations.tuples import Tup
    from tests.relations.test_serialization import roundtrip

    # Debug mode re-validates every bulk-built row key and every Tup handed out.
    monkeypatch.setattr(tuples, "_DEBUG_TUPLES", True)
    database = random_graph_database(
        get_semiring("bag"), nodes=12, edge_probability=0.35, seed=3
    )
    left = Q.relation("R").rename({"y": "mid"})
    right = Q.relation("R").rename({"x": "mid"})
    query = left.join(right).project("x", "y")
    result, reference = _vectorized_and_reference(query, database)
    assert result == reference
    assert len(result) > 1
    for tup in result.support:
        plain = Tup(**dict(tup._items))
        assert tup == plain
        assert hash(tup) == hash(plain)
    # The store holds plain value tuples in sorted-attribute order.
    for key in result._rows:
        assert type(key) is tuple and len(key) == 2
    clone = roundtrip(result)
    assert clone == result
    assert all(hash(tup) == hash(Tup(**dict(tup._items))) for tup in clone.support)


@requires_numpy
def test_nullary_plans_decline_to_the_row_engine():
    # No columns means no key to group on and no column to zip a row key from:
    # the vectorized path declines instead of dropping the one nullary row.
    from repro import Database, Q

    database = Database(get_semiring("bag"))
    database.create("R", [], [((), 2)])
    database.create("S", [], [((), 3)])
    cases = [
        (Q.relation("R"), 2),
        (Q.relation("R").join(Q.relation("S")), 6),
        (Q.relation("R").union(Q.relation("S")), 5),
    ]
    for query, total in cases:
        assert vectorized.try_execute(query, database) is None
        result = execute(query, database)
        assert [value for _, value in result.items()] == [total]


def _relation(database, rows):
    return KRelation(database.semiring, ["a", "b"], rows)


def _from_a_query(database, rows):
    source = Database(database.semiring, {"E": _relation(database, rows)})
    return Q.relation("E").evaluate(source)


def _maintained_edb(database, rows):
    database.create("R", ["a", "b"])
    IncrementalDatalog("T(x, y) :- R(x, y)", database).insert("R", rows)


#: The ways ``R`` can come to be over a database.  There is one store, so
#: none of them may keep a pipelined query off the column kernels -- the
#: pinned ``storage=`` values of ``Database.create`` included.
RELATION_ORIGINS = {
    "create": lambda db, rows: db.create("R", ["a", "b"], rows),
    "create storage=row": lambda db, rows: db.create("R", ["a", "b"], rows, storage="row"),
    "create storage=columnar": lambda db, rows: db.create(
        "R", ["a", "b"], rows, storage="columnar"
    ),
    "constructor": lambda db, rows: db.register("R", _relation(db, rows)),
    "from_dict": lambda db, rows: db.register(
        "R", KRelation.from_dict(db.semiring, ["a", "b"], dict(rows))
    ),
    "copy": lambda db, rows: db.register("R", _relation(db, rows).copy()),
    "map_annotations": lambda db, rows: db.register(
        "R", _relation(db, rows).map_annotations(lambda value: value)
    ),
    "query result": lambda db, rows: db.register("R", _from_a_query(db, rows)),
    "unpickled": lambda db, rows: db.register(
        "R", pickle.loads(pickle.dumps(_relation(db, rows)))
    ),
    "incremental datalog": _maintained_edb,
}


@requires_numpy
@pytest.mark.parametrize("origin", sorted(RELATION_ORIGINS))
@pytest.mark.parametrize("semiring_name", ("bag", "z", "bool", "tropical", "fuzzy", "viterbi"))
def test_column_kernels_run_on_every_relation(semiring_name, origin):
    semiring = get_semiring(semiring_name)
    database = Database(semiring)
    one = semiring.one()
    cycle = [((f"n{i}", f"n{(i + 1) % 4}"), one) for i in range(4)]
    RELATION_ORIGINS[origin](database, cycle)
    relation = database.relation("R")
    assert len(relation) == 4
    two_hop = (
        Q.relation("R")
        .join(Q.relation("R").rename({"a": "b", "b": "c"}))
        .project("a", "c")
    )
    expected = two_hop._execute(database)
    assert len(expected) == 4
    vector = vectorized.try_execute(two_hop, database)
    assert vector is not None and vector.equal_to(expected)
    assert relation._scan_cache is not None
    relation._annotations  # drop the encoding the direct call just built
    pipelined = execute(two_hop.optimized(database), database)
    assert pipelined.equal_to(expected)
    assert relation._scan_cache is not None  # execute took the kernels


# ---------------------------------------------------------------------------
# A semiring takes a numeric carrier by its declaration, never by its name
# ---------------------------------------------------------------------------

#: The semiring classes that declare a carrier.
DECLARING = (
    NaturalsSemiring,
    IntegerRing,
    BooleanSemiring,
    TropicalSemiring,
    FuzzySemiring,
    ViterbiSemiring,
)

#: Products named after a factor with a carrier; the name lends them nothing.
MISNAMED_PRODUCTS = {
    "B x N": (
        ProductSemiring([BooleanSemiring(), NaturalsSemiring()], name="B"),
        lambda i: (True, 1 + i % 3),
    ),
    "B x Fuzzy": (
        ProductSemiring([BooleanSemiring(), FuzzySemiring()], name="B"),
        lambda i: (True, (1 + i % 4) / 4),
    ),
}


@requires_numpy
def test_exactly_the_declaring_semirings_take_a_numeric_carrier():
    semirings = ALL_SEMIRINGS + [
        get_semiring("circuit"),
        get_semiring("power-series"),
        *(product for product, _ in MISNAMED_PRODUCTS.values()),
    ]
    for semiring in semirings:
        for candidate in (semiring, instrument(semiring)):
            ops = vectorized.vector_ops_for(candidate)
            assert ops is not None, semiring.name
            on_objects = isinstance(ops, ObjectCarrier)
            assert on_objects == (type(semiring) not in DECLARING), semiring.name
            if on_objects:
                assert ops.semiring is candidate


@requires_numpy
@pytest.mark.parametrize("case", sorted(MISNAMED_PRODUCTS))
def test_a_misnamed_product_query_equals_the_oracle(case):
    semiring, annotation = MISNAMED_PRODUCTS[case]
    database = Database(semiring)
    database.create("E", ["a", "b"], [((i % 3, i), annotation(i)) for i in range(40)])
    query = Q.relation("E").project("a")
    assert query.uses_planner(database)
    assert query.evaluate(database) == query._execute(database)


@requires_numpy
@pytest.mark.parametrize("case", sorted(MISNAMED_PRODUCTS))
def test_a_misnamed_product_program_equals_the_row_loop(case):
    semiring, annotation = MISNAMED_PRODUCTS[case]
    database = Database(semiring)
    edges = [(i, i + step) for i in range(12) for step in (1, 2)]
    database.create("R", ["x", "y"], [(edge, annotation(i)) for i, edge in enumerate(edges)])
    program = transitive_closure_program()
    assert _SemiNaiveEngine(program, database, collect=False).round_declined == "semiring"
    result = evaluate_program(program, database)
    with row_loop():
        reference = evaluate_program(program, database)
    assert result.annotations == reference.annotations


# ---------------------------------------------------------------------------
# ObjectCarrier: every other semiring through its own scalar operations
# ---------------------------------------------------------------------------


class _RecordingNaturals(NaturalsSemiring):
    """N without a declared carrier, logging the operands of every ``add``."""

    carrier = None

    def __init__(self):
        super().__init__()
        self.added = []

    def add(self, a, b):
        self.added.append((a, b))
        return super().add(a, b)


@requires_numpy
def test_object_accumulate_left_folds_each_group_in_contribution_order():
    import numpy as np

    semiring = _RecordingNaturals()
    ops = vectorized.vector_ops_for(semiring)
    assert isinstance(ops, ObjectCarrier)
    values = [1, 2, 4, 8, 16, 32, 64]
    groups = [0, 1, 0, 3, 0, 1, 0]
    totals = ops.accumulate(ops.to_array(values), np.array(groups), 4)
    assert totals.tolist() == [85, 34, 0, 8]
    folds = [(1, 4), (5, 16), (21, 64), (2, 32)]
    assert semiring.added == folds
    # The same chains combine_contributions folds from each group's batch.
    semiring.added.clear()
    for group in (0, 1):
        combine_contributions(semiring, [v for v, g in zip(values, groups) if g == group])
    assert semiring.added == folds


@requires_numpy
def test_object_accumulate_builds_the_circuits_combine_contributions_builds():
    import numpy as np

    semiring = get_semiring("circuit")
    ops = vectorized.vector_ops_for(semiring)
    values = [semiring.var(f"t{i}") for i in range(12)]
    groups = [(5 * i) % 4 for i in range(12)]
    totals = ops.accumulate(ops.to_array(values), np.array(groups), 4).tolist()
    for group, total in enumerate(totals):
        batch = [v for v, g in zip(values, groups) if g == group]
        assert total is combine_contributions(semiring, batch)


@requires_numpy
def test_object_empty_groups_are_zero_and_zero_mask_asks_is_zero():
    import numpy as np

    semiring = instrument(get_semiring("why"))
    ops = vectorized.vector_ops_for(semiring)
    zero, x = semiring.zero(), annotation_for(semiring, 0, None)
    totals = ops.accumulate(ops.to_array([x]), np.array([2]), 3)
    assert totals.tolist() == [zero, zero, x]
    empty = ops.accumulate(ops.to_array([]), np.zeros(0, dtype=np.int64), 2)
    assert empty.tolist() == [zero, zero]
    assert semiring.ops.snapshot() == {"plus": 0, "times": 0, "is_zero": 0}
    assert ops.zero_mask(totals).tolist() == [True, True, False]
    assert semiring.ops.snapshot() == {"plus": 0, "times": 0, "is_zero": 3}


#: Semirings without a declared carrier whose annotations keep their
#: structure: polynomials, witness sets and hash-consed circuits.
OBJECT_SEMIRING_NAMES = ("polynomial", "why", "circuit")

TWO_HOP = (
    Q.relation("E")
    .rename({"y": "m"})
    .join(Q.relation("E").rename({"x": "m"}))
    .project("x", "y")
)


def _two_hop_database(semiring):
    """``E`` at ``PLANNED_INPUT_ROWS`` rows, a fresh token per tuple."""
    database = Database(semiring)
    tokens = getattr(semiring, "delegate", semiring)  # circuits mint on the delegate
    rows = [
        ((f"n{i % 7}", f"n{(3 * i) % 11}"), annotation_for(tokens, i, None))
        for i in range(PLANNED_INPUT_ROWS)
    ]
    database.create("E", ["x", "y"], rows)
    assert TWO_HOP.uses_planner(database)
    return database


@requires_numpy
@pytest.mark.parametrize("name", OBJECT_SEMIRING_NAMES)
def test_a_planned_evaluate_runs_on_the_columns(name):
    database = _two_hop_database(get_semiring(name))
    with tracing() as sink:
        result = TWO_HOP.evaluate(database)
    (span,) = sink.find("engine.vectorized")
    assert span.attributes["out_rows"] == len(result) > 0
    assert not sink.find("engine.execute")
    result.check_consistency()
    assert result == TWO_HOP._execute(database)


@requires_numpy
@pytest.mark.parametrize("name", OBJECT_SEMIRING_NAMES)
def test_the_columns_count_the_row_pipelines_operations(name):
    semiring = instrument(get_semiring(name))
    database = _two_hop_database(semiring)
    semiring.ops.reset()
    with row_loop():
        on_rows = TWO_HOP.evaluate(database)
    counted = semiring.ops.snapshot()
    assert counted["plus"] > 0 and counted["times"] > 0
    semiring.ops.reset()
    with tracing() as sink:
        on_columns = TWO_HOP.evaluate(database)
    assert sink.find("engine.vectorized")
    assert semiring.ops.snapshot() == counted
    assert on_columns == on_rows
