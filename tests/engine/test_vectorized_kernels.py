"""Unit coverage of the whole-column kernels behind the columnar backend.

The differential harnesses prove the vectorized engine *agrees* with the
row engine end-to-end; this file pins down the pieces in isolation --
``fire_linear_join``'s arrays-in / arrays-out contract (grouped totals,
deliberate zero totals under a ring, its two instance guards),
``VectorOps.add``, the numpy-missing degradation, and row/columnar equality
of the semi-naive engine over every vectorizable semiring plus a
non-vectorizable control.
"""

from __future__ import annotations

import pytest

from repro.datalog import evaluate_program
from repro.engine import vectorized
from repro.semirings import get_semiring
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


#: Semirings whose annotate-mode semi-naive rounds vectorize, plus "nx"
#: (no vector arithmetic -- the row loop under columnar stores) as a control.
SEMINAIVE_NAMES = ("bool", "tropical", "fuzzy", "viterbi", "nx")


@pytest.mark.parametrize("semiring_name", SEMINAIVE_NAMES)
def test_seminaive_row_and_columnar_storage_agree(semiring_name):
    semiring = get_semiring(semiring_name)
    database = random_graph_database(
        semiring, nodes=12, edge_probability=0.25, seed=17
    )
    program = transitive_closure_program()
    kwargs = {"on_divergence": "skip"} if semiring_name == "nx" else {}
    row = evaluate_program(program, database, engine="seminaive", storage="row", **kwargs)
    columnar = evaluate_program(
        program, database, engine="seminaive", storage="columnar", **kwargs
    )
    assert row.annotations == columnar.annotations
    assert row.iterations == columnar.iterations


def test_everything_degrades_gracefully_without_numpy(monkeypatch):
    # CI's plain test matrix has no numpy: the columnar stores must still
    # work, with every vectorized entry point declining instead of crashing.
    monkeypatch.setattr(vectorized, "_np", None)
    assert not vectorized.numpy_available()
    assert (
        vectorized.fire_linear_join(None, {}, None, [], None, None, [], [], 1) is False
    )

    from repro import Database, Q
    from repro.semirings import NaturalsSemiring

    database = Database(NaturalsSemiring())
    database.create("E", ["a", "b"], [(("1", "2"), 2), (("2", "3"), 3)])
    assert (
        vectorized.try_execute(Q.relation("E"), database, storage="columnar") is None
    )
    query = (
        Q.relation("E")
        .join(Q.relation("E").rename({"a": "b", "b": "c"}))
        .project("a", "c")
    )
    result = query.evaluate(database, executor="pipelined", storage="columnar")
    assert result.storage == "columnar"
    assert result.annotation(("1", "3")) == 6
    result.check_consistency()

    semiring = get_semiring("tropical")
    graph = random_graph_database(semiring, nodes=8, edge_probability=0.3, seed=5)
    program = transitive_closure_program()
    row = evaluate_program(program, graph, engine="seminaive", storage="row")
    columnar = evaluate_program(program, graph, engine="seminaive", storage="columnar")
    assert row.annotations == columnar.annotations
