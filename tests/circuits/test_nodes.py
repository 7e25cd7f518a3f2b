"""Hash-consed circuit nodes: interning, simplification, metrics."""

import pytest

from repro.circuits import (
    ONE,
    ZERO,
    Const,
    Prod,
    Sum,
    Var,
    circuit_depth,
    circuit_variables,
    const,
    iter_nodes,
    node_count,
    prod_node,
    render,
    sum_node,
    var,
)
from repro.errors import InvalidAnnotationError
from repro.semirings.numeric import INFINITY, NatInf


def test_interning_returns_identical_objects():
    assert var("x") is var("x")
    assert const(3) is const(3)
    a, b = var("a"), var("b")
    assert sum_node(a, b) is sum_node(a, b)
    assert prod_node(a, b) is prod_node(a, b)
    assert var("x") is not var("y")


def test_constructors_are_commutative():
    a, b, c = var("a"), var("b"), var("c")
    assert sum_node(a, b) is sum_node(b, a)
    assert prod_node(a, c) is prod_node(c, a)


def test_local_simplifications():
    x = var("x")
    assert sum_node(ZERO, x) is x          # 0 + x = x
    assert sum_node(x, ZERO) is x
    assert prod_node(ONE, x) is x          # 1 · x = x
    assert prod_node(x, ONE) is x
    assert prod_node(ZERO, x) is ZERO      # 0 · x = 0
    assert sum_node() is ZERO              # empty sum
    assert prod_node() is ONE              # empty product


def test_constant_folding():
    assert sum_node(const(2), const(3)) is const(5)
    assert prod_node(const(2), const(3)) is const(6)
    x = var("x")
    folded = sum_node(const(2), x, const(3))
    assert isinstance(folded, Sum)
    assert const(5) in folded.children and x in folded.children


def test_constants_canonicalize_bool_and_finite_natinf_to_int():
    assert const(True) is const(1) is ONE
    assert const(NatInf(4)) is const(4)
    assert const(INFINITY).value is INFINITY or const(INFINITY).value == INFINITY


def test_infinite_constant_arithmetic():
    assert sum_node(const(INFINITY), const(1)) is const(INFINITY)
    assert prod_node(const(INFINITY), ZERO) is ZERO  # ∞ · 0 = 0
    assert prod_node(const(INFINITY), const(2)) is const(INFINITY)


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidAnnotationError):
        const(-1)
    with pytest.raises(InvalidAnnotationError):
        const(2.5)
    with pytest.raises(InvalidAnnotationError):
        var("")
    with pytest.raises(InvalidAnnotationError):
        sum_node(var("x"), "not a node")


def test_dag_sharing_metrics():
    a, b = var("a"), var("b")
    shared = sum_node(a, b)
    # (a+b)·(a+b) shares one Sum node: {a, b, a+b, product} = 4 nodes.
    square = prod_node(shared, shared)
    assert isinstance(square, Prod)
    assert node_count(square) == 4
    assert circuit_depth(square) == 2
    assert circuit_variables(square) == {"a", "b"}
    assert len(list(iter_nodes(square))) == 4
    # Multi-root count with sharing: nothing new reachable from `shared`.
    assert node_count(square, shared) == 4


def test_leaf_metrics():
    assert node_count(var("x")) == 1
    assert circuit_depth(var("x")) == 0
    assert circuit_variables(const(7)) == frozenset()


def test_render():
    a, b, c = var("a"), var("b"), var("c")
    assert render(sum_node(a, b)) in ("a + b", "b + a")
    product = prod_node(sum_node(a, b), c)
    text = render(product)
    assert "(" in text and "·" in text
    assert str(ZERO) == "0" and str(ONE) == "1"


def test_deep_chains_do_not_hit_the_recursion_limit():
    node = var("x0")
    for i in range(1, 3000):
        node = sum_node(prod_node(node, var(f"x{i}")), ONE)
    assert circuit_depth(node) == 2 * 2999
    assert node_count(node) > 3000
    assert "x2999" in circuit_variables(node)


def test_node_ids_are_stable_and_ordered():
    a = var("fresh_a_for_id_test")
    b = var("fresh_b_for_id_test")
    assert a.node_id != b.node_id
    s = sum_node(a, b)
    assert tuple(child.node_id for child in s.children) == tuple(
        sorted(child.node_id for child in s.children)
    )


class TestIterNodesContract:
    """``iter_nodes(*roots, done=...)``: postorder, each node once across
    roots, and nothing in ``done`` is yielded or descended into."""

    @staticmethod
    def dag():
        a, b, c, d = var("a"), var("b"), var("c"), var("d")
        shared = sum_node(a, b)
        left = prod_node(shared, c)
        right = prod_node(shared, d)
        return a, b, c, d, shared, left, right

    @staticmethod
    def children(node):
        return getattr(node, "children", ())

    def test_children_before_parents_each_node_once_across_roots(self):
        *_, shared, left, right = self.dag()
        top = sum_node(left, right)
        visited = list(iter_nodes(left, right, top, shared))
        assert len(visited) == len(set(visited)) == 8
        position = {node: i for i, node in enumerate(visited)}
        for node in visited:
            for child in self.children(node):
                assert position[child] < position[node]

    def test_pruned_nodes_are_neither_yielded_nor_descended(self):
        a, b, c, d, shared, left, right = self.dag()
        # `shared` is done: it and the leaves only it reaches (a, b) are skipped.
        assert list(iter_nodes(left, right, done={shared})) == [c, left, d, right]
        # A done root yields nothing at all.
        assert list(iter_nodes(left, done={left: "memo value"})) == []
        # Leaves under a done node are still yielded when reached another way.
        top = sum_node(left, a)
        assert set(iter_nodes(top, done={shared})) == {a, c, left, top}

    def test_done_filled_during_iteration_is_honoured(self):
        """The memoised passes add to their memo as they go: a node marked
        done after the walk started is skipped when the walk reaches it."""
        a, b, c, d, shared, left, right = self.dag()
        done = set()
        visited = []
        for node in iter_nodes(left, right, done=done):
            visited.append(node)
            if node is left:
                done.add(right)  # not reached yet: must not be entered
        assert len(visited) == 5 and set(visited) == {a, b, shared, c, left}

    def test_a_memoised_pass_walks_each_node_once_over_many_calls(self):
        *_, left, right = self.dag()
        memo = {}
        walked = []
        for root in (left, right, sum_node(left, right)):
            for node in iter_nodes(root, done=memo):
                walked.append(node)
                memo[node] = True
        assert len(walked) == len(set(walked)) == node_count(sum_node(left, right))


def test_consing_counts_one_lookup_per_construction(monkeypatch):
    """Every factory looks its key up before building anything: a hit or a
    miss per interned construction, none for a simplification."""
    from repro.circuits import decision_node, not_node
    from repro.obs.metrics import consing

    monkeypatch.setattr(consing, "enabled", True)
    hits, misses = consing.hits, consing.misses
    a, b = var("consing_pin_a"), var("consing_pin_b")         # 2 misses
    assert var("consing_pin_a") is a                          # hit
    seven = const(7_654_321)                                  # miss
    assert const(7_654_321) is seven                          # hit
    total = sum_node(a, b)                                    # miss
    assert sum_node(b, a) is total                            # hit
    product = prod_node(total, a)                             # miss
    assert prod_node(a, total) is product                     # hit
    negated = not_node(a)                                     # miss
    assert not_node(a) is negated                             # hit
    test = decision_node("consing_pin_a", ONE, ZERO)          # miss
    assert decision_node("consing_pin_a", ONE, ZERO) is test  # hit
    # Simplifications return an existing node without a lookup.
    assert not_node(negated) is a
    assert sum_node(a) is a and prod_node(ZERO, a) is ZERO
    assert decision_node("consing_pin_b", a, a) is a
    assert (consing.hits - hits, consing.misses - misses) == (6, 7)
