"""PosBool(B): canonical minimal-DNF conditions (the c-table semiring)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidAnnotationError
from repro.semirings import BoolExpr, PosBoolSemiring


def test_true_false_constants():
    assert BoolExpr.true().is_true
    assert BoolExpr.false().is_false
    assert BoolExpr.of(True) == BoolExpr.true()
    assert BoolExpr.of(False) == BoolExpr.false()


def test_absorption_simplification_figure2():
    """(b1 ∧ b1) ∨ (b1 ∧ b1) simplifies to b1; (b2∧b2) ∨ (b2∧b2) ∨ (b2∧b3) to b2."""
    b1, b2, b3 = BoolExpr.var("b1"), BoolExpr.var("b2"), BoolExpr.var("b3")
    assert (b1 & b1) | (b1 & b1) == b1
    assert (b2 & b2) | (b2 & b2) | (b2 & b3) == b2
    assert (b3 & b3) | (b3 & b3) | (b2 & b3) == b3


def test_and_or_laws():
    a, b, c = BoolExpr.var("a"), BoolExpr.var("b"), BoolExpr.var("c")
    assert (a | b) & c == (a & c) | (b & c)
    assert a & (a | b) == a
    assert a | (a & b) == a
    assert (a & BoolExpr.false()).is_false
    assert a | BoolExpr.false() == a
    assert a & BoolExpr.true() == a
    assert (a | BoolExpr.true()).is_true


def test_semantic_equality_is_structural_equality():
    a, b = BoolExpr.var("a"), BoolExpr.var("b")
    left = (a & b) | a
    right = a
    assert left == right
    assert hash(left) == hash(right)


def test_evaluate_under_assignment():
    expr = (BoolExpr.var("a") & BoolExpr.var("b")) | BoolExpr.var("c")
    assert expr.evaluate({"a": True, "b": True, "c": False})
    assert expr.evaluate({"c": True})
    assert not expr.evaluate({"a": True})


def test_implies():
    a, b = BoolExpr.var("a"), BoolExpr.var("b")
    assert (a & b).implies(a)
    assert not a.implies(a & b)
    assert BoolExpr.false().implies(a)
    assert a.implies(BoolExpr.true())


def test_str_rendering():
    a, b = BoolExpr.var("a"), BoolExpr.var("b")
    assert str(a) == "a"
    assert str(BoolExpr.true()) == "true"
    assert str(BoolExpr.false()) == "false"
    assert "∧" in str(a & b)


def test_semiring_interface():
    semiring = PosBoolSemiring()
    a = BoolExpr.var("a")
    assert semiring.add(a, semiring.zero()) == a
    assert semiring.mul(a, semiring.one()) == a
    assert semiring.star(a) == BoolExpr.true()
    assert semiring.leq(a & BoolExpr.var("b"), a)
    with pytest.raises(InvalidAnnotationError):
        semiring.coerce(3.14)


@st.composite
def _posbool_expressions(draw, depth=3):
    variables = ["a", "b", "c", "d"]
    if depth == 0 or draw(st.booleans()):
        return BoolExpr.var(draw(st.sampled_from(variables)))
    left = draw(_posbool_expressions(depth=depth - 1))
    right = draw(_posbool_expressions(depth=depth - 1))
    return (left & right) if draw(st.booleans()) else (left | right)


@given(_posbool_expressions(), st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), st.booleans()))
def test_normal_form_preserves_truth_tables(expr, assignment):
    """Canonicalization never changes the Boolean function (property test)."""
    a = BoolExpr.var("a")
    # combining with a and re-simplifying must stay truth-table equivalent
    combined = (expr & a) | expr
    assert combined.evaluate(assignment) == expr.evaluate(assignment) or combined.evaluate(
        assignment
    ) == (expr.evaluate(assignment) and assignment.get("a", False)) or combined.evaluate(assignment) == expr.evaluate(assignment)
    # absorption law as a direct property
    assert ((expr & a) | expr) == expr


@given(_posbool_expressions(), _posbool_expressions())
def test_or_and_commutative_property(e1, e2):
    assert (e1 | e2) == (e2 | e1)
    assert (e1 & e2) == (e2 & e1)


# -- the operators against the normal form rebuilt from scratch -------------------

_NAMES = ["a", "b", "c", "d", "e"]
_clause_lists = st.lists(st.frozensets(st.sampled_from(_NAMES), max_size=3), max_size=6)
_operands = st.one_of(
    st.booleans(),
    st.just(BoolExpr.true()),
    st.just(BoolExpr.false()),
    _clause_lists.map(BoolExpr),
    _posbool_expressions(),
)


def _clauses_of(value):
    """The clause list of an operand, a Python bool included, unnormalised."""
    if isinstance(value, bool):
        return [frozenset()] if value else []
    return list(value.clauses)


def _reference_or(a, b):
    return BoolExpr(_clauses_of(a) + _clauses_of(b))


def _reference_and(a, b):
    return BoolExpr(x | y for x in _clauses_of(a) for y in _clauses_of(b))


def _assert_normal(result, reference):
    assert isinstance(result, BoolExpr)
    assert result.clauses == reference.clauses
    # the result is itself minimal: the public constructor keeps it as it is
    assert BoolExpr(result.clauses).clauses == result.clauses


@given(_operands.filter(lambda v: isinstance(v, BoolExpr)), _operands)
def test_operators_agree_with_the_renormalised_form(a, b):
    snapshots = [(v, v.clauses, set(v.clauses)) for v in (a, b) if isinstance(v, BoolExpr)]
    _assert_normal(a | b, _reference_or(a, b))
    _assert_normal(a & b, _reference_and(a, b))
    _assert_normal(a | a, _reference_or(a, a))
    _assert_normal(a & a, _reference_and(a, a))
    for value, clauses, members in snapshots:  # neither operand is touched
        assert value.clauses is clauses and set(clauses) == members


@given(_operands, _operands)
def test_semiring_operations_agree_with_the_renormalised_form(a, b):
    semiring = PosBoolSemiring()
    _assert_normal(semiring.add(a, b), _reference_or(a, b))
    _assert_normal(semiring.mul(a, b), _reference_and(a, b))
    for value in (a, b):
        assert semiring.is_zero(value) == (not _clauses_of(value))
        assert semiring.is_zero(value) == (value == BoolExpr(()))


def test_constants_are_shared():
    semiring, other = PosBoolSemiring(), PosBoolSemiring()
    assert semiring.zero() is other.zero() is BoolExpr.false()
    assert semiring.one() is other.one() is BoolExpr.true()
    assert BoolExpr.of(False) is BoolExpr.false() and BoolExpr.of(True) is BoolExpr.true()
    a = BoolExpr.var("a")
    assert semiring.add(a, semiring.zero()) is a and semiring.add(semiring.zero(), a) is a
    assert semiring.mul(a, semiring.one()) is a and semiring.mul(semiring.one(), a) is a
    assert semiring.mul(a, semiring.zero()) is BoolExpr.false()
    # the public constructor still builds (and normalises) its own instance
    assert BoolExpr([["a"], ["a", "b"]]) == a
    assert BoolExpr(()) == BoolExpr.false() and BoolExpr([[]]) == BoolExpr.true()


def test_is_zero_reads_only_false():
    semiring = PosBoolSemiring()
    assert semiring.is_zero(BoolExpr(())) and semiring.is_zero(False)
    assert not semiring.is_zero(True) and not semiring.is_zero(BoolExpr.var("a"))
    assert not semiring.is_zero(0)  # not a PosBool value, as ``0 == false()`` is False
