"""Boolean, tropical, fuzzy, Viterbi, lineage, event and product semirings."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidAnnotationError, SemiringError
from repro.semirings import (
    BOTTOM,
    BooleanSemiring,
    EventSemiring,
    EventSpace,
    FuzzySemiring,
    NaturalsSemiring,
    ProductSemiring,
    TropicalSemiring,
    ViterbiSemiring,
    WhyProvenanceSemiring,
    WitnessWhySemiring,
    witness_set,
)
from repro.semirings.numeric import INFINITY, NatInf


class TestBooleanSemiring:
    def test_operations(self):
        b = BooleanSemiring()
        assert b.add(True, False) is True
        assert b.mul(True, False) is False
        assert b.star(False) is True
        assert b.leq(False, True)
        assert not b.leq(True, False)

    def test_coerce(self):
        b = BooleanSemiring()
        assert b.coerce(1) is True
        assert b.coerce(0) is False
        with pytest.raises(InvalidAnnotationError):
            b.coerce("yes")


class TestTropicalSemiring:
    def test_min_plus(self):
        t = TropicalSemiring()
        assert t.add(3, 5) == 3
        assert t.mul(3, 5) == 8
        assert t.zero() == math.inf
        assert t.one() == 0

    def test_annihilation_and_identity(self):
        t = TropicalSemiring()
        assert t.mul(5, t.zero()) == math.inf
        assert t.add(5, t.zero()) == 5
        assert t.mul(5, t.one()) == 5

    def test_star_is_zero_cost(self):
        assert TropicalSemiring().star(4.0) == 0.0

    def test_natural_order_is_reversed_numeric(self):
        t = TropicalSemiring()
        assert t.leq(7, 3)          # 7 can "become" 3 by adding (min-ing) something
        assert not t.leq(3, 7)

    def test_rejects_negative(self):
        with pytest.raises(InvalidAnnotationError):
            TropicalSemiring().coerce(-1)


class TestFuzzyAndViterbi:
    def test_fuzzy_max_min(self):
        f = FuzzySemiring()
        assert f.add(0.3, 0.8) == 0.8
        assert f.mul(0.3, 0.8) == 0.3
        assert f.is_distributive_lattice

    def test_viterbi_max_times(self):
        v = ViterbiSemiring()
        assert v.add(0.3, 0.8) == 0.8
        assert v.mul(0.5, 0.5) == 0.25
        assert not v.is_distributive_lattice

    def test_range_check(self):
        with pytest.raises(InvalidAnnotationError):
            FuzzySemiring().coerce(1.5)
        with pytest.raises(InvalidAnnotationError):
            ViterbiSemiring().coerce(-0.1)


#: ``add`` / ``mul`` of the three float semirings as ``coerce`` defines them;
#: the methods themselves skip ``coerce`` for two exact in-range floats.
COERCED = {
    TropicalSemiring: (min, lambda a, b: a + b),
    FuzzySemiring: (max, min),
    ViterbiSemiring: (max, lambda a, b: a * b),
}

_OPERANDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(
        [0.0, -0.0, 1.0, 0.5, math.inf, -math.inf, math.nan, -1.0, 1.5, 0, 1, 2, -3]
    ),
    st.sampled_from([True, False, NatInf(0), NatInf(2), INFINITY, "1.0", None]),
)


def _outcome(thunk):
    """``(type, repr)`` of the result -- ``repr`` tells ``-0.0`` from ``0.0``
    and ``nan`` from itself -- or the exception's type and message."""
    try:
        value = thunk()
    except InvalidAnnotationError as error:
        return ("raised", str(error))
    return (type(value), repr(value))


@pytest.mark.parametrize("semiring_class", sorted(COERCED, key=lambda c: c.__name__))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_OPERANDS, b=_OPERANDS)
def test_float_fast_path_equals_the_coerce_definition(semiring_class, a, b):
    semiring = semiring_class()
    coerce = semiring.coerce
    for method, combine in zip((semiring.add, semiring.mul), COERCED[semiring_class]):
        expected = _outcome(lambda: combine(coerce(a), coerce(b)))
        assert _outcome(lambda: method(a, b)) == expected
        if expected[0] is float and combine in (min, max) and type(a) is type(b) is float:
            # a selective operation hands back the very operand min/max would
            assert method(a, b) is combine(a, b)


class TestWhyProvenance:
    def test_join_and_union_both_union(self):
        why = WhyProvenanceSemiring()
        assert why.mul(frozenset({"p"}), frozenset({"r"})) == frozenset({"p", "r"})
        assert why.add(frozenset({"p"}), frozenset({"r"})) == frozenset({"p", "r"})

    def test_bottom_behaves_as_zero(self):
        why = WhyProvenanceSemiring()
        assert why.zero() == BOTTOM
        assert why.mul(BOTTOM, frozenset({"p"})) == BOTTOM
        assert why.add(BOTTOM, frozenset({"p"})) == frozenset({"p"})
        assert why.is_zero(BOTTOM)
        assert not why.is_zero(frozenset())

    def test_one_is_empty_set(self):
        why = WhyProvenanceSemiring()
        assert why.one() == frozenset()
        assert why.mul(frozenset(), frozenset({"p"})) == frozenset({"p"})

    def test_coerce_accepts_strings_and_sets(self):
        why = WhyProvenanceSemiring()
        assert why.coerce("p") == frozenset({"p"})
        assert why.coerce({"p", "r"}) == frozenset({"p", "r"})


class TestWitnessWhy:
    def test_multiplication_combines_witnesses(self):
        why = WitnessWhySemiring()
        a = witness_set({"p"})
        b = witness_set({"r"}, {"s"})
        assert why.mul(a, b) == witness_set({"p", "r"}, {"p", "s"})

    def test_one_and_zero(self):
        why = WitnessWhySemiring()
        a = witness_set({"p"})
        assert why.mul(a, why.one()) == a
        assert why.mul(a, why.zero()) == why.zero()
        assert why.add(a, why.zero()) == a


class TestEventSemiring:
    def setup_method(self):
        self.space = EventSpace({"w1": 0.25, "w2": 0.25, "w3": 0.5})
        self.semiring = EventSemiring(self.space)

    def test_operations(self):
        a = frozenset({"w1", "w2"})
        b = frozenset({"w2", "w3"})
        assert self.semiring.add(a, b) == frozenset({"w1", "w2", "w3"})
        assert self.semiring.mul(a, b) == frozenset({"w2"})
        assert self.semiring.one() == self.space.worlds
        assert self.semiring.zero() == frozenset()

    def test_probability(self):
        assert self.semiring.probability(frozenset({"w1", "w2"})) == pytest.approx(0.5)
        assert self.space.probability(frozenset()) == 0.0

    def test_unknown_world_rejected(self):
        with pytest.raises(InvalidAnnotationError):
            self.semiring.coerce(frozenset({"nope"}))
        with pytest.raises(SemiringError):
            self.space.probability({"nope"})

    def test_space_weight_validation(self):
        with pytest.raises(SemiringError):
            EventSpace({"w": 0.4})
        normalized = EventSpace({"a": 2.0, "b": 2.0}, normalize=True)
        assert normalized.probability({"a"}) == pytest.approx(0.5)


class TestProductSemiring:
    def test_componentwise_operations(self):
        product = ProductSemiring([NaturalsSemiring(), BooleanSemiring()])
        assert product.add((2, True), (3, False)) == (5, True)
        assert product.mul((2, True), (3, False)) == (6, False)
        assert product.zero() == (0, False)
        assert product.one() == (1, True)

    def test_flags_inherit_from_factors(self):
        lattices = ProductSemiring([BooleanSemiring(), FuzzySemiring()])
        assert lattices.is_distributive_lattice
        mixed = ProductSemiring([NaturalsSemiring(), BooleanSemiring()])
        assert not mixed.idempotent_add

    def test_shape_validation(self):
        product = ProductSemiring([NaturalsSemiring(), BooleanSemiring()])
        with pytest.raises(InvalidAnnotationError):
            product.coerce((1,))
        with pytest.raises(SemiringError):
            ProductSemiring([NaturalsSemiring()])
