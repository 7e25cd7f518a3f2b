"""N, N-inf and the NatInf value type (Section 5's completion of the naturals)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidAnnotationError, SemiringError
from repro.semirings import INFINITY, CompletedNaturalsSemiring, NatInf, NaturalsSemiring


class TestNatInf:
    def test_finite_arithmetic_matches_int(self):
        assert NatInf(2) + NatInf(3) == NatInf(5)
        assert NatInf(2) * NatInf(3) == NatInf(6)
        assert NatInf(2) ** 3 == NatInf(8)

    def test_infinity_absorbs_addition(self):
        assert INFINITY + 5 == INFINITY
        assert 5 + INFINITY == INFINITY
        assert INFINITY + INFINITY == INFINITY

    def test_infinity_times_zero_is_zero(self):
        assert INFINITY * 0 == NatInf(0)
        assert NatInf(0) * INFINITY == NatInf(0)

    def test_infinity_times_positive_is_infinity(self):
        assert INFINITY * 3 == INFINITY
        assert 3 * INFINITY == INFINITY

    def test_comparisons(self):
        assert NatInf(2) < NatInf(5)
        assert NatInf(5) < INFINITY
        assert not (INFINITY < INFINITY)
        assert INFINITY <= INFINITY
        assert NatInf(3) == 3

    def test_hash_compatible_with_int(self):
        assert hash(NatInf(4)) == hash(4)
        assert {NatInf(4): "a"}[4] == "a"

    def test_negative_rejected(self):
        with pytest.raises(InvalidAnnotationError):
            NatInf(-1)

    def test_finite_value_of_infinity_raises(self):
        with pytest.raises(SemiringError):
            INFINITY.finite_value()

    def test_repr(self):
        assert repr(INFINITY) == "∞"
        assert repr(NatInf(7)) == "7"

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
    def test_addition_matches_python_ints(self, a, b):
        assert NatInf(a) + NatInf(b) == NatInf(a + b)
        assert NatInf(a) * NatInf(b) == NatInf(a * b)


#: Table operands: ``None`` is infinity.
TABLE = (0, 1, 2, 5, None)
PAIRS = [(a, b) for a in TABLE for b in TABLE]


def _natinf(value):
    return INFINITY if value is None else NatInf(value)


def _reference_sum(a, b):
    return None if a is None or b is None else a + b


def _reference_product(a, b):
    # infinity absorbs, except that infinity . 0 = 0 (Section 5)
    if a == 0 or b == 0:
        return 0
    return None if a is None or b is None else a * b


class TestNatInfTable:
    """``+`` and ``.`` over every ordered pair of {0, 1, 2, 5, infinity}, on the
    operators and on the semiring, against the reference formulas."""

    semiring = CompletedNaturalsSemiring()

    @staticmethod
    def _check(result, expected):
        assert type(result) is NatInf
        assert result._value == expected

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_sum(self, a, b):
        expected = _reference_sum(a, b)
        x, y = _natinf(a), _natinf(b)
        self._check(x + y, expected)
        self._check(self.semiring.add(x, y), expected)

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_product(self, a, b):
        expected = _reference_product(a, b)
        x, y = _natinf(a), _natinf(b)
        self._check(x * y, expected)
        self._check(self.semiring.mul(x, y), expected)

    @pytest.mark.parametrize("a, b", [(a, b) for a, b in PAIRS if b is not None])
    def test_int_operands_are_coerced(self, a, b):
        x = _natinf(a)
        self._check(x + b, _reference_sum(a, b))
        self._check(b + x, _reference_sum(a, b))
        self._check(x * b, _reference_product(a, b))
        self._check(b * x, _reference_product(a, b))
        self._check(self.semiring.add(b, x), _reference_sum(a, b))
        self._check(self.semiring.add(x, b), _reference_sum(a, b))
        self._check(self.semiring.mul(b, x), _reference_product(a, b))
        self._check(self.semiring.mul(x, b), _reference_product(a, b))

    @pytest.mark.parametrize("a", TABLE)
    @pytest.mark.parametrize("flag", (False, True))
    def test_bool_operands_are_rejected(self, a, flag):
        x = _natinf(a)
        for operation in (
            lambda: x + flag,
            lambda: flag + x,
            lambda: x * flag,
            lambda: flag * x,
            lambda: self.semiring.add(x, flag),
            lambda: self.semiring.add(flag, x),
            lambda: self.semiring.mul(x, flag),
            lambda: self.semiring.mul(flag, x),
        ):
            with pytest.raises(InvalidAnnotationError):
                operation()


class TestNaturalsSemiring:
    def setup_method(self):
        self.semiring = NaturalsSemiring()

    def test_basic_operations(self):
        assert self.semiring.add(2, 3) == 5
        assert self.semiring.mul(2, 3) == 6
        assert self.semiring.zero() == 0
        assert self.semiring.one() == 1

    def test_contains_rejects_bools_and_negatives(self):
        assert not self.semiring.contains(True)
        assert not self.semiring.contains(-1)
        assert self.semiring.contains(0)

    def test_coerce_bool(self):
        assert self.semiring.coerce(True) == 1
        assert self.semiring.coerce(False) == 0

    def test_not_omega_continuous(self):
        assert not self.semiring.is_omega_continuous


class TestCompletedNaturalsSemiring:
    def setup_method(self):
        self.semiring = CompletedNaturalsSemiring()

    def test_flags(self):
        assert self.semiring.is_omega_continuous
        assert self.semiring.has_top
        assert not self.semiring.idempotent_add

    def test_top_and_star(self):
        assert self.semiring.top() == INFINITY
        # 1* = infinity (the paper's example); 0* = 1.
        assert self.semiring.star(NatInf(1)) == INFINITY
        assert self.semiring.star(NatInf(0)) == NatInf(1)

    def test_coerce_int(self):
        assert self.semiring.coerce(4) == NatInf(4)
        with pytest.raises(InvalidAnnotationError):
            self.semiring.coerce(-2)

    def test_natural_order(self):
        assert self.semiring.leq(NatInf(2), NatInf(7))
        assert self.semiring.leq(NatInf(7), INFINITY)
        assert not self.semiring.leq(INFINITY, NatInf(7))
