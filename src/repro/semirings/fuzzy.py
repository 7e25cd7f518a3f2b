"""Fuzzy and Viterbi semirings over the real unit interval.

The paper lists ``([0, 1], max, min, 0, 1)`` -- the *fuzzy semiring*, related
to fuzzy set membership -- among its examples of commutative omega-continuous
semirings, and notes it is a distributive lattice (Sections 5 and 9).  The
Viterbi semiring ``([0, 1], max, ., 0, 1)`` is the standard "best derivation
probability" variant and is included because it exercises an
idempotent-addition / non-idempotent-multiplication combination that the
lattice-based semirings do not.
"""

from __future__ import annotations

from typing import Any

from repro.errors import InvalidAnnotationError
from repro.semirings.base import ATTAINED_RTOL, Semiring
from repro.semirings.carriers import FloatCarrier

__all__ = ["FuzzySemiring", "ViterbiSemiring"]


def _check_unit_interval(value: Any, name: str) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)) and 0.0 <= float(value) <= 1.0:
        return float(value)
    raise InvalidAnnotationError(f"{value!r} is not in [0, 1] (semiring {name})")


# ``add`` / ``mul`` below run once per derivation in the row engines.  Two
# exact floats in ``[0, 1]`` (NaN fails the comparisons) are what ``coerce``
# would hand back unchanged, so they skip the two calls -- the test is inlined
# because a helper call would cost what it saves; every other operand takes
# ``coerce`` and raises exactly as before.


def _may_attain_max(self, total: float, contribution: float) -> bool:
    """Whether ``contribution`` is not strictly below ``total = max(...)``."""
    return contribution >= total * (1.0 - ATTAINED_RTOL)


class FuzzySemiring(Semiring):
    """``([0, 1], max, min, 0, 1)`` -- fuzzy membership degrees.

    A bounded distributive lattice, hence covered by the Section 8
    terminating-datalog construction and by Theorem 9.2 on containment.
    """

    name = "Fuzzy"
    idempotent_add = True
    selective_add = True
    idempotent_mul = True
    is_omega_continuous = True
    is_distributive_lattice = True
    has_top = True
    carrier = FloatCarrier("maximum", "minimum", 0.0)

    def zero(self) -> float:
        return 0.0

    def one(self) -> float:
        return 1.0

    def add(self, a: float, b: float) -> float:
        if type(a) is float and type(b) is float and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0:
            return a if a >= b else b  # the object max(a, b) returns
        return max(self.coerce(a), self.coerce(b))

    def mul(self, a: float, b: float) -> float:
        if type(a) is float and type(b) is float and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0:
            return a if a <= b else b  # the object min(a, b) returns
        return min(self.coerce(a), self.coerce(b))

    def contains(self, value: Any) -> bool:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and 0.0 <= float(value) <= 1.0
        )

    def coerce(self, value: Any) -> float:
        return _check_unit_interval(value, self.name)

    def top(self) -> float:
        return 1.0

    may_attain = _may_attain_max

    def leq(self, a: float, b: float) -> bool:
        return self.coerce(a) <= self.coerce(b)

    def star(self, a: float) -> float:
        """``a* = max(1, a, ...) = 1``."""
        return 1.0


class ViterbiSemiring(Semiring):
    """``([0, 1], max, ., 0, 1)`` -- probability of the best derivation."""

    name = "Viterbi"
    idempotent_add = True
    selective_add = True
    idempotent_mul = False
    is_omega_continuous = True
    is_distributive_lattice = False
    has_top = True
    carrier = FloatCarrier("maximum", "multiply", 0.0)

    def zero(self) -> float:
        return 0.0

    def one(self) -> float:
        return 1.0

    def add(self, a: float, b: float) -> float:
        if type(a) is float and type(b) is float and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0:
            return a if a >= b else b  # the object max(a, b) returns
        return max(self.coerce(a), self.coerce(b))

    def mul(self, a: float, b: float) -> float:
        if type(a) is float and type(b) is float and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0:
            return a * b
        return self.coerce(a) * self.coerce(b)

    def contains(self, value: Any) -> bool:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and 0.0 <= float(value) <= 1.0
        )

    def coerce(self, value: Any) -> float:
        return _check_unit_interval(value, self.name)

    def top(self) -> float:
        return 1.0

    may_attain = _may_attain_max

    def leq(self, a: float, b: float) -> bool:
        return self.coerce(a) <= self.coerce(b)

    def star(self, a: float) -> float:
        """``a* = sup(1, a, a^2, ...) = 1`` for ``a`` in ``[0, 1]``."""
        return 1.0
