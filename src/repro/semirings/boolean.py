"""The Boolean semiring ``(B, or, and, False, True)``.

Annotating tuples with Booleans recovers ordinary set-semantics relations:
``True`` tags tuples in the relation, ``False`` tags absent tuples
(Section 3 of the paper).  The Boolean semiring is the smallest distributive
lattice and is omega-continuous, so both the positive algebra and datalog are
defined over it; Proposition 5.4 (the "sanity check") says datalog over ``B``
computes exactly the classical datalog answer.
"""

from __future__ import annotations

from typing import Any

from repro.errors import InvalidAnnotationError
from repro.semirings.base import Semiring
from repro.semirings.carriers import BoolCarrier

__all__ = ["BooleanSemiring"]


class BooleanSemiring(Semiring):
    """``(B, or, and, False, True)`` -- classical set semantics."""

    name = "B"
    idempotent_add = True
    selective_add = True  # ``may_attain`` stays the default: True always attains
    idempotent_mul = True
    is_omega_continuous = True
    is_distributive_lattice = True
    has_top = True
    carrier = BoolCarrier()

    def zero(self) -> bool:
        return False

    def one(self) -> bool:
        return True

    def add(self, a: bool, b: bool) -> bool:
        return bool(a) or bool(b)

    def mul(self, a: bool, b: bool) -> bool:
        return bool(a) and bool(b)

    def contains(self, value: Any) -> bool:
        return isinstance(value, bool)

    def coerce(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        if value in (0, 1):
            return bool(value)
        raise InvalidAnnotationError(f"{value!r} is not a Boolean annotation")

    def top(self) -> bool:
        return True

    def leq(self, a: bool, b: bool) -> bool:
        return (not a) or b

    def star(self, a: bool) -> bool:
        """``a* = True`` for every ``a`` (since ``1 + a + ... = True``)."""
        return True
