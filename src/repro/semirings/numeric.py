"""Numeric semirings: the naturals ``N`` and the completed naturals ``N-inf``.

``(N, +, ., 0, 1)`` gives the bag (multiset) semantics of the positive
relational algebra: a tuple's annotation is its multiplicity (Figure 3 of the
paper).  ``N`` is *not* omega-continuous -- infinite sums are undefined -- so
datalog semantics instead uses its completion ``N-inf`` which adds a greatest
element ``infinity`` with ``infinity + n = infinity`` and
``infinity . n = infinity`` except ``infinity . 0 = 0`` (Section 5).

Infinity is modelled by the dedicated value class :class:`NatInf` so that
annotations remain plain hashable values; ordinary Python ``int`` values are
accepted and coerced.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.errors import InvalidAnnotationError, SemiringError
from repro.semirings.base import Semiring
from repro.semirings.carriers import Int64Carrier

__all__ = ["NatInf", "INFINITY", "NaturalsSemiring", "CompletedNaturalsSemiring"]


@functools.total_ordering
class NatInf:
    """An element of ``N-inf``: a natural number or the value infinity.

    Instances are immutable, hashable, and interoperate with Python ``int``
    in arithmetic and comparisons.  The module-level constant
    :data:`INFINITY` is the canonical infinite value.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | None = 0):
        """Create a value; ``None`` means infinity, otherwise a natural number."""
        if value is not None:
            if isinstance(value, NatInf):
                value = value._value
            elif not isinstance(value, int) or isinstance(value, bool):
                raise InvalidAnnotationError(f"{value!r} is not a natural number")
            if value is not None and value < 0:
                raise InvalidAnnotationError("NatInf values must be non-negative")
        self._value = value

    # -- construction helpers -------------------------------------------------
    @classmethod
    def infinity(cls) -> "NatInf":
        """Return the infinite value."""
        return cls(None)

    @classmethod
    def of(cls, value: "NatInf | int") -> "NatInf":
        """Coerce an ``int`` or ``NatInf`` into a ``NatInf``."""
        if isinstance(value, NatInf):
            return value
        return cls(value)

    # -- predicates ------------------------------------------------------------
    @property
    def is_infinite(self) -> bool:
        """Whether this value is infinity."""
        return self._value is None

    @property
    def is_finite(self) -> bool:
        """Whether this value is a natural number."""
        return self._value is not None

    def finite_value(self) -> int:
        """Return the underlying ``int``; raise if the value is infinite."""
        if self._value is None:
            raise SemiringError("value is infinite")
        return self._value

    # -- arithmetic -------------------------------------------------------------
    # Both operators run on ``_value`` directly (``None`` is infinity): the
    # datalog solver calls them once per rule body factor, so an exact
    # ``NatInf`` operand skips ``of`` and the results skip ``__init__``'s
    # validation -- a sum or product of naturals is a natural.
    def __add__(self, other: "NatInf | int") -> "NatInf":
        if type(other) is not NatInf:
            other = NatInf.of(other)
        a, b = self._value, other._value
        if a is None or b is None:
            return INFINITY
        if not a:
            return other
        if not b:
            return self
        result = object.__new__(NatInf)
        result._value = a + b
        return result

    __radd__ = __add__

    def __mul__(self, other: "NatInf | int") -> "NatInf":
        if type(other) is not NatInf:
            other = NatInf.of(other)
        a, b = self._value, other._value
        # infinity . 0 = 0 . infinity = 0, everything else with an infinite
        # factor is infinite (Section 5 of the paper).
        if a == 0 or b == 0:
            return _ZERO
        if a is None or b is None:
            return INFINITY
        if a == 1:
            return other
        if b == 1:
            return self
        result = object.__new__(NatInf)
        result._value = a * b
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "NatInf":
        if exponent < 0:
            raise SemiringError("negative exponents are undefined in N-inf")
        if exponent == 0:
            return _ONE
        if self.is_infinite:
            return INFINITY
        return NatInf(self._value**exponent)

    # -- comparisons -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = NatInf(other)
        if not isinstance(other, NatInf):
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other: "NatInf | int") -> bool:
        other = NatInf.of(other)
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self._value < other._value

    def __hash__(self) -> int:
        # Finite values hash like their int so that 3 and NatInf(3) coincide
        # as dictionary keys; infinity gets a stable dedicated hash.
        if self._value is None:
            return hash(("NatInf", "infinity"))
        return hash(self._value)

    def __bool__(self) -> bool:
        return self._value != 0

    def __repr__(self) -> str:
        return "∞" if self._value is None else str(self._value)


#: The canonical infinite element of ``N-inf``.
INFINITY = NatInf(None)
_ZERO, _ONE = NatInf(0), NatInf(1)


class NaturalsSemiring(Semiring):
    """``(N, +, ., 0, 1)`` -- bag semantics (tuple multiplicities).

    Not omega-continuous: datalog evaluation over ``N`` may fail to converge,
    use :class:`CompletedNaturalsSemiring` instead for recursive queries.
    """

    name = "N"
    idempotent_add = False
    is_omega_continuous = False
    carrier = Int64Carrier()

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    def coerce(self, value: Any) -> int:
        if isinstance(value, NatInf):
            return value.finite_value()
        if isinstance(value, bool):
            return 1 if value else 0
        return self.check(value)

    def leq(self, a: int, b: int) -> bool:
        return a <= b

    def from_int(self, n: int) -> int:
        if n < 0:
            raise SemiringError("naturals are non-negative")
        return n


class CompletedNaturalsSemiring(Semiring):
    """``(N-inf, +, ., 0, 1)`` -- the omega-continuous completion of ``N``.

    This is the semiring in which datalog with bag semantics is evaluated
    (Figure 7 of the paper): tuples with infinitely many derivation trees get
    annotation infinity.
    """

    name = "N∞"
    idempotent_add = False
    is_omega_continuous = True
    has_top = True

    def zero(self) -> NatInf:
        return _ZERO

    def one(self) -> NatInf:
        return _ONE

    def is_zero(self, value: Any) -> bool:
        if isinstance(value, NatInf):
            return value._value == 0
        return value == _ZERO

    def is_one(self, value: Any) -> bool:
        if isinstance(value, NatInf):
            return value._value == 1
        return value == _ONE

    def add(self, a: NatInf, b: NatInf) -> NatInf:
        return NatInf.__add__(a if type(a) is NatInf else NatInf.of(a), b)

    def mul(self, a: NatInf, b: NatInf) -> NatInf:
        return NatInf.__mul__(a if type(a) is NatInf else NatInf.of(a), b)

    def contains(self, value: Any) -> bool:
        if isinstance(value, NatInf):
            return True
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    def coerce(self, value: Any) -> NatInf:
        if isinstance(value, bool):
            return _ONE if value else _ZERO
        if isinstance(value, NatInf):
            return value
        if isinstance(value, int) and value >= 0:
            return NatInf(value)
        raise InvalidAnnotationError(f"{value!r} is not an element of N∞")

    def top(self) -> NatInf:
        return INFINITY

    def leq(self, a: NatInf, b: NatInf) -> bool:
        return NatInf.of(a) <= NatInf.of(b)

    def from_int(self, n: int) -> NatInf:
        return NatInf(n)

    def star(self, a: NatInf) -> NatInf:
        """``a* = 1`` when ``a == 0``, infinity otherwise (e.g. ``1* = ∞``)."""
        a = NatInf.of(a)
        if a.is_finite and a.finite_value() == 0:
            return _ONE
        return INFINITY

    def format_value(self, value: Any) -> str:
        return repr(NatInf.of(value))
