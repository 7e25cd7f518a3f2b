"""The tropical semiring ``(N-inf, min, +, infinity, 0)``.

Listed by the paper among the commutative omega-continuous semirings
(Section 5).  Annotating edges of a graph with costs and running the
transitive-closure datalog program over the tropical semiring computes
shortest distances; the paper's conjecture that datalog over the tropical
semiring admits an effective procedure is realized here by the generic
fixpoint engine, which converges because tropical addition (``min``) is
idempotent.

Values are non-negative numbers (ints or floats) with ``math.inf`` /
:class:`~repro.semirings.numeric.NatInf` infinity accepted as the zero
element.
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import InvalidAnnotationError
from repro.semirings.base import ATTAINED_RTOL, Semiring
from repro.semirings.numeric import NatInf

__all__ = ["TropicalSemiring"]


class TropicalSemiring(Semiring):
    """``(R>=0 U {inf}, min, +, inf, 0)`` -- shortest-path / cost semantics.

    The natural order of the tropical semiring is the *reverse* of the
    numeric order: ``a <= b`` in the semiring sense iff ``min(a, x) == b`` for
    some ``x``, i.e. ``b <= a`` numerically.  The top element is ``0``.
    """

    name = "Tropical"
    idempotent_add = True
    selective_add = True
    is_omega_continuous = True
    has_top = True
    # min/+ is not a lattice in the (join, meet) sense used by Section 8.
    is_distributive_lattice = False

    def zero(self) -> float:
        return math.inf

    def one(self) -> float:
        return 0.0

    # ``add`` / ``mul`` run once per derivation in the row engines.  Two exact
    # non-negative floats (``inf`` included; NaN fails ``>=``) are what
    # ``coerce`` would hand back unchanged, so they skip the two calls; every
    # other operand takes ``coerce`` and raises exactly as before.
    def add(self, a: float, b: float) -> float:
        if type(a) is float and type(b) is float and a >= 0.0 and b >= 0.0:
            return a if a <= b else b  # the object min(a, b) returns
        return min(self.coerce(a), self.coerce(b))

    def mul(self, a: float, b: float) -> float:
        if type(a) is float and type(b) is float and a >= 0.0 and b >= 0.0:
            return a + b
        a, b = self.coerce(a), self.coerce(b)
        return a + b

    def contains(self, value: Any) -> bool:
        if isinstance(value, bool):
            return False
        if isinstance(value, NatInf):
            return True
        return isinstance(value, (int, float)) and (value >= 0 or math.isinf(value))

    def coerce(self, value: Any) -> float:
        if isinstance(value, NatInf):
            return math.inf if value.is_infinite else float(value.finite_value())
        if isinstance(value, bool):
            raise InvalidAnnotationError("booleans are not tropical costs")
        if isinstance(value, (int, float)) and (value >= 0 or math.isinf(value)):
            return float(value)
        raise InvalidAnnotationError(f"{value!r} is not a tropical annotation")

    def top(self) -> float:
        return 0.0

    def may_attain(self, total: float, contribution: float) -> bool:
        """Whether ``contribution`` is not strictly costlier than ``total = min(...)``."""
        return contribution <= total * (1.0 + ATTAINED_RTOL)

    def leq(self, a: float, b: float) -> bool:
        """Natural (semiring) order: smaller cost is *larger* in the order."""
        return self.coerce(b) <= self.coerce(a)

    def star(self, a: float) -> float:
        """``a* = min(0, a, a+a, ...) = 0`` for non-negative costs."""
        return 0.0

    def format_value(self, value: Any) -> str:
        value = self.coerce(value)
        if math.isinf(value):
            return "∞"
        if value == int(value):
            return str(int(value))
        return f"{value:g}"
