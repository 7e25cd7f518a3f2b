"""An instrumented semiring wrapper: delegates every operation and counts.

:class:`InstrumentedSemiring` wraps any :class:`~repro.semirings.base.Semiring`
(including registry semirings and circuits) and is annotation-identical to
its delegate -- ``add``/``mul``/``is_zero`` return exactly what the delegate
returns, and every structural flag (``name``, ``idempotent_add``, ring
capability, ...) is mirrored, so K-relations, databases, the planner's
property gates and the datalog engine all treat the wrapper as the wrapped
semiring.  The only difference is that the three hot operations bump an
:class:`~repro.obs.metrics.OpCounter` on the way through.

Because semirings are compared *by name* throughout the system (databases,
kernels, cross-relation checks), a database built over an instrumented
semiring interoperates with plain relations over the delegate; the
differential test suite (``tests/obs``) proves annotation-for-annotation
equality across N, B, Tropical, PosBool, Z, N[X] and circuits.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.metrics import OpCounter
from repro.semirings.base import Semiring

__all__ = ["InstrumentedSemiring", "instrument"]


class InstrumentedSemiring(Semiring):
    """Count ``add``/``mul``/``is_zero`` calls of a delegate semiring.

    ``ops`` is the attached :class:`OpCounter` (a fresh one unless shared
    explicitly); ``delegate`` is the wrapped semiring.  All other methods --
    coercion, order, star, rendering, ring operations -- forward verbatim.
    ``sum``/``product`` are inherited from the base class, which folds
    through ``self.add``/``self.mul``, so batched chains are counted
    per-element exactly like explicit loops.
    """

    __slots__ = ("delegate", "ops")

    def __init__(self, delegate: Semiring, ops: OpCounter | None = None):
        if isinstance(delegate, InstrumentedSemiring):
            delegate = delegate.delegate
        self.delegate = delegate
        self.ops = ops if ops is not None else OpCounter()
        # Mirror the structural flags so property-gated code paths (planner
        # rewrites, datalog regimes, view deletion support) see the delegate.
        self.name = delegate.name
        self.idempotent_add = delegate.idempotent_add
        self.selective_add = delegate.selective_add
        self.idempotent_mul = delegate.idempotent_mul
        self.is_omega_continuous = delegate.is_omega_continuous
        self.is_distributive_lattice = delegate.is_distributive_lattice
        self.has_top = delegate.has_top
        self.naturally_ordered = delegate.naturally_ordered
        self.has_negation = delegate.has_negation

    def __reduce__(self):
        # Pickles by reconstruction so worker processes get a working
        # wrapper (delegate + a value-copy of the counter).  Counts bumped
        # in a worker do not flow back to the parent's OpCounter -- op
        # metrics are per-process; the parallel executor's spans carry the
        # cross-process accounting instead.
        return (InstrumentedSemiring, (self.delegate, self.ops))

    # -- counted hot path --------------------------------------------------------
    def add(self, a: Any, b: Any) -> Any:
        self.ops.plus += 1
        return self.delegate.add(a, b)

    def mul(self, a: Any, b: Any) -> Any:
        self.ops.times += 1
        return self.delegate.mul(a, b)

    def is_zero(self, value: Any) -> bool:
        self.ops.is_zero += 1
        return self.delegate.is_zero(value)

    # -- verbatim delegation -----------------------------------------------------
    def zero(self) -> Any:
        return self.delegate.zero()

    def one(self) -> Any:
        return self.delegate.one()

    def contains(self, value: Any) -> bool:
        return self.delegate.contains(value)

    def coerce(self, value: Any) -> Any:
        return self.delegate.coerce(value)

    def is_one(self, value: Any) -> bool:
        return self.delegate.is_one(value)

    def negate(self, value: Any) -> Any:
        return self.delegate.negate(value)

    def subtract(self, a: Any, b: Any) -> Any:
        # Route through the counted add so ring subtraction shows up as plus.
        return self.add(a, self.negate(b))

    def leq(self, a: Any, b: Any) -> bool:
        return self.delegate.leq(a, b)

    def may_attain(self, total: Any, contribution: Any) -> bool:
        return self.delegate.may_attain(total, contribution)

    def top(self) -> Any:
        return self.delegate.top()

    def star(self, a: Any) -> Any:
        return self.delegate.star(a)

    def normalize(self, value: Any) -> Any:
        return self.delegate.normalize(value)

    def format_value(self, value: Any) -> str:
        return self.delegate.format_value(value)

    def summarize_value(self, value: Any) -> str:
        return self.delegate.summarize_value(value)

    def check(self, value: Any) -> Any:
        return self.delegate.check(value)

    def from_int(self, n: int) -> Any:
        # Delegate directly: some semirings (circuits, Z) embed integers in
        # O(1) rather than by the n-fold +-chain of the base implementation,
        # and the wrapper must be representation-identical to its delegate.
        return self.delegate.from_int(n)

    def scale(self, n: int, value: Any) -> Any:
        return self.delegate.scale(n, value)

    def power(self, value: Any, n: int) -> Any:
        return self.delegate.power(value, n)

    def __repr__(self) -> str:
        return f"<InstrumentedSemiring {self.name} ops={self.ops!r}>"


def instrument(semiring: Semiring, ops: OpCounter | None = None) -> InstrumentedSemiring:
    """Wrap ``semiring`` so its ``plus``/``times``/``is_zero`` calls are counted."""
    return InstrumentedSemiring(semiring, ops)
