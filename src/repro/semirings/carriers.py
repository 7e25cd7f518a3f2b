"""Array carriers: a semiring's ``(+, ., 0)`` on whole numpy columns.

Which tuples join, and where each contribution lands, does not depend on the
semiring (Proposition 3.5, Theorem 4.3); only the arithmetic does.  So a
semiring whose carrier maps losslessly onto a numpy dtype declares that
arithmetic once, as its ``carrier`` class attribute, and the whole-column
kernels (:mod:`repro.engine.vectorized`) and the array datalog rounds
(:mod:`repro.datalog.arraystore`) read it there; every other semiring
inherits ``carrier = None`` and runs on rows.

**Exactness.**  N and Z declare :class:`Int64Carrier` (overflow guards
decline to the row engines rather than wrap), Tropical, Fuzzy and Viterbi a
:class:`FloatCarrier` (min/max/+/* on IEEE doubles are bit-identical to the
scalar ``float`` path), and B :class:`BoolCarrier`.  Their ``+`` is
insensitive to regrouping on the carrier, so per-group accumulation yields
exactly the row engines' annotations, lowered back by ``.tolist()``.  The
module imports without numpy; ``vector_ops_for`` then hands out nothing.
"""

from __future__ import annotations

from typing import Any, Iterable

try:  # pragma: no cover - exercised implicitly by every vectorized test
    import numpy as _np
except ImportError:  # pragma: no cover - CI images without numpy
    _np = None

__all__ = ["VectorOps", "Int64Carrier", "FloatCarrier", "BoolCarrier"]

#: Magnitude bound for int64 vector arithmetic: if ``|a|.max * |b|.max`` or
#: ``count * |v|.max`` can exceed this, the operation falls back to the
#: scalar engine instead of risking silent wraparound.  Python's unbounded
#: ints make the guard itself exact.
_INT64_GUARD = 1 << 62


class _Fallback(Exception):
    """This plan/instance cannot be vectorized exactly; use rows."""


class VectorOps:
    """Array-at-a-time ``(+, ., 0)`` for one numeric carrier.

    ``to_array`` lifts a sequence of carrier values; ``mul`` multiplies and
    ``add`` sums two annotation arrays elementwise (the semi-naive merge of a
    round's totals into the stored column); ``accumulate`` combines all
    contributions landing in the same output group with the semiring's ``+``
    (one ``ufunc.at`` scatter); ``zero_mask`` flags groups that summed to the
    semiring zero (possible under Z's cancellation).
    """

    def to_array(self, values: Iterable[Any]):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def accumulate(self, values, group_ids, n_groups):
        raise NotImplementedError

    def zero_mask(self, totals):
        raise NotImplementedError


def _magnitude(a) -> int:
    """``max |a|`` as a Python int (``np.abs`` wraps at ``-2**63``)."""
    return max(-int(a.min()), int(a.max()))


class Int64Carrier(VectorOps):
    """N and Z: ``int64`` arrays with exact overflow guards."""

    def to_array(self, values):
        try:
            return _np.array(list(values), dtype=_np.int64)
        except (OverflowError, TypeError, ValueError):
            raise _Fallback from None

    def mul(self, a, b):
        if len(a) and _magnitude(a) * _magnitude(b) > _INT64_GUARD:
            raise _Fallback
        return a * b

    def add(self, a, b):
        if len(a) and _magnitude(a) + _magnitude(b) > _INT64_GUARD:
            raise _Fallback
        return a + b

    def accumulate(self, values, group_ids, n_groups):
        if len(values) and len(values) * _magnitude(values) > _INT64_GUARD:
            raise _Fallback
        totals = _np.zeros(n_groups, dtype=_np.int64)
        _np.add.at(totals, group_ids, values)
        return totals

    def zero_mask(self, totals):
        return totals == 0


class FloatCarrier(VectorOps):
    """Tropical / Fuzzy / Viterbi: ``float64`` min/max/+/* (IEEE-exact).

    ``add`` and ``mul`` name the numpy ufuncs of the semiring's ``+`` and
    ``.`` (``"minimum"``, ``"maximum"``, ``"add"``, ``"multiply"``); ``zero``
    is its additive identity.
    """

    def __init__(self, add: str, mul: str, zero: float):
        self._add = getattr(_np, add, None)  # None without numpy
        self._mul = getattr(_np, mul, None)
        self._zero = zero

    def to_array(self, values):
        try:
            return _np.array(list(values), dtype=_np.float64)
        except (TypeError, ValueError):
            raise _Fallback from None

    def mul(self, a, b):
        return self._mul(a, b)

    def add(self, a, b):
        return self._add(a, b)

    def accumulate(self, values, group_ids, n_groups):
        totals = _np.full(n_groups, self._zero, dtype=_np.float64)
        self._add.at(totals, group_ids, values)
        return totals

    def zero_mask(self, totals):
        return totals == self._zero


class BoolCarrier(VectorOps):
    """B: boolean arrays, ``+`` = or, ``.`` = and."""

    def to_array(self, values):
        return _np.array([bool(v) for v in values], dtype=bool)

    def mul(self, a, b):
        return a & b

    def add(self, a, b):
        return a | b

    def accumulate(self, values, group_ids, n_groups):
        totals = _np.zeros(n_groups, dtype=bool)
        _np.logical_or.at(totals, group_ids, values)
        return totals

    def zero_mask(self, totals):
        return ~totals
