"""Array carriers: a semiring's ``(+, ., 0)`` on whole numpy columns.

Which tuples join, and where each contribution lands, does not depend on the
semiring (Proposition 3.5, Theorem 4.3); only the arithmetic does.  So a
semiring whose carrier maps losslessly onto a numpy dtype declares that
arithmetic once, as its ``carrier`` class attribute, and the whole-column
kernels (:mod:`repro.engine.vectorized`) and the array datalog rounds
(:mod:`repro.datalog.arraystore`) read it there.  Every other semiring
inherits ``carrier = None``; the column kernels then run an
:class:`ObjectCarrier` over it, an ``object`` array whose arithmetic is the
semiring's own scalar ``add`` / ``mul`` / ``is_zero``, while the array
datalog rounds stay with the declared carriers.

**Exactness.**  N and Z declare :class:`Int64Carrier` (overflow guards
decline to the row engines rather than wrap), Tropical, Fuzzy and Viterbi a
:class:`FloatCarrier` (min/max/+/* on IEEE doubles are bit-identical to the
scalar ``float`` path), and B :class:`BoolCarrier`.  Their ``+`` is
insensitive to regrouping on the carrier, so per-group accumulation yields
exactly the row engines' annotations, lowered back by ``.tolist()``.
:class:`ObjectCarrier` performs exactly one scalar ``.`` per matched pair
and one ``+``-chain per group, folded in contribution order by
:func:`repro.engine.kernels.combine_contributions` itself, so
representation-sensitive annotations (polynomial term orders, circuit DAG
shapes) come out of the same operations.  The module imports without numpy;
``vector_ops_for`` then hands out nothing.
"""

from __future__ import annotations

from typing import Any, Iterable

try:  # pragma: no cover - exercised implicitly by every vectorized test
    import numpy as _np
except ImportError:  # pragma: no cover - CI images without numpy
    _np = None

__all__ = ["VectorOps", "Int64Carrier", "FloatCarrier", "BoolCarrier", "ObjectCarrier"]

#: Magnitude bound for int64 vector arithmetic: if ``|a|.max * |b|.max`` or
#: ``count * |v|.max`` can exceed this, the operation falls back to the
#: scalar engine instead of risking silent wraparound.  Python's unbounded
#: ints make the guard itself exact.
_INT64_GUARD = 1 << 62


class _Fallback(Exception):
    """This plan/instance cannot be vectorized exactly; use rows."""


def _object_array(values: list):
    """A 1-D object array holding ``values`` verbatim (no nested broadcast)."""
    array = _np.empty(len(values), dtype=object)
    array[:] = values
    return array


class VectorOps:
    """Array-at-a-time ``(+, ., 0)`` for one carrier.

    ``to_array`` lifts a sequence of carrier values; ``mul`` multiplies and
    ``add`` sums two annotation arrays elementwise (the semi-naive merge of a
    round's totals into the stored column); ``accumulate`` combines all
    contributions landing in the same output group with the semiring's ``+``
    (one ``ufunc.at`` scatter on a numeric carrier); ``zero_mask`` flags
    totals that are the semiring zero (possible under Z's cancellation).
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


class ObjectCarrier(VectorOps):
    """Any semiring: ``object`` arrays through its own scalar operations.

    numpy still matches, groups and decodes on integer codes; only the
    annotation arithmetic runs in Python, and only where Definition 3.2
    charges it: one ``mul`` per matched pair, ``values - groups`` ``add``
    calls per accumulation and one ``is_zero`` per total.  Over an
    instrumented wrapper these are the wrapper's counted operations.  It has
    no elementwise ``add``: only the array datalog rounds merge two columns,
    and they run on declared carriers alone.
    """

    def __init__(self, semiring: Any):
        self.semiring = semiring

    def to_array(self, values):
        return _object_array(list(values))

    def mul(self, a, b):
        return _object_array(list(map(self.semiring.mul, a.tolist(), b.tolist())))

    def accumulate(self, values, group_ids, n_groups):
        """Each group's contributions folded by ``combine_contributions``.

        A stable sort by group keeps every group's batch in contribution
        order; the first contribution of each group is scattered in place
        and only groups holding several are folded, so each total is what
        the row pipeline's accumulation builds from the same batch.  A group
        with no contribution (the dense path of ``group_codes`` asks for
        some) is the semiring zero.
        """
        from repro.engine.kernels import combine_contributions  # engine imports this module

        totals = _np.empty(n_groups, dtype=object)
        totals.fill(self.semiring.zero())
        counts = _np.bincount(group_ids, minlength=n_groups)
        order = _np.argsort(group_ids, kind="stable")
        ends = _np.cumsum(counts)
        starts = ends - counts
        present = _np.flatnonzero(counts)
        totals[present] = values[order[starts[present]]]
        ordered = values[order].tolist()
        folded = _np.flatnonzero(counts > 1)
        for group, start, end in zip(
            folded.tolist(), starts[folded].tolist(), ends[folded].tolist()
        ):
            totals[group] = combine_contributions(self.semiring, ordered[start:end])
        return totals

    def zero_mask(self, totals):
        return _np.fromiter(
            map(self.semiring.is_zero, totals.tolist()), dtype=bool, count=len(totals)
        )
