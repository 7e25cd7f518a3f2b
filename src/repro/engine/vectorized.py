"""Whole-column (vectorized) query execution over columnar K-relations.

The pipelined engine of :mod:`repro.engine.compile` still runs a Python
loop per row; this module evaluates the same positive-algebra plans one
**column** at a time instead, MonetDB-style, on ``numpy`` arrays:

* a scan reads the per-attribute value arrays and the parallel annotation
  array straight out of a :class:`~repro.relations.storage.ColumnarRowStore`
  (object arrays for attribute columns; ``int64``/``float64``/``bool`` for
  the annotations of the vectorizable semirings);
* a selection compiles its structured predicate to a boolean mask;
* a join factorizes the shared key columns to integer codes, sorts the
  build side once, finds every probe row's bucket with two binary searches
  (``searchsorted``) and expands the matching (build, probe) index pairs
  without a Python-level loop; annotations multiply array-at-a-time;
* projections and unions group rows by integer-coded keys and combine all
  annotation contributions per output group with a single ``ufunc.at``
  scatter -- the batched ``+``-chain of :func:`~repro.engine.kernels.
  accumulate_batches`, performed by the ufunc inner loop;
* canonical :class:`~repro.relations.tuples.Tup` objects are rebuilt only
  for the final result rows.

**Exactness.**  Only semirings whose carrier maps losslessly onto a numpy
dtype are vectorized -- N and Z (``int64``, with explicit overflow guards
that fall back to the scalar engine rather than wrap), Tropical, Fuzzy and
Viterbi (``float64``; min/max/+/* on IEEE doubles are bit-identical to the
scalar ``float`` path), and B (``bool``).  Their ``+`` is commutative *and*
order-insensitive on the carrier (sums of ints, min/max of floats, or of
bools), so regrouping contributions per output tuple yields exactly the
annotations the row-at-a-time engines produce; the differential harnesses
in ``tests/engine`` assert this.  Everything else -- polynomials, circuits,
event sets, ``N-inf`` -- and every plan shape this module does not cover
(opaque predicates, non-total comparisons) falls back to the row engine,
which works on either storage backend.

Dispatch is by ``semiring.name``, so the annotation-identical
:class:`~repro.obs.semiring.InstrumentedSemiring` wrapper also takes the
vectorized path -- its per-op counters then see only the residual scalar
work, which is precisely the point: ``BENCH_*.json`` op counts attribute
the columnar speedup to Python-level semiring calls that no longer happen.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

from repro.algebra.ast import (
    EmptyRelation,
    Join,
    Project,
    Query,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.algebra.operators import validate_rename
from repro.algebra.predicates import (
    AttrEquals,
    AttrEqualsConst,
    AttrNotEqualsConst,
    BasePredicate,
    ComparisonPredicate,
    Conjunction,
    Disjunction,
    FalsePredicate,
    Negation,
    TruePredicate,
)
from repro.errors import SchemaError
from repro.obs import trace as _trace
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.storage import ColumnarRowStore
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring

try:  # pragma: no cover - exercised implicitly by every vectorized test
    import numpy as _np
except ImportError:  # pragma: no cover - CI images without numpy
    _np = None

__all__ = [
    "numpy_available",
    "vector_ops_for",
    "try_execute",
    "try_join",
    "try_project",
    "combine_codes",
    "split_codes",
    "group_codes",
    "sort_codes",
    "fire_linear_join",
]

#: Magnitude bound for int64 vector arithmetic: if ``|a|.max * |b|.max`` or
#: ``count * |v|.max`` can exceed this, the operation falls back to the
#: scalar engine instead of risking silent wraparound.  Python's unbounded
#: ints make the guard itself exact.
_INT64_GUARD = 1 << 62


def numpy_available() -> bool:
    """Whether the vectorized kernels can run at all."""
    return _np is not None


class _Fallback(Exception):
    """Internal: this plan/instance cannot be vectorized exactly; use rows."""


# ---------------------------------------------------------------------------
# Vector-level semiring arithmetic
# ---------------------------------------------------------------------------


class VectorOps:
    """Array-at-a-time ``(+, ., 0)`` for one numeric carrier.

    ``to_array`` lifts a sequence of carrier values; ``mul`` multiplies and
    ``add`` sums two annotation arrays elementwise (the semi-naive merge of a
    round's totals into the stored column); ``accumulate`` combines all
    contributions landing in the same output group with the semiring's ``+``
    (one ``ufunc.at`` scatter); ``zero_mask`` flags groups that summed to the
    semiring zero (possible under Z's cancellation); ``to_python`` lowers a
    numpy scalar back to the exact carrier type the scalar engine uses.
    """

    name = "abstract"

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

    def to_python(self, value) -> Any:
        raise NotImplementedError


class _IntSumOps(VectorOps):
    """N and Z: ``int64`` arrays with exact overflow guards."""

    def __init__(self, name: str):
        self.name = name

    def to_array(self, values):
        try:
            return _np.array(list(values), dtype=_np.int64)
        except (OverflowError, TypeError, ValueError):
            raise _Fallback from None

    def mul(self, a, b):
        if len(a):
            bound = int(_np.abs(a).max()) * int(_np.abs(b).max())
            if bound > _INT64_GUARD:
                raise _Fallback
        return a * b

    def add(self, a, b):
        if len(a):
            bound = int(_np.abs(a).max()) + int(_np.abs(b).max())
            if bound > _INT64_GUARD:
                raise _Fallback
        return a + b

    def accumulate(self, values, group_ids, n_groups):
        if len(values):
            bound = len(values) * int(_np.abs(values).max())
            if bound > _INT64_GUARD:
                raise _Fallback
        totals = _np.zeros(n_groups, dtype=_np.int64)
        _np.add.at(totals, group_ids, values)
        return totals

    def zero_mask(self, totals):
        return totals == 0

    def to_python(self, value) -> int:
        return int(value)


class _FloatOps(VectorOps):
    """Tropical / Fuzzy / Viterbi: ``float64`` min/max/+/* (IEEE-exact)."""

    def __init__(self, name: str, add_ufunc, mul_kind: str, zero: float):
        self.name = name
        self._add_ufunc = add_ufunc  # np.minimum or np.maximum
        self._mul_kind = mul_kind  # "sum" (tropical) | "min" | "product"
        self._zero = zero

    def to_array(self, values):
        try:
            return _np.array(list(values), dtype=_np.float64)
        except (TypeError, ValueError):
            raise _Fallback from None

    def mul(self, a, b):
        if self._mul_kind == "sum":
            return a + b
        if self._mul_kind == "min":
            return _np.minimum(a, b)
        return a * b

    def add(self, a, b):
        return self._add_ufunc(a, b)

    def accumulate(self, values, group_ids, n_groups):
        totals = _np.full(n_groups, self._zero, dtype=_np.float64)
        self._add_ufunc.at(totals, group_ids, values)
        return totals

    def zero_mask(self, totals):
        return totals == self._zero

    def to_python(self, value) -> float:
        return float(value)


class _BoolOps(VectorOps):
    """B: boolean arrays, ``+`` = or, ``.`` = and."""

    name = "B"

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

    def to_python(self, value) -> bool:
        return bool(value)


def _build_ops_table() -> Dict[str, VectorOps]:
    if _np is None:
        return {}
    return {
        "N": _IntSumOps("N"),
        "Z": _IntSumOps("Z"),
        "Tropical": _FloatOps("Tropical", _np.minimum, "sum", float("inf")),
        "Fuzzy": _FloatOps("Fuzzy", _np.maximum, "min", 0.0),
        "Viterbi": _FloatOps("Viterbi", _np.maximum, "product", 0.0),
        "B": _BoolOps(),
    }


_OPS_BY_NAME: Dict[str, VectorOps] = _build_ops_table()


def vector_ops_for(semiring: Semiring) -> VectorOps | None:
    """The vector arithmetic for ``semiring``, or ``None`` when unavailable.

    Dispatch is by name so the annotation-identical instrumented wrapper
    (:class:`repro.obs.semiring.InstrumentedSemiring`) vectorizes exactly
    like the semiring it wraps.  Checked against the runtime at call time
    (not just import time) so every vectorized entry point declines
    together when numpy is unavailable.
    """
    if _np is None:
        return None
    return _OPS_BY_NAME.get(semiring.name)


# ---------------------------------------------------------------------------
# Column batches
# ---------------------------------------------------------------------------


class _Col:
    """A dictionary-encoded column: dense ``int64`` codes into an alphabet.

    ``uniques`` is the (small) object array of distinct values the column
    has ever held; ``codes[i]`` indexes into it.  Every structural
    operation -- join key matching, group-by, equality masks -- runs on the
    integer codes; the actual values are gathered back (``uniques[codes]``)
    only when the final result materializes.
    """

    __slots__ = ("codes", "uniques")

    def __init__(self, codes, uniques):
        self.codes = codes
        self.uniques = uniques

    def take(self, index) -> "_Col":
        return _Col(self.codes[index], self.uniques)

    def values(self):
        return self.uniques[self.codes]


class _Batch:
    """An intermediate result: named encoded columns + an annotation array.

    Rows are unique by construction (scans read a finite-support map;
    grouping operators re-unique), so joins never need a dedup pass.
    ``display`` tracks the attribute order the operator-at-a-time path
    would have displayed -- equality of K-relations ignores it, but the
    final schema should still read naturally.
    """

    __slots__ = ("display", "columns", "ann")

    def __init__(self, display: Tuple[str, ...], columns: Dict[str, _Col], ann):
        self.display = display
        self.columns = columns
        self.ann = ann

    def __len__(self) -> int:
        return len(self.ann)


def _object_array(values: list):
    """A 1-D object array holding ``values`` verbatim (no nested broadcast)."""
    array = _np.empty(len(values), dtype=object)
    array[:] = values
    return array


def _encode_column(values) -> _Col:
    """Dictionary-encode a raw value sequence with a hash table.

    Hash-based interning matches the dict-equality grouping of the row
    engines exactly (no reliance on a total order over the domain).
    """
    table: Dict[Any, int] = {}
    alphabet: list = []
    codes = _np.empty(len(values), dtype=_np.int64)
    for i, value in enumerate(values):
        code = table.get(value)
        if code is None:
            code = len(alphabet)
            table[value] = code
            alphabet.append(value)
        codes[i] = code
    return _Col(codes, _object_array(alphabet))


def _scan_batch(relation: KRelation, ops: VectorOps) -> _Batch:
    """Lift a relation into an encoded column batch.

    For columnar stores the encoding (and the lifted annotation array) is
    cached on the store keyed by its mutation version, so the semi-naive
    fixpoint rounds and repeated queries re-scan for free.
    """
    store = relation._store
    display = tuple(relation.schema.attributes)
    if isinstance(store, ColumnarRowStore):
        cache = getattr(store, "_vec_cache", None)
        if cache is not None and cache[0] == store.version:
            columns, ann_values = cache[1], cache[2]
        else:
            columns = {
                attribute: _encode_column(column)
                for attribute, column in zip(store.attributes, store.columns)
            }
            ann_values = list(store.annotations)
            store._vec_cache = (store.version, columns, ann_values)
        return _Batch(display, dict(columns), ops.to_array(ann_values))
    attributes = tuple(sorted(relation.schema.attribute_set))
    raw: list[list] = [[] for _ in attributes]
    annotations: list = []
    for tup, annotation in store.items():
        for bucket, (_, value) in zip(raw, tup._items):
            bucket.append(value)
        annotations.append(annotation)
    columns = {a: _encode_column(bucket) for a, bucket in zip(attributes, raw)}
    return _Batch(display, columns, ops.to_array(annotations))


def _align(left: _Col, right: _Col) -> Tuple[Any, Any, int]:
    """Re-code two columns into one shared alphabet: ``(lcodes, rcodes, size)``.

    Only the (small) alphabets are touched with Python-level hashing; the
    code arrays remap with one fancy-index gather each.
    """
    table: Dict[Any, int] = {}
    left_map = _np.empty(len(left.uniques), dtype=_np.int64)
    for i, value in enumerate(left.uniques):
        left_map[i] = table.setdefault(value, len(table))
    right_map = _np.empty(len(right.uniques), dtype=_np.int64)
    for i, value in enumerate(right.uniques):
        right_map[i] = table.setdefault(value, len(table))
    size = len(table)
    lcodes = left_map[left.codes] if len(left.codes) else left.codes
    rcodes = right_map[right.codes] if len(right.codes) else right.codes
    return lcodes, rcodes, size


def _merged_col(left: _Col, right: _Col) -> _Col:
    """The concatenation of two columns over their shared alphabet."""
    table: Dict[Any, int] = {}
    alphabet: list = []
    left_map = _np.empty(len(left.uniques), dtype=_np.int64)
    for i, value in enumerate(left.uniques):
        code = table.get(value)
        if code is None:
            code = len(alphabet)
            table[value] = code
            alphabet.append(value)
        left_map[i] = code
    right_map = _np.empty(len(right.uniques), dtype=_np.int64)
    for i, value in enumerate(right.uniques):
        code = table.get(value)
        if code is None:
            code = len(alphabet)
            table[value] = code
            alphabet.append(value)
        right_map[i] = code
    codes = _np.concatenate(
        [
            left_map[left.codes] if len(left.codes) else left.codes,
            right_map[right.codes] if len(right.codes) else right.codes,
        ]
    )
    return _Col(codes, _object_array(alphabet))


def _combine_codes(columns: list) -> Any:
    """Mixed-radix combination of several columns' codes into one row code."""
    combined = None
    radix = 1
    for column in columns:
        size = max(len(column.uniques), 1)
        if combined is None:
            combined, radix = column.codes, size
        else:
            if radix * size > _INT64_GUARD:
                raise _Fallback
            combined = combined * size + column.codes
            radix *= size
    return combined


def _group(batch: _Batch, keep: Tuple[str, ...], display: Tuple[str, ...], ops: VectorOps) -> _Batch:
    """Group rows by the ``keep`` columns, accumulating annotations per group."""
    n = len(batch)
    if n == 0:
        return _Batch(display, {a: batch.columns[a] for a in keep}, batch.ann)
    codes = _combine_codes([batch.columns[a] for a in keep])
    _, first_index, inverse = _np.unique(
        codes, return_index=True, return_inverse=True
    )
    totals = ops.accumulate(batch.ann, inverse, len(first_index))
    alive = ~ops.zero_mask(totals)
    representative = first_index[alive]
    columns = {a: batch.columns[a].take(representative) for a in keep}
    return _Batch(display, columns, totals[alive])


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _select_batch(batch: _Batch, predicate: Any, ops: VectorOps) -> _Batch:
    mask = _predicate_mask(predicate, batch)
    columns = {a: column.take(mask) for a, column in batch.columns.items()}
    return _Batch(batch.display, columns, batch.ann[mask])


def _const_mask(column: _Col, constant: Any):
    """Rows whose value equals ``constant``: one compare per *distinct* value."""
    flags = _np.fromiter(
        (bool(u == constant) for u in column.uniques),
        dtype=bool,
        count=len(column.uniques),
    )
    return flags[column.codes]


def _predicate_mask(predicate: Any, batch: _Batch):
    """A boolean keep-mask for a structured, total predicate.

    Mirrors the row-level truthiness of :mod:`repro.algebra.predicates`,
    evaluated on the column alphabets (tiny) and gathered out to rows;
    anything outside the supported repertoire was already rejected by
    :func:`_plan_supported`, so reaching the final branch is a bug guard.
    """
    n = len(batch)
    if isinstance(predicate, TruePredicate):
        return _np.ones(n, dtype=bool)
    if isinstance(predicate, FalsePredicate):
        return _np.zeros(n, dtype=bool)
    if isinstance(predicate, AttrEquals):
        lcodes, rcodes, _ = _align(
            batch.columns[predicate.left], batch.columns[predicate.right]
        )
        return lcodes == rcodes
    if isinstance(predicate, AttrEqualsConst):
        return _const_mask(batch.columns[predicate.attribute], predicate.constant)
    if isinstance(predicate, AttrNotEqualsConst):
        return ~_const_mask(batch.columns[predicate.attribute], predicate.constant)
    if isinstance(predicate, ComparisonPredicate):
        column = batch.columns[predicate.attribute]
        if predicate.operator == "==":
            return _const_mask(column, predicate.value)
        if predicate.operator == "!=":
            return ~_const_mask(column, predicate.value)
        raise _Fallback  # non-total comparisons never vectorize
    if isinstance(predicate, Conjunction):
        mask = _np.ones(n, dtype=bool)
        for part in predicate.parts:
            mask &= _predicate_mask(part, batch)
        return mask
    if isinstance(predicate, Disjunction):
        mask = _np.zeros(n, dtype=bool)
        for part in predicate.parts:
            mask |= _predicate_mask(part, batch)
        return mask
    if isinstance(predicate, Negation):
        return ~_predicate_mask(predicate.inner, batch)
    raise _Fallback


def _project_batch(batch: _Batch, attributes: Tuple[str, ...], ops: VectorOps) -> _Batch:
    missing = [a for a in attributes if a not in batch.columns]
    if missing:
        raise SchemaError(
            f"cannot project on unknown attributes {sorted(missing)}"
        )
    keep = tuple(dict.fromkeys(attributes))
    return _group(batch, keep, tuple(attributes), ops)


def _match_rows(sorted_codes, order, probe_codes):
    """Every ``(probe row, build row)`` pair with equal codes, as two arrays.

    ``sorted_codes`` / ``order`` are the build side's codes ascending and the
    row each came from; every probe row finds its bucket with two binary
    searches and the pairs are expanded without a Python-level loop.
    """
    lo = _np.searchsorted(sorted_codes, probe_codes, side="left")
    counts = _np.searchsorted(sorted_codes, probe_codes, side="right") - lo
    total = int(counts.sum())
    probe_index = _np.repeat(_np.arange(len(probe_codes)), counts)
    offsets = _np.arange(total) - _np.repeat(_np.cumsum(counts) - counts, counts)
    return probe_index, order[_np.repeat(lo, counts) + offsets]


def _join_batches(left: _Batch, right: _Batch, ops: VectorOps) -> _Batch:
    shared = sorted(set(left.columns) & set(right.columns))
    extras = tuple(a for a in right.display if a not in left.columns)
    display = left.display + extras
    n_left, n_right = len(left), len(right)

    if not shared:
        left_index = _np.repeat(_np.arange(n_left), n_right)
        right_index = _np.tile(_np.arange(n_right), n_left)
    else:
        # Re-code each shared attribute over BOTH sides' alphabets at once
        # so the integer codes are comparable across the join, then combine
        # per-attribute codes into one mixed-radix row code per side.
        left_codes = right_codes = None
        radix = 1
        for attribute in shared:
            lcodes, rcodes, size = _align(
                left.columns[attribute], right.columns[attribute]
            )
            size = max(size, 1)
            if left_codes is None:
                left_codes, right_codes, radix = lcodes, rcodes, size
            else:
                if radix * size > _INT64_GUARD:
                    raise _Fallback
                left_codes = left_codes * size + lcodes
                right_codes = right_codes * size + rcodes
                radix *= size

        if n_left <= n_right:
            build_codes, probe_codes, build_is_left = left_codes, right_codes, True
        else:
            build_codes, probe_codes, build_is_left = right_codes, left_codes, False
        probe_index, build_index = _match_rows(*sort_codes(build_codes), probe_codes)
        if build_is_left:
            left_index, right_index = build_index, probe_index
        else:
            left_index, right_index = probe_index, build_index

    ann = ops.mul(left.ann[left_index], right.ann[right_index])
    columns = {a: column.take(left_index) for a, column in left.columns.items()}
    for attribute in extras:
        columns[attribute] = right.columns[attribute].take(right_index)
    return _Batch(display, columns, ann)


def _union_batches(left: _Batch, right: _Batch, ops: VectorOps) -> _Batch:
    if set(left.columns) != set(right.columns):
        raise SchemaError(
            f"union requires identical attribute sets: "
            f"{sorted(left.columns)} vs {sorted(right.columns)}"
        )
    columns = {
        a: _merged_col(column, right.columns[a])
        for a, column in left.columns.items()
    }
    ann = _np.concatenate([left.ann, right.ann])
    merged = _Batch(left.display, columns, ann)
    return _group(merged, tuple(sorted(columns)), left.display, ops)


def _rename_batch(batch: _Batch, mapping: Dict[str, str]) -> _Batch:
    validate_rename(mapping, tuple(batch.columns))
    columns = {mapping.get(a, a): column for a, column in batch.columns.items()}
    display = tuple(mapping.get(a, a) for a in batch.display)
    return _Batch(display, columns, batch.ann)


# ---------------------------------------------------------------------------
# Semi-naive round kernels (arrays in, arrays out)
# ---------------------------------------------------------------------------
#
# The array-resident fixpoint of :mod:`repro.datalog.arraystore` encodes every
# domain value once, through one interner, so code columns of different
# predicates are directly comparable and a row's identity is the mixed-radix
# number of its codes in a base (``radix``) fixed for the whole run.


def combine_codes(columns: list, radix: int, n_rows: int):
    """The mixed-radix row code of ``columns`` (first column most significant).

    ``columns`` are ``int64`` code arrays of length ``n_rows`` with every code
    below ``radix``; no columns give the all-zero code (one row identity: the
    nullary tuple, or a join on no shared variable).
    """
    if radix ** len(columns) > _INT64_GUARD:
        raise _Fallback
    if not columns:
        return _np.zeros(n_rows, dtype=_np.int64)
    combined = columns[0]
    for column in columns[1:]:
        combined = combined * radix + column
    return combined


def split_codes(codes, radix: int, arity: int) -> list:
    """Inverse of :func:`combine_codes`: the ``arity`` code columns of ``codes``."""
    columns = []
    for _ in range(arity):
        codes, column = _np.divmod(codes, radix)
        columns.append(column)
    return columns[::-1]


def group_codes(ops: VectorOps, codes, values):
    """``(distinct codes ascending, their totals)``: one ``+``-chain per code.

    The batched accumulation of the row engines' merge step, performed by one
    ``ufunc.at`` scatter (exact: the vector carriers' ``+`` is insensitive to
    regrouping).  Zero totals are kept -- the merge owns the stored-zero rule.
    """
    distinct, inverse = _np.unique(codes, return_inverse=True)
    return distinct, ops.accumulate(values, inverse, len(distinct))


def sort_codes(codes):
    """``(codes ascending, the row each came from)``: a join's build index."""
    order = _np.argsort(codes, kind="stable")
    return codes[order], order


def fire_linear_join(
    ops: VectorOps,
    probe_cols: Dict[int, Any],
    probe_ann,
    build_cols: Dict[int, Any],
    build_ann,
    build_index: Tuple[Any, Any],
    key: list,
    head: list,
    radix: int,
):
    """One whole-column semi-naive firing: delta ⋈ stored, grouped per head.

    ``probe_*`` hold the round's delta rows, ``build_*`` the full stored
    relation of the single non-driver atom: ``*_cols`` map an atom position
    to its ``int64`` code array (one interner, so codes compare across the
    sides), ``*_ann`` are the lifted annotation arrays.  ``key`` lists the
    probe positions equi-joined against ``build_index`` -- the build side's
    :func:`sort_codes` over the :func:`combine_codes` of its matching
    positions, which the caller keeps across rounds while the build side is
    unchanged -- and ``head`` lists a ``("p" | "b", position)`` source per
    head position.  Matching pairs come from :func:`_match_rows`,
    annotations multiply array-at-a-time, and all contributions to the same
    head tuple are combined by :func:`group_codes` before any of them
    becomes a Python object.

    Returns ``(head codes ascending, totals)`` -- each head tuple once, as
    the :func:`combine_codes` of its positions -- or ``False`` when numpy is
    missing or an instance guard (``int64`` overflow, ``radix ** width``)
    trips and the row path should run instead.
    """
    if _np is None:
        return False
    try:
        probe_codes = combine_codes(
            [probe_cols[position] for position in key], radix, len(probe_ann)
        )
        probe_rows, build_rows = _match_rows(*build_index, probe_codes)
        ann = ops.mul(probe_ann[probe_rows], build_ann[build_rows])
        head_codes = combine_codes(
            [
                probe_cols[position][probe_rows]
                if side == "p"
                else build_cols[position][build_rows]
                for side, position in head
            ],
            radix,
            len(ann),
        )
        return group_codes(ops, head_codes, ann)
    except _Fallback:
        return False


# ---------------------------------------------------------------------------
# Plan evaluation
# ---------------------------------------------------------------------------


def _predicate_supported(predicate: Any) -> bool:
    """Whether a predicate vectorizes *exactly*.

    Only total predicates qualify: ordering comparisons can raise on
    mixed-type values and the row engines evaluate conjunctions with
    short-circuiting, so a mask-at-a-time evaluation of a non-total part
    could raise where the scalar path would not.  Opaque callables are
    unanalyzable by definition.
    """
    if isinstance(
        predicate,
        (TruePredicate, FalsePredicate, AttrEquals, AttrEqualsConst, AttrNotEqualsConst),
    ):
        return True
    if isinstance(predicate, ComparisonPredicate):
        return predicate.operator in ("==", "!=")
    if isinstance(predicate, (Conjunction, Disjunction)):
        return all(_predicate_supported(part) for part in predicate.parts)
    if isinstance(predicate, Negation):
        return _predicate_supported(predicate.inner)
    return False


def _plan_supported(query: Query) -> bool:
    if isinstance(query, (RelationRef, EmptyRelation)):
        return True
    if isinstance(query, Select):
        return _predicate_supported(query.predicate) and _plan_supported(query.child)
    if isinstance(query, (Project, Rename)):
        return _plan_supported(query.child)
    if isinstance(query, (Join, Union)):
        return _plan_supported(query.left) and _plan_supported(query.right)
    return False


def _evaluate(query: Query, database: Database, ops: VectorOps) -> _Batch:
    if isinstance(query, RelationRef):
        return _scan_batch(database.relation(query.name), ops)
    if isinstance(query, EmptyRelation):
        display = tuple(query.schema.attributes)
        columns = {
            a: _Col(_np.zeros(0, dtype=_np.int64), _object_array([]))
            for a in display
        }
        return _Batch(display, columns, ops.to_array([]))
    if isinstance(query, Select):
        return _select_batch(_evaluate(query.child, database, ops), query.predicate, ops)
    if isinstance(query, Project):
        return _project_batch(
            _evaluate(query.child, database, ops), tuple(query.attributes), ops
        )
    if isinstance(query, Rename):
        return _rename_batch(_evaluate(query.child, database, ops), query.mapping)
    if isinstance(query, Join):
        return _join_batches(
            _evaluate(query.left, database, ops),
            _evaluate(query.right, database, ops),
            ops,
        )
    if isinstance(query, Union):
        return _union_batches(
            _evaluate(query.left, database, ops),
            _evaluate(query.right, database, ops),
            ops,
        )
    raise _Fallback


def _materialize(
    batch: _Batch, semiring: Semiring, ops: VectorOps, storage: str
) -> KRelation:
    """Build the final K-relation: the only per-row Python loop of a plan."""
    # Multiplication can reach the semiring zero on the float carriers
    # (overflow to inf under Tropical, underflow to 0.0 under Viterbi);
    # the row engines drop such rows when they accumulate, so drop them
    # here before storing -- zero is never stored (Definition 3.1).
    dead = ops.zero_mask(batch.ann)
    if dead.any():
        alive = ~dead
        batch = _Batch(
            batch.display,
            {a: column.take(alive) for a, column in batch.columns.items()},
            batch.ann[alive],
        )
    result = KRelation(semiring, Schema(batch.display), storage=storage)
    store = result._store
    attributes = tuple(sorted(batch.display))
    # One C-level gather per column decodes it; .tolist() lowers numpy
    # scalars to the exact Python carrier types the scalar engine uses
    # (int64 -> int, float64 -> float, bool_ -> bool).
    value_lists = [batch.columns[a].values().tolist() for a in attributes]
    annotations = batch.ann.tolist()
    from_sorted = Tup._from_sorted_items
    # Pre-pair each column with its attribute name once, so the per-row
    # work is a single zip(*) step yielding ready-made sorted item tuples.
    paired = [
        [(attribute, value) for value in values]
        for attribute, values in zip(attributes, value_lists)
    ]
    tuples = [from_sorted(row) for row in zip(*paired)]
    if isinstance(store, ColumnarRowStore):
        store.extend_rows(tuples, value_lists, annotations)
    else:
        for tup, annotation in zip(tuples, annotations):
            store.set(tup, annotation)
    return result


def try_execute(
    query: Query, database: Database, *, storage: str = "columnar"
) -> KRelation | None:
    """Evaluate ``query`` column-at-a-time, or ``None`` to use the row engine.

    Returns ``None`` when numpy is missing, the semiring has no exact
    vector arithmetic, the plan contains an unsupported shape, or an
    instance-level guard (int64 overflow, uncodable columns) trips
    mid-evaluation.  Never partially mutates anything -- evaluation is
    read-only until the final materialization.
    """
    if _np is None:
        return None
    ops = vector_ops_for(database.semiring)
    if ops is None or not _plan_supported(query):
        return None
    try:
        if not _trace.enabled():
            batch = _evaluate(query, database, ops)
            return _materialize(batch, database.semiring, ops, storage)
        with _trace.span(
            "engine.vectorized", semiring=database.semiring.name
        ) as span:
            batch = _evaluate(query, database, ops)
            result = _materialize(batch, database.semiring, ops, storage)
            span.set(out_rows=len(result))
            return result
    except _Fallback:
        return None


# ---------------------------------------------------------------------------
# Relation-level kernels (for views and datalog merge paths)
# ---------------------------------------------------------------------------


def _relation_ops(*relations: KRelation) -> VectorOps | None:
    """Vector ops when every input is columnar and the semiring vectorizes."""
    if _np is None:
        return None
    if any(not isinstance(r._store, ColumnarRowStore) for r in relations):
        return None
    return vector_ops_for(relations[0].semiring)


def try_join(left: KRelation, right: KRelation) -> KRelation | None:
    """Vectorized natural join of two columnar relations (or ``None``)."""
    ops = _relation_ops(left, right)
    if ops is None:
        return None
    try:
        batch = _join_batches(
            _scan_batch(left, ops), _scan_batch(right, ops), ops
        )
        schema = left.schema.join(right.schema)
        batch.display = tuple(schema.attributes)
        return _materialize(batch, left.semiring, ops, "columnar")
    except _Fallback:
        return None


def try_project(relation: KRelation, attributes: Iterable[str]) -> KRelation | None:
    """Vectorized projection of a columnar relation (or ``None``)."""
    attributes = tuple(attributes)
    ops = _relation_ops(relation)
    if ops is None:
        return None
    try:
        batch = _project_batch(_scan_batch(relation, ops), attributes, ops)
        return _materialize(batch, relation.semiring, ops, "columnar")
    except _Fallback:
        return None


def try_merge_contributions(
    semiring: Semiring, contributions: Dict[Any, list]
) -> Dict[Any, Any] | None:
    """Array-at-a-time accumulation of per-key contribution batches.

    The partition-parallel merge step: each key's batch (one contribution
    per partition that produced the tuple) is combined with the semiring's
    ``+`` in a single grouped scatter, and keys that sum to zero are
    dropped -- the vectorized counterpart of
    :func:`repro.engine.kernels.accumulate_batches`.

    Runs behind the same ``_INT64_GUARD`` as every other int64 kernel:
    per-partition partial sums can *individually* sit under the guard yet
    overflow int64 when added together here, so ``accumulate`` re-checks
    ``len(values) * max|value|`` against the bound and this function
    returns ``None`` (caller falls back to exact Python-int arithmetic)
    instead of risking silent wraparound at the merge.  Also ``None`` when
    numpy or vector arithmetic for the semiring is unavailable.
    """
    ops = vector_ops_for(semiring)
    if ops is None:
        return None
    keys: list = []
    values: list = []
    group_ids: list = []
    for key, batch in contributions.items():
        group = len(keys)
        keys.append(key)
        values.extend(batch)
        group_ids.extend([group] * len(batch))
    if not keys:
        return {}
    try:
        lifted = ops.to_array(values)
        totals = ops.accumulate(
            lifted, _np.array(group_ids, dtype=_np.int64), len(keys)
        )
    except _Fallback:
        return None
    zeros = ops.zero_mask(totals)
    return {
        key: ops.to_python(total)
        for key, total, is_zero in zip(keys, totals, zeros)
        if not is_zero
    }
