"""Whole-column (vectorized) query execution over K-relations.

The pipelined engine of :mod:`repro.engine.compile` still runs a Python
loop per row; this module evaluates the same positive-algebra plans one
**column** at a time instead, MonetDB-style, on ``numpy`` arrays:

* a scan dictionary-encodes each attribute of the relation into integer
  codes and lifts its annotations into one array (``int64``/``float64``/
  ``bool`` for the semirings that declare a numeric carrier, ``object``
  otherwise); the encoding is cached on the relation until its next
  mutation, and only a scan builds it;
* a selection compiles its structured predicate to a boolean mask;
* a join factorizes the shared key columns to integer codes, sorts the
  build side once, finds every probe row's bucket with two binary searches
  (``searchsorted``) and expands the matching (build, probe) index pairs
  without a Python-level loop; annotations multiply array-at-a-time;
* projections and unions group rows by the mixed-radix code of their kept
  columns (:func:`group_codes`): when the codes span at most four times
  the row count they index the totals directly (a presence mask, no sort),
  otherwise one unstable ``np.unique`` sort numbers the groups; either way
  one accumulation combines all annotation contributions per group -- the
  batched ``+``-chain of :func:`~repro.engine.kernels.accumulate_batches`,
  performed by a ``ufunc.at`` scatter on numeric carriers -- and each kept
  column is decoded back out of the distinct codes by ``divmod``;
* the result relation's row keys (values in sorted-attribute order, the
  store's own layout) are zipped straight out of the decoded columns: no
  :class:`~repro.relations.tuples.Tup` is built.

The annotation arithmetic is the semiring's declared carrier, or for every
other semiring an :class:`~repro.semirings.carriers.ObjectCarrier` over its
own scalar operations (:mod:`repro.semirings.carriers`), so every semiring
runs here.  A plan shape this module does not cover (opaque predicates,
non-total comparisons, nullary results), an instance guard or a run without
numpy falls back to the row engine.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

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
from repro.relations.krelation import KRelation, check_keys
from repro.relations.schema import Schema
from repro.semirings.base import Semiring
from repro.semirings.carriers import (
    _INT64_GUARD,
    ObjectCarrier,
    VectorOps,
    _Fallback,
    _object_array,
)

try:  # pragma: no cover - exercised implicitly by every vectorized test
    import numpy as _np
except ImportError:  # pragma: no cover - CI images without numpy
    _np = None

__all__ = [
    "numpy_available",
    "vector_ops_for",
    "try_execute",
    "combine_codes",
    "split_codes",
    "group_codes",
    "sort_codes",
    "fire_linear_join",
]


def numpy_available() -> bool:
    """Whether the vectorized kernels can run at all."""
    return _np is not None


def vector_ops_for(semiring: Semiring) -> VectorOps | None:
    """The array arithmetic of ``semiring``, or ``None`` without numpy.

    ``semiring.carrier`` when it declares one, otherwise an
    :class:`~repro.semirings.carriers.ObjectCarrier` over its scalar
    operations.  Checked against the runtime at call time (not just import
    time) so every vectorized entry point declines together when numpy is
    unavailable.
    """
    if _np is None:
        return None
    carrier = semiring.carrier
    return ObjectCarrier(semiring) if carrier is None else carrier


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


def _encode_column(values: Sequence[Any]) -> _Col:
    """Dictionary-encode a raw value sequence with a hash table.

    Hash-based interning matches the dict-equality grouping of the row
    engines exactly (no reliance on a total order over the domain); codes
    number the distinct values in order of first occurrence.
    """
    alphabet = list(dict.fromkeys(values))
    table = {value: code for code, value in enumerate(alphabet)}
    codes = _np.fromiter(map(table.__getitem__, values), dtype=_np.int64, count=len(values))
    return _Col(codes, _object_array(alphabet))


def _encoding(relation: KRelation) -> Tuple[Dict[str, _Col], list]:
    """The relation's encoded columns and its annotations in row order.

    Cached on the relation (``KRelation._scan_cache``, dropped by every
    mutation), so repeated scans of an unchanged relation are free.
    Nothing in it depends on the semiring's carrier.
    """
    cache = relation._scan_cache
    if cache is None:
        rows = relation._rows
        attributes = relation.schema.key_attributes
        # Position j of every row key holds key attribute j.
        values = list(zip(*rows)) if rows else [()] * len(attributes)
        columns = {
            attribute: _encode_column(column)
            for attribute, column in zip(attributes, values)
        }
        cache = relation._scan_cache = (columns, list(rows.values()))
    return cache


def _scan_batch(relation: KRelation, ops: VectorOps) -> _Batch:
    """Lift a relation into an encoded column batch."""
    columns, annotations = _encoding(relation)
    return _Batch(tuple(relation.schema.attributes), dict(columns), ops.to_array(annotations))


def _align(left: _Col, right: _Col) -> Tuple[Any, Any, list]:
    """Re-code two columns into one shared alphabet: ``(lcodes, rcodes, alphabet)``.

    The alphabet lists the values in order of first occurrence, left side
    first.  Only the (small) alphabets are touched with Python-level
    hashing; the code arrays remap with one fancy-index gather each.
    """
    table: Dict[Any, int] = {}
    left_map = _np.empty(len(left.uniques), dtype=_np.int64)
    for i, value in enumerate(left.uniques):
        left_map[i] = table.setdefault(value, len(table))
    right_map = _np.empty(len(right.uniques), dtype=_np.int64)
    for i, value in enumerate(right.uniques):
        right_map[i] = table.setdefault(value, len(table))
    lcodes = left_map[left.codes] if len(left.codes) else left.codes
    rcodes = right_map[right.codes] if len(right.codes) else right.codes
    return lcodes, rcodes, list(table)


def _merged_col(left: _Col, right: _Col) -> _Col:
    """The concatenation of two columns over their shared alphabet."""
    lcodes, rcodes, alphabet = _align(left, right)
    return _Col(_np.concatenate([lcodes, rcodes]), _object_array(alphabet))


def _combine_codes(columns: list) -> Any:
    """Mixed-radix combination of several columns' codes into one row code."""
    if not columns:
        raise _Fallback  # nullary keys: the row engine groups them
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
    """Group rows by the ``keep`` columns, accumulating annotations per group.

    The groups are the distinct mixed-radix codes of :func:`group_codes`;
    each kept column's codes are decoded back out of them (``divmod`` by the
    column's alphabet size, least significant first), so rows come out
    ascending by key and no representative row is ever looked up.  A total
    may be zero (a ring's cancellation): it annihilates in any later product
    and :func:`_materialize` drops it at the root, the one zero test per
    output row the row pipeline makes too.
    """
    if len(batch) == 0:
        return _Batch(display, {a: batch.columns[a] for a in keep}, batch.ann)
    kept = [batch.columns[a] for a in keep]
    rest, totals = group_codes(ops, _combine_codes(kept), batch.ann)
    decoded = []
    for column in reversed(kept):
        rest, codes = _np.divmod(rest, max(len(column.uniques), 1))
        decoded.append(_Col(codes, column.uniques))
    columns = dict(zip(keep, reversed(decoded)))
    return _Batch(display, columns, totals)


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
        left_keys, right_keys = [], []
        for attribute in shared:
            lcodes, rcodes, alphabet = _align(
                left.columns[attribute], right.columns[attribute]
            )
            left_keys.append(_Col(lcodes, alphabet))
            right_keys.append(_Col(rcodes, alphabet))
        left_codes, right_codes = _combine_codes(left_keys), _combine_codes(right_keys)

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

    The batched accumulation of the row engines' merge step: a numeric
    carrier scatters with one ``ufunc.at`` (exact: its ``+`` is insensitive
    to regrouping), the object carrier folds each group in contribution
    order with the semiring's own ``+``.  Codes are non-negative; when their
    span (``max + 1``) is at most four times the row count they address the
    totals directly -- a presence mask gives the distinct codes in order,
    O(n) with no sort -- otherwise one unstable ``np.unique`` sort numbers
    the groups.  Zero totals are kept -- the merge owns the stored-zero rule.
    """
    n = len(codes)
    span = int(codes.max()) + 1 if n else 0
    if span <= 4 * n:
        present = _np.zeros(span, dtype=bool)
        present[codes] = True
        distinct = _np.flatnonzero(present)
        return distinct, ops.accumulate(values, codes, span)[distinct]
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


def _evaluate(
    query: Query, database: Database, ops: VectorOps, observer: Any = None
) -> _Batch:
    if observer is not None:
        observer.enter(query)

    def child(sub: Query) -> _Batch:
        return _evaluate(sub, database, ops, observer)

    if isinstance(query, RelationRef):
        batch = _scan_batch(database.relation(query.name), ops)
    elif isinstance(query, EmptyRelation):
        display = tuple(query.schema.attributes)
        columns = {
            a: _Col(_np.zeros(0, dtype=_np.int64), _object_array([]))
            for a in display
        }
        batch = _Batch(display, columns, ops.to_array([]))
    elif isinstance(query, Select):
        batch = _select_batch(child(query.child), query.predicate, ops)
    elif isinstance(query, Project):
        batch = _project_batch(child(query.child), tuple(query.attributes), ops)
    elif isinstance(query, Rename):
        batch = _rename_batch(child(query.child), query.mapping)
    elif isinstance(query, Join):
        batch = _join_batches(child(query.left), child(query.right), ops)
    elif isinstance(query, Union):
        batch = _union_batches(child(query.left), child(query.right), ops)
    else:
        raise _Fallback
    if observer is not None:
        observer.leave(batch)
    return batch


def _materialize(batch: _Batch, semiring: Semiring, ops: VectorOps) -> KRelation:
    """Build the final K-relation: its row keys zip out of the decoded
    columns, taken in sorted-attribute order (``REPRO_DEBUG_TUPLES=1``
    checks them against the result schema)."""
    attributes = tuple(sorted(batch.columns))
    if not attributes:
        raise _Fallback  # nullary rows: the row engine builds them
    # A total can be the semiring zero: a ring's cancellation in a group-by,
    # or a float product overflowing to inf under Tropical or underflowing
    # to 0.0 under Viterbi.  The row engines test each output row once when
    # they accumulate, so do the same here before storing -- zero is never
    # stored (Definition 3.1).
    dead = ops.zero_mask(batch.ann)
    if dead.any():
        alive = ~dead
        batch = _Batch(
            batch.display,
            {a: column.take(alive) for a, column in batch.columns.items()},
            batch.ann[alive],
        )
    result = KRelation(semiring, Schema(batch.display))
    # .tolist() lowers numpy scalars to the exact Python carrier types the
    # scalar engine uses (int64 -> int, float64 -> float, bool_ -> bool).
    columns = [batch.columns[a] for a in attributes]
    keys = list(zip(*[column.uniques[column.codes].tolist() for column in columns]))
    check_keys(keys, result.schema)
    result._rows = dict(zip(keys, batch.ann.tolist()))
    return result


def try_execute(
    query: Query, database: Database, observer: Any = None
) -> KRelation | None:
    """Evaluate ``query`` column-at-a-time, or ``None`` to use the row engine.

    Returns ``None`` when numpy is missing, the plan contains an
    unsupported shape, or an instance-level guard (int64 overflow,
    uncodable columns, a nullary result) trips mid-evaluation.  Never
    partially mutates anything -- evaluation is read-only until the final
    materialization.  ``observer`` (an
    :class:`~repro.obs.explain.ExecutionObserver`) is told when each
    logical node starts and which batch it produced.
    """
    ops = vector_ops_for(database.semiring)
    if ops is None or not _plan_supported(query):
        return None
    try:
        if not _trace.enabled():
            batch = _evaluate(query, database, ops, observer)
            return _materialize(batch, database.semiring, ops)
        with _trace.span(
            "engine.vectorized", semiring=database.semiring.name
        ) as span:
            batch = _evaluate(query, database, ops, observer)
            result = _materialize(batch, database.semiring, ops)
            span.set(out_rows=len(result))
            return result
    except _Fallback:
        return None
