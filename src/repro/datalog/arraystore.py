"""Array-resident fixpoint state: the semi-naive engine's stores as code arrays.

The row loop of :mod:`repro.datalog.seminaive` pays for every contribution of
every round in Python objects: a values tuple and a one-element list out of
the join, a :class:`~repro.relations.tuples.Tup` (and its hash) into the
merge, a scalar semiring ``+`` per head.  When the semiring has exact vector
arithmetic and every plan of the program is a copy or a single equi-join,
none of that is needed until the fixpoint is reached.  :class:`ArrayState`
keeps, for the whole run:

* one **interner** for the engine -- datalog has no function symbols, so the
  active domain is the EDB's; a ``dict`` gives exactly the row engines'
  equality (``1``, ``1.0`` and ``True`` are one value, first spelling wins);
* per predicate (:class:`_Columns`) the ``int64`` code column of every
  position, the lifted annotation array, and a **key index**: the rows' mixed
  -radix codes in ascending order with the row each belongs to;
* per (predicate, join positions) the sorted build index the join kernel
  probes, recomputed only after the predicate grew -- never for an EDB side.

A round is ``delta positions -> fire (arrays in, grouped head codes + totals
out) -> merge (one searchsorted into the key index, one elementwise +,
changed = new != old, unknown heads appended) -> next delta positions``.
The engine's ``_Store`` rows / indexes, the backing ``KRelation`` and the
changelog learn about all of it in **one** :meth:`ArrayState.flush` when the
loop ends: one ``Tup`` per derived atom per run, not one per contribution
per round.

The state is a cache over the stores.  Row ``i`` of a predicate's arrays is
row ``i`` of its ``_Store.rows`` (built in that order, flushed in that order),
so it stays valid until something outside the loop reorders or rewrites a
store; the engine then drops it and the next loop rebuilds it from the rows.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.engine import vectorized as _vectorized
from repro.relations.tuples import Tup

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the engine never builds a state then
    _np = None

__all__ = ["ArrayState", "Declined", "Recipe"]


class Declined(Exception):
    """This instance cannot run array-resident; ``reason`` says why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Recipe(NamedTuple):
    """How one join plan fires on arrays (compiled by the engine, per plan).

    ``step`` is the single probed atom's predicate, ``None`` for a copy plan
    (the head is a projection of the driver).  ``probe_key`` / ``build_key``
    are the equi-joined positions of the driver / the probed atom and
    ``head`` gives a ``("p" | "b", position)`` source per head position.
    """

    target: str
    driver: str
    step: str | None
    probe_key: Tuple[int, ...]
    build_key: Tuple[int, ...]
    head: Tuple[Tuple[str, int], ...]


class _Columns:
    """One predicate's facts: code columns, annotations and the key index."""

    __slots__ = ("cols", "ann", "keys", "rows", "synced", "touched", "_join")

    def __init__(self, cols: list, ann, radix: int):
        self.cols = cols
        self.ann = ann
        #: the key index: ``keys`` ascending, ``rows[i]`` holds ``keys[i]``
        self.keys, self.rows = _vectorized.sort_codes(
            _vectorized.combine_codes(cols, radix, len(ann))
        )
        #: rows ``[0, synced)`` are in the engine's store; the rest await a flush
        self.synced = len(ann)
        #: positions of synced rows whose annotation moved since the last flush
        self.touched: List[Any] = []
        self._join: Dict[Tuple[int, ...], Tuple[int, Any]] = {}

    def decode(self, values_of: list, start: int = 0) -> Tuple[list, list]:
        """Rows ``[start:]`` as ``(one value list per position, value tuples)``."""
        value_lists = [
            [values_of[code] for code in column[start:].tolist()]
            for column in self.cols
        ]
        if not value_lists:  # a nullary predicate: its one possible fact
            return value_lists, [()] * (len(self.ann) - start)
        return value_lists, list(zip(*value_lists))

    def join_index(self, positions: Tuple[int, ...], radix: int):
        """The build index on ``positions``, reused until the predicate grows."""
        cached = self._join.get(positions)
        if cached is None or cached[0] != len(self.ann):
            codes = _vectorized.combine_codes(
                [self.cols[p] for p in positions], radix, len(self.ann)
            )
            cached = self._join[positions] = (
                len(self.ann),
                _vectorized.sort_codes(codes),
            )
        return cached[1]


class ArrayState:
    """The stores of one engine as arrays (see the module docstring).

    ``stores`` maps every predicate to an object with ``rows`` (a list of
    ``(values, tup)``), ``attributes``, ``sorted_spec``, ``tup_for``,
    ``extend`` and the backing ``relation``; ``recipes`` maps ``id(plan)`` to its
    :class:`Recipe`.  Raises :class:`Declined` -- before anything is
    written -- when an annotation does not lift into the carrier's dtype
    (``"value"``) or ``radix ** arity`` leaves ``int64`` (``"radix"``).
    """

    def __init__(self, ops, stores: Dict[str, Any], recipes: Dict[int, Recipe]):
        self.ops = ops
        self.stores = stores
        self.recipes = recipes
        #: value -> code; insertion-ordered, so ``list(table)[code]`` decodes
        self.table: Dict[Any, int] = {}
        encoded = {
            predicate: self._encode(store.rows, len(store.attributes))
            for predicate, store in stores.items()
        }
        # Twice the domain: an update stream may name new constants, and a
        # larger radix would change every key -- the state is dropped then.
        self.radix = max(2 * len(self.table), 2)
        width = max(len(store.attributes) for store in stores.values())
        if self.radix**width > _vectorized._INT64_GUARD:
            raise Declined("radix")
        self.columns: Dict[str, _Columns] = {}
        for predicate, store in stores.items():
            annotations = store.relation._annotations
            try:
                ann = ops.to_array([annotations[tup] for _, tup in store.rows])
            except _vectorized._Fallback:
                raise Declined("value") from None
            self.columns[predicate] = _Columns(encoded[predicate], ann, self.radix)

    def _encode(self, rows: Sequence[Tuple[tuple, Tup]], arity: int) -> list:
        """The code column of every position of ``rows`` (interning new values)."""
        table = self.table
        return [
            _np.array(
                [table.setdefault(values[p], len(table)) for values, _ in rows],
                dtype=_np.int64,
            )
            for p in range(arity)
        ]

    # -- a round ----------------------------------------------------------------
    def fire(self, plan: Any, positions, out: Dict[str, list]) -> None:
        """Fire ``plan`` for the driver rows at ``positions`` into ``out``.

        Appends one ``(head codes ascending, totals)`` part to the head
        predicate's list; nothing stored changes until :meth:`merge`.
        """
        recipe = self.recipes[id(plan)]
        ops, radix = self.ops, self.radix
        driver = self.columns[recipe.driver]
        probe_ann = driver.ann[positions]
        if recipe.step is None:
            codes = _vectorized.combine_codes(
                [driver.cols[p][positions] for _, p in recipe.head],
                radix,
                len(positions),
            )
            part = _vectorized.group_codes(ops, codes, probe_ann)
        else:
            build = self.columns[recipe.step]
            if not len(build.ann):
                return
            needed = set(recipe.probe_key)
            needed.update(p for side, p in recipe.head if side == "p")
            # Through the module attribute: the e2e benchmark patches it.
            # The kernel's guards cannot trip here -- the admitted carriers
            # (float min/max, bool) never overflow and ``radix ** arity`` was
            # checked when the state was built.
            part = _vectorized.fire_linear_join(
                ops,
                {p: driver.cols[p][positions] for p in needed},
                probe_ann,
                build.cols,
                build.ann,
                build.join_index(recipe.build_key, radix),
                recipe.probe_key,
                recipe.head,
                radix,
            )
        out.setdefault(recipe.target, []).append(part)

    def merge(self, out: Dict[str, list]) -> Dict[str, Any]:
        """Accumulate a round's parts; return the delta positions per predicate."""
        delta = {}
        for predicate, parts in out.items():
            if len(parts) == 1:
                codes, totals = parts[0]
            else:  # several plans derived the predicate: one total per head
                codes, totals = _vectorized.group_codes(
                    self.ops,
                    _np.concatenate([codes for codes, _ in parts]),
                    _np.concatenate([totals for _, totals in parts]),
                )
            delta[predicate] = self._merge(self.columns[predicate], codes, totals)
        return delta

    def _merge(self, columns: _Columns, codes, totals):
        """``merge_delta`` on arrays: the positions whose annotation changed."""
        ops = self.ops
        n = len(columns.ann)
        at = _np.searchsorted(columns.keys, codes)
        known = _np.zeros(len(codes), dtype=bool)
        inside = at < n
        known[inside] = columns.keys[at[inside]] == codes[inside]
        rows = columns.rows[at[known]]
        old = columns.ann[rows]
        new = ops.add(old, totals[known])
        moved = new != old
        changed = rows[moved]
        columns.ann[changed] = new[moved]
        held = changed[changed < columns.synced]
        if len(held):
            columns.touched.append(held)
        # Zero is never stored (Definition 3.1): float products can reach it.
        fresh = ~known & ~ops.zero_mask(totals)
        count = int(_np.count_nonzero(fresh))
        if count:
            fresh_codes = codes[fresh]
            appended = _np.arange(n, n + count)
            columns.cols = [
                _np.concatenate((column, part))
                for column, part in zip(
                    columns.cols,
                    _vectorized.split_codes(fresh_codes, self.radix, len(columns.cols)),
                )
            ]
            columns.ann = _np.concatenate((columns.ann, totals[fresh]))
            columns.keys = _np.insert(columns.keys, at[fresh], fresh_codes)
            columns.rows = _np.insert(columns.rows, at[fresh], appended)
            changed = _np.concatenate((changed, appended))
        return changed

    # -- the boundary with the row stores ----------------------------------------
    def all_rows(self, predicate: str):
        """The positions of every row of ``predicate`` (a seed plan's driver)."""
        return _np.arange(len(self.columns[predicate].ann))

    def locate(self, predicate: str, rows: Sequence[Tuple[tuple, Tup]]):
        """The array positions of stored ``rows`` (a delta handed over as rows)."""
        columns = self.columns[predicate]
        table = self.table
        codes = _vectorized.combine_codes(
            [
                _np.array([table[values[p]] for values, _ in rows], dtype=_np.int64)
                for p in range(len(columns.cols))
            ],
            self.radix,
            len(rows),
        )
        return columns.rows[_np.searchsorted(columns.keys, codes)]

    def append(self, predicate: str, rows: Sequence[Tuple[tuple, Tup]]) -> bool:
        """Mirror ``rows`` the store just gained at its end (an EDB insertion).

        Returns ``False`` when the state cannot take them -- the domain
        outgrew the radix or an annotation does not lift -- and must be
        dropped.
        """
        columns = self.columns[predicate]
        new_cols = self._encode(rows, len(columns.cols))
        if len(self.table) > self.radix:
            return False
        annotations = self.stores[predicate].relation._annotations
        try:
            ann = self.ops.to_array([annotations[tup] for _, tup in rows])
        except _vectorized._Fallback:
            return False
        n = len(columns.ann)
        codes, order = _vectorized.sort_codes(
            _vectorized.combine_codes(new_cols, self.radix, len(rows))
        )
        at = _np.searchsorted(columns.keys, codes)
        columns.keys = _np.insert(columns.keys, at, codes)
        columns.rows = _np.insert(columns.rows, at, n + order)
        columns.cols = [
            _np.concatenate(pair) for pair in zip(columns.cols, new_cols)
        ]
        columns.ann = _np.concatenate((columns.ann, ann))
        columns.synced = len(columns.ann)
        return True

    def flush(self, log: Callable[[str, Iterable[Tup]], None]) -> None:
        """Write everything the loop derived into the engine's stores.

        Moved annotations of rows the store already holds are overwritten in
        the backing relation; rows it has not seen are decoded, given their
        one ``Tup`` and appended to relation, row list and binding indexes in
        array order.  ``log`` receives every tuple written (the changelog).
        """
        for predicate, columns in self.columns.items():
            n = len(columns.ann)
            if columns.synced == n and not columns.touched:
                continue
            store = self.stores[predicate]
            relation_store = store.relation._store
            written: List[Tup] = []
            if columns.touched:
                mask = _np.zeros(columns.synced, dtype=bool)
                for positions in columns.touched:
                    mask[positions] = True
                positions = _np.flatnonzero(mask)
                columns.touched = []
                for position, value in zip(
                    positions.tolist(), columns.ann[positions].tolist()
                ):
                    tup = store.rows[position][1]
                    relation_store.set(tup, value)
                    written.append(tup)
            if n > columns.synced:
                value_lists, heads = columns.decode(list(self.table), columns.synced)
                tups = [store.tup_for(head) for head in heads]
                # Only rule heads grow inside the loop, and the engine creates
                # every IDB relation on the columnar backend the path requires.
                relation_store.extend_rows(
                    tups,
                    [value_lists[i] for _, i in store.sorted_spec],
                    columns.ann[columns.synced :].tolist(),
                )
                store.extend(list(zip(heads, tups)))
                written.extend(tups)
                columns.synced = n
            log(predicate, written)

    def audit(self) -> str | None:
        """Describe the first way the (flushed) arrays disagree with the stores."""
        values_of = list(self.table)
        for predicate, columns in self.columns.items():
            store = self.stores[predicate]
            if columns.synced != len(columns.ann) or columns.touched:
                return f"{predicate}: the array state was not flushed"
            if len(columns.ann) != len(store.rows):
                return (
                    f"{predicate}: {len(columns.ann)} array rows for "
                    f"{len(store.rows)} stored rows"
                )
            _, decoded = columns.decode(values_of)
            annotations = store.relation._annotations
            for (values, tup), mirrored, value in zip(
                store.rows, decoded, columns.ann.tolist()
            ):
                if values != mirrored or annotations.get(tup) != value:
                    return (
                        f"{predicate}: array row {mirrored!r} -> {value!r} "
                        f"is not {tup!r}"
                    )
            keys = _vectorized.combine_codes(columns.cols, self.radix, len(columns.ann))
            if not _np.array_equal(keys[columns.rows], columns.keys) or (
                len(keys) > 1 and not (_np.diff(columns.keys) > 0).all()
            ):
                return f"{predicate}: the key index drifted from the code columns"
        return None
