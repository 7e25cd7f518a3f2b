"""Array-resident fixpoint state: the semi-naive engine's stores as code arrays.

The row loop of :mod:`repro.datalog.seminaive` pays for every contribution of
every round in Python objects: a row-key tuple and a one-element list out of
the join, a dict probe (and the key's hash) in the merge, a scalar semiring
``+`` per head.  When the semiring has exact vector
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
  probes, recomputed only after the predicate's rows changed (its
  ``version`` moved) -- never for an unchanged EDB side.

A round is ``delta positions -> fire (arrays in, grouped head codes + totals
out) -> merge (one searchsorted into the key index, one elementwise +,
changed = new != old, unknown heads appended) -> next delta positions``.
The engine's ``_Store`` rows / indexes, the backing ``KRelation`` and the
changelog learn about all of it in **one**
:meth:`ArrayState.flush` when the loop ends: one decoded row key per derived
atom per run, not one per contribution per round.  Positions count in the
row keys' (sorted-attribute) order, as the engine's plans do.

The state is a cache over the stores.  Row ``i`` of a predicate's arrays is
row ``i`` of its ``_Store.rows`` (built in that order, flushed in that order).
What the engine changes outside a loop it mirrors here: appended facts
(:meth:`ArrayState.append`), rewritten annotations (:meth:`ArrayState.rewrite`)
and the DRed pass's swap-with-last removals (:meth:`ArrayState.remove`).  The
engine drops the state only when it cannot take an update -- a new constant
outgrowing the radix, an annotation that does not lift -- and the next loop
rebuilds it from the rows.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.engine import vectorized as _vectorized
from repro.relations.krelation import check_keys
from repro.semirings.carriers import _INT64_GUARD, _Fallback

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

    __slots__ = ("cols", "ann", "keys", "rows", "synced", "touched", "version", "_join")

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
        #: bumped by every change to the rows (append, merge-append, remove):
        #: a join index is valid for one version, whatever the row count
        self.version = 0
        self._join: Dict[Tuple[int, ...], Tuple[int, Any]] = {}

    def decode(self, values_of: list, start: int = 0) -> list:
        """Rows ``[start:]`` as row keys."""
        value_lists = [
            [values_of[code] for code in column[start:].tolist()]
            for column in self.cols
        ]
        if not value_lists:  # a nullary predicate: its one possible fact
            return [()] * (len(self.ann) - start)
        return list(zip(*value_lists))

    def join_index(self, positions: Tuple[int, ...], radix: int):
        """The build index on ``positions``, reused while ``version`` stands."""
        cached = self._join.get(positions)
        if cached is None or cached[0] != self.version:
            codes = _vectorized.combine_codes(
                [self.cols[p] for p in positions], radix, len(self.ann)
            )
            cached = self._join[positions] = (
                self.version,
                _vectorized.sort_codes(codes),
            )
        return cached[1]


class ArrayState:
    """The stores of one engine as arrays (see the module docstring).

    ``stores`` maps every predicate to an object with ``rows`` (a list of
    row keys), ``arity``, ``extend`` and the backing ``relation``;
    ``recipes`` maps ``id(plan)`` to its
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
            predicate: self._encode(store.rows, store.arity)
            for predicate, store in stores.items()
        }
        # Twice the domain: an update stream may name new constants, and a
        # larger radix would change every key -- the state is dropped then.
        self.radix = max(2 * len(self.table), 2)
        width = max(store.arity for store in stores.values())
        if self.radix**width > _INT64_GUARD:
            raise Declined("radix")
        self.columns: Dict[str, _Columns] = {}
        for predicate, store in stores.items():
            ann = self._lift(predicate, store.rows)
            if ann is None:
                raise Declined("value")
            self.columns[predicate] = _Columns(encoded[predicate], ann, self.radix)

    def _encode(self, rows: Sequence[tuple], arity: int) -> list:
        """The code column of every position of ``rows`` (interning new values)."""
        table = self.table
        return [
            _np.array(
                [table.setdefault(row[p], len(table)) for row in rows],
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
            columns.version += 1
            changed = _np.concatenate((changed, appended))
        return changed

    # -- the boundary with the row stores ----------------------------------------
    def all_rows(self, predicate: str):
        """The positions of every row of ``predicate`` (a seed plan's driver)."""
        return _np.arange(len(self.columns[predicate].ann))

    def locate(self, predicate: str, rows: Sequence[tuple]):
        """The array positions of stored ``rows`` (a delta handed over as rows)."""
        columns = self.columns[predicate]
        table = self.table
        codes = _vectorized.combine_codes(
            [
                _np.array([table[row[p]] for row in rows], dtype=_np.int64)
                for p in range(len(columns.cols))
            ],
            self.radix,
            len(rows),
        )
        return columns.rows[_np.searchsorted(columns.keys, codes)]

    def _lift(self, predicate: str, rows: Sequence[tuple]):
        """The stored annotations of ``rows`` as an array, ``None`` if they do not lift."""
        annotations = self.stores[predicate].relation._rows
        try:
            return self.ops.to_array([annotations[row] for row in rows])
        except _Fallback:
            return None

    def append(self, predicate: str, rows: Sequence[tuple]) -> bool:
        """Mirror ``rows`` the store just gained at its end (an EDB insertion,
        a rederived atom).

        Returns ``False`` when the state cannot take them -- the domain
        outgrew the radix or an annotation does not lift -- and must be
        dropped.
        """
        if not rows:
            return True
        columns = self.columns[predicate]
        new_cols = self._encode(rows, len(columns.cols))
        if len(self.table) > self.radix:
            return False
        ann = self._lift(predicate, rows)
        if ann is None:
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
        columns.version += 1
        return True

    def rewrite(self, predicate: str, rows: Sequence[tuple]) -> bool:
        """Mirror the new stored annotations of ``rows`` the state already holds.

        Returns ``False`` when one does not lift and the state must be dropped.
        """
        if not rows:
            return True
        ann = self._lift(predicate, rows)
        if ann is None:
            return False
        self.columns[predicate].ann[self.locate(predicate, rows)] = ann
        return True

    def remove(self, predicate: str, positions: Sequence[int]) -> None:
        """Mirror the store's swap-with-last removals at ``positions``, in order.

        Each position is the one a removal vacated, taken after the removals
        before it: the then-last row moved into it.  The moves compose into
        one permutation in Python -- O(removed) -- and the columns, the
        annotations and the key index are rewritten by one gather each.  The
        state is flushed whenever the engine removes (between loops).
        """
        if not positions:
            return
        columns = self.columns[predicate]
        n = len(columns.ann)
        size = n
        source: Dict[int, int] = {}  # position -> the original row now there
        gone: List[int] = []
        for position in positions:
            size -= 1
            gone.append(source.get(position, position))
            moved = source.pop(size, size)
            if position != size:
                source[position] = moved
        targets = _np.fromiter(source.keys(), dtype=_np.int64, count=len(source))
        origins = _np.fromiter(source.values(), dtype=_np.int64, count=len(source))
        for column in columns.cols + [columns.ann]:
            column[targets] = column[origins]
        columns.cols = [column[:size] for column in columns.cols]
        columns.ann = columns.ann[:size]
        live = _np.ones(n, dtype=bool)
        live[gone] = False
        relabel = _np.arange(n)
        relabel[origins] = targets
        indexed = live[columns.rows]
        columns.keys = columns.keys[indexed]
        columns.rows = relabel[columns.rows[indexed]]
        columns.synced = size
        columns.version += 1

    def flush(self, log: Callable[[str, Iterable[tuple]], None]) -> None:
        """Write everything the loop derived into the engine's stores.

        Moved annotations of rows the store already holds are overwritten in
        the backing relation; rows it has not seen are decoded to row keys
        and appended to relation, row list and binding indexes in array
        order (``REPRO_DEBUG_TUPLES=1`` checks the keys).  ``log`` receives
        every row written (the changelog).
        """
        for predicate, columns in self.columns.items():
            n = len(columns.ann)
            if columns.synced == n and not columns.touched:
                continue
            store = self.stores[predicate]
            annotations = store.relation._annotations
            written: List[tuple] = []
            if columns.touched:
                mask = _np.zeros(columns.synced, dtype=bool)
                for positions in columns.touched:
                    mask[positions] = True
                positions = _np.flatnonzero(mask)
                columns.touched = []
                for position, value in zip(
                    positions.tolist(), columns.ann[positions].tolist()
                ):
                    row = store.rows[position]
                    annotations[row] = value
                    written.append(row)
            if n > columns.synced:
                heads = columns.decode(list(self.table), columns.synced)
                check_keys(heads, store.relation.schema)
                # Only rule heads grow inside the loop: fresh IDB atoms.
                annotations.update(zip(heads, columns.ann[columns.synced :].tolist()))
                store.extend(heads)
                written.extend(heads)
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
            decoded = columns.decode(values_of)
            annotations = store.relation._rows
            for row, mirrored, value in zip(store.rows, decoded, columns.ann.tolist()):
                if row != mirrored or annotations.get(row) != value:
                    return (
                        f"{predicate}: array row {mirrored!r} -> {value!r} "
                        f"is not {row!r}"
                    )
            keys = _vectorized.combine_codes(columns.cols, self.radix, len(columns.ann))
            if not _np.array_equal(keys[columns.rows], columns.keys) or (
                len(keys) > 1 and not (_np.diff(columns.keys) > 0).all()
            ):
                return f"{predicate}: the key index drifted from the code columns"
        return None
