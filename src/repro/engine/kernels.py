"""Row kernels of the pipelined query engine.

Ad-hoc query evaluation (:mod:`repro.engine.compile`) runs on two
primitives:

* **hash join** with cost-driven build-side selection: the smaller input is
  loaded into a bucket index on the shared attributes and the larger one
  probes it, so the work is proportional to the joinable pairs
  (:func:`hash_join_rows`);
* **batched annotation accumulation**: contributions to the same output
  tuple are collected first and combined with *one* ``+``-chain per tuple
  (:func:`combine_contributions`), instead of interleaving a semiring
  ``add`` and an ``is_zero`` test per input pair.  For cheap annotations
  (``B``, ``N``) this trims per-pair overhead; for heavy ones (polynomials,
  circuits, event sets) it also performs a single zero test per output
  tuple, which is where most of the win comes from.  The semi-naive datalog
  rounds (:mod:`repro.datalog.seminaive`) merge their contributions with
  the same :func:`combine_contributions`.

Everything here works positionally: rows are plain value tuples, and
:func:`build_relation` stores them as the result's row keys (values in
sorted-attribute order, the layout of
:class:`~repro.relations.krelation.KRelation`) -- permuted only when the
plan's output columns are not already in that order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.relations.krelation import KRelation, check_keys
from repro.relations.schema import Schema
from repro.semirings.base import Semiring

__all__ = [
    "combine_contributions",
    "accumulate_batches",
    "build_relation",
    "hash_join_rows",
]


def combine_contributions(semiring: Semiring, values: Iterable[Any]) -> Any:
    """One ``+``-chain over a non-empty batch of contributions.

    Left-folds without a zero seed, so the result is bit-for-bit what the
    per-pair accumulation of :meth:`KRelation._accumulate` would have
    produced -- important for representation-sensitive semirings (circuit
    DAG shapes, polynomial term orders) that the differential harnesses
    compare structurally.
    """
    iterator = iter(values)
    total = next(iterator)
    add = semiring.add
    for value in iterator:
        total = add(total, value)
    return total


def accumulate_batches(
    semiring: Semiring, groups: Dict[Any, List[Any]]
) -> Dict[Any, Any]:
    """Combine per-key contribution batches, dropping keys that sum to zero."""
    out: Dict[Any, Any] = {}
    is_zero = semiring.is_zero
    for key, values in groups.items():
        total = values[0] if len(values) == 1 else combine_contributions(semiring, values)
        if not is_zero(total):
            out[key] = total
    return out


def build_relation(
    semiring: Semiring,
    attrs: Tuple[str, ...],
    groups: Dict[tuple, List[Any]],
    schema: Schema | None = None,
) -> KRelation:
    """Materialize accumulated row batches into a :class:`KRelation`.

    ``attrs`` names the positions of the row keys in ``groups``; ``schema``
    fixes the display order of the result (default: ``attrs`` as given).
    """
    result = KRelation(semiring, schema if schema is not None else Schema(attrs))
    rows = accumulate_batches(semiring, groups)
    check_keys(rows, result.schema)
    order = sorted(range(len(attrs)), key=attrs.__getitem__)
    if order != list(range(len(attrs))):
        rows = {tuple([row[i] for i in order]): value for row, value in rows.items()}
    result._rows = rows
    return result


def hash_join_rows(
    mul: Callable[[Any, Any], Any],
    left_rows: Iterable[Tuple[tuple, Any]],
    right_rows: Iterable[Tuple[tuple, Any]],
    left_key: Tuple[int, ...],
    right_key: Tuple[int, ...],
    right_extra: Tuple[int, ...],
    build_is_left: bool,
) -> Iterable[Tuple[tuple, Any]]:
    """The shared hash-join probe loop on positional rows.

    Loads the designated build side into a bucket index on its key
    positions, streams the probe side against it, and yields
    ``(natural row, annotation)`` pairs where the natural row is the left
    row followed by the right side's ``right_extra`` columns and the
    annotation is ``left . right`` (Definition 3.2) regardless of which
    side was indexed.  When the build side is empty the probe side is never
    consumed.  The pipelined plan compiler's join node delegates here.
    """
    if build_is_left:
        build_rows, build_key = left_rows, left_key
        probe_rows, probe_key = right_rows, right_key
    else:
        build_rows, build_key = right_rows, right_key
        probe_rows, probe_key = left_rows, left_key

    index: Dict[tuple, list] = {}
    for row, annotation in build_rows:
        index.setdefault(tuple(row[i] for i in build_key), []).append(
            (row, annotation)
        )
    if not index:
        return

    for probe_row, probe_annotation in probe_rows:
        bucket = index.get(tuple(probe_row[i] for i in probe_key))
        if bucket is None:
            continue
        for build_row, build_annotation in bucket:
            if build_is_left:
                yield build_row + tuple(
                    probe_row[i] for i in right_extra
                ), mul(build_annotation, probe_annotation)
            else:
                yield probe_row + tuple(
                    build_row[i] for i in right_extra
                ), mul(probe_annotation, build_annotation)
