"""The positive relational algebra on K-relations (Definition 3.2).

Each operator is implemented exactly as in the paper:

* ``empty`` -- the all-zero relation;
* ``union`` -- ``(R1 ∪ R2)(t) = R1(t) + R2(t)``;
* ``project`` -- ``(π_V R)(t) = Σ_{t = t' on V, R(t') ≠ 0} R(t')``;
* ``select`` -- ``(σ_P R)(t) = R(t) · P(t)`` with ``P(t) ∈ {0, 1}``;
* ``join`` -- ``(R1 ⋈ R2)(t) = R1(t|U1) · R2(t|U2)``;
* ``rename`` -- ``(ρ_β R)(t) = R(t ∘ β)``.

All operators preserve finite support (Proposition 3.3), which here is
automatic because only support tuples are ever enumerated.  They work on
the relations' row keys (values in sorted-attribute order, see
:class:`~repro.relations.schema.Schema`): restriction, merging and renaming
of tuples become position maps computed once per operator, and a
:class:`~repro.relations.tuples.Tup` is built only for a selection
predicate.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.errors import QueryError, SchemaError
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring

__all__ = [
    "empty",
    "union",
    "project",
    "select",
    "predicate_factor",
    "join",
    "rename",
    "validate_rename",
    "intersection",
]


def _require_same_semiring(left: KRelation, right: KRelation) -> Semiring:
    if left.semiring.name != right.semiring.name:
        raise QueryError(
            f"cannot combine relations over different semirings "
            f"({left.semiring.name} vs {right.semiring.name})"
        )
    return left.semiring


def empty(semiring: Semiring, schema: Schema | Iterable[str]) -> KRelation:
    """The empty K-relation over ``schema`` (every tuple annotated 0)."""
    return KRelation(semiring, schema)


def union(left: KRelation, right: KRelation) -> KRelation:
    """Union of two union-compatible relations; annotations are added."""
    semiring = _require_same_semiring(left, right)
    if not left.schema.is_compatible_with(right.schema):
        raise SchemaError(
            f"union requires identical attribute sets: {left.schema} vs {right.schema}"
        )
    # Union-compatible schemas share their key order: keys carry over as is.
    result = KRelation(semiring, left.schema)
    for key, annotation in left._rows.items():
        result._accumulate(key, annotation)
    for key, annotation in right._rows.items():
        result._accumulate(key, annotation)
    return result


def project(relation: KRelation, attributes: Iterable[str]) -> KRelation:
    """Projection onto ``attributes``; annotations of coinciding tuples are added."""
    target_schema = relation.schema.project(attributes)
    semiring = relation.semiring
    result = KRelation(semiring, target_schema)
    kept = relation.schema.key_positions(target_schema.key_attributes)
    for key, annotation in relation._rows.items():
        result._accumulate(tuple([key[i] for i in kept]), annotation)
    return result


def select(relation: KRelation, predicate: Callable[[Tup], Any]) -> KRelation:
    """Selection: multiply each annotation by the {0, 1} value of the predicate.

    Predicates may return Python booleans (the usual case) or the semiring's
    own 0/1 values; anything else is rejected to respect Definition 3.2's
    requirement that predicates are {0, 1}-valued.
    """
    semiring = relation.semiring
    result = KRelation(semiring, relation.schema)
    rows, tup_of = result._rows, relation.schema.tup_of
    for key, annotation in relation._rows.items():
        value = semiring.mul(annotation, predicate_factor(semiring, predicate(tup_of(key))))
        if not semiring.is_zero(value):
            # ``result.set``'s coerce and zero test: the op counts stay exact
            value = semiring.coerce(value)
            if not semiring.is_zero(value):
                rows[key] = value
    return result


def predicate_factor(semiring: Semiring, outcome: Any) -> Any:
    """Coerce a selection predicate's outcome to the semiring's 0 or 1.

    Predicates may return Python booleans (the usual case) or the semiring's
    own 0/1 values; anything else is rejected to respect Definition 3.2's
    requirement that predicates are {0, 1}-valued.
    """
    zero, one = semiring.zero(), semiring.one()
    if isinstance(outcome, bool):
        return one if outcome else zero
    if outcome == zero or outcome == one:
        return outcome
    raise QueryError(
        f"selection predicate returned {outcome!r}, expected a {{0, 1}} value"
    )


def join(left: KRelation, right: KRelation) -> KRelation:
    """Natural join; annotations of joinable tuples are multiplied.

    Hash join: the *smaller* relation is loaded into a bucket index on the
    shared attributes and the larger one probes it, so the cost is
    proportional to the number of joinable pairs rather than the full cross
    product (and the index memory is minimal).  Annotations are always
    multiplied as ``left · right``, matching Definition 3.2 regardless of
    which side was indexed.
    """
    semiring = _require_same_semiring(left, right)
    shared = sorted(left.schema.attribute_set & right.schema.attribute_set)
    result_schema = left.schema.join(right.schema)
    result = KRelation(semiring, result_schema)
    if not left or not right:
        return result

    swapped = len(left) > len(right)
    build, probe = (right, left) if swapped else (left, right)
    build_key = build.schema.key_positions(shared)
    probe_key = probe.schema.key_positions(shared)
    merged = _merge_order(probe.schema, build.schema, result_schema)

    index: dict[tuple, list[tuple[tuple, Any]]] = {}
    for key, annotation in build._rows.items():
        index.setdefault(tuple([key[i] for i in build_key]), []).append((key, annotation))

    mul = semiring.mul
    for key_probe, annotation_probe in probe._rows.items():
        bucket = index.get(tuple([key_probe[i] for i in probe_key]))
        if bucket is None:
            continue
        for key_build, annotation_build in bucket:
            row = key_probe + key_build
            if swapped:
                value = mul(annotation_probe, annotation_build)
            else:
                value = mul(annotation_build, annotation_probe)
            result._accumulate(tuple([row[i] for i in merged]), value)
    return result


def _merge_order(first: Schema, second: Schema, target: Schema) -> tuple:
    """Where each key position of the join result ``target`` sits in the
    concatenated key ``first key + second key``: read from the ``second``
    row (position ``len(first key) + i``) or, when only ``first`` has the
    attribute, from the ``first`` row (position ``i``).

    Shared with :class:`~repro.incremental.view.MaterializedView`, whose
    delta joins build the same result keys from index probes.
    """
    first_names, second_names = first.key_attributes, second.key_attributes
    width = len(first_names)
    return tuple(
        width + second_names.index(a) if a in second_names else first_names.index(a)
        for a in target.key_attributes
    )


def intersection(left: KRelation, right: KRelation) -> KRelation:
    """Intersection = natural join of union-compatible relations."""
    if not left.schema.is_compatible_with(right.schema):
        raise SchemaError("intersection requires identical attribute sets")
    return join(left, right)


def validate_rename(mapping: Mapping[str, str], attribute_set: Iterable[str]) -> None:
    """The legality checks of ``rename``: known attributes, injective, no clashes.

    Shared with the pipelined plan compiler (:mod:`repro.engine.compile`) so
    the naive and physical executors accept exactly the same renamings.
    """
    attribute_set = set(attribute_set)
    old_names = set(mapping)
    unknown = old_names - attribute_set
    if unknown:
        raise SchemaError(f"cannot rename unknown attributes {sorted(unknown)}")
    new_names = list(mapping.values())
    if len(set(new_names)) != len(new_names):
        raise SchemaError(f"renaming {dict(mapping)} is not injective")
    clashes = (set(new_names) & attribute_set) - old_names
    if clashes:
        raise SchemaError(f"renaming collides with existing attributes {sorted(clashes)}")


def _rename_order(source: Schema, target: Schema, mapping: Mapping[str, str]) -> tuple:
    """Where each key position of the renamed ``target`` sits in a ``source`` key."""
    inverse = {new: old for old, new in mapping.items()}
    return source.key_positions(inverse.get(a, a) for a in target.key_attributes)


def rename(relation: KRelation, mapping: Mapping[str, str]) -> KRelation:
    """Rename attributes by the bijection ``mapping`` (old name -> new name)."""
    validate_rename(mapping, relation.schema.attribute_set)
    result = KRelation(relation.semiring, relation.schema.rename(mapping))
    order = _rename_order(relation.schema, result.schema, mapping)
    semiring, rows = relation.semiring, result._rows
    for key, annotation in relation._rows.items():
        # ``result.set``'s coerce and zero test: the op counts stay exact
        value = semiring.coerce(annotation)
        if not semiring.is_zero(value):
            rows[tuple([key[i] for i in order])] = value
    return result
