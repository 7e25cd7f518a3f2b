"""Reusable Hypothesis strategies for randomized datalog testing.

The differential suite (``tests/datalog/test_seminaive_vs_naive.py``) needs
random but *well-formed* inputs: safe datalog programs whose body predicates
are either defined by some rule or backed by an EDB relation, databases whose
relations match the program's arities, and annotations drawn from whichever
semiring is under test.  These strategies produce exactly that, are fully
shrinkable (every choice is a plain Hypothesis draw), and deterministic under
``derandomize=True`` settings.

Conventions
-----------
* EDB predicates come from ``EDB_PREDICATES``, IDB predicates from
  ``IDB_PREDICATES``; arities are drawn once per program and shared with the
  database strategy through :meth:`Program.arity`.
* Abstract-tagging semirings (``PosBool``, ``N[X]``, circuits) get a fresh
  variable per EDB tuple (``t1, t2, ...``), the same convention the
  provenance machinery uses.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

from hypothesis import strategies as st

from repro.algebra import predicates
from repro.algebra.ast import Q
from repro.datalog import Program, Rule
from repro.engine import vectorized
from repro.logic import Atom, Constant, Variable
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.semirings import Polynomial, ZPolynomial, get_semiring
from repro.semirings.base import Semiring
from repro.semirings.numeric import INFINITY, NatInf
from repro.semirings.posbool import BoolExpr

__all__ = [
    "EDB_PREDICATES",
    "IDB_PREDICATES",
    "DOMAIN",
    "REGISTRY_SEMIRING_NAMES",
    "VIEW_SEMIRING_NAMES",
    "PLANNER_SEMIRING_NAMES",
    "BASE_SCHEMAS",
    "annotation_for",
    "inexact_annotation_for",
    "annotations_close",
    "row_loop",
    "random_annotation",
    "semiring_elements",
    "programs",
    "edb_databases",
    "programs_with_databases",
    "ra_queries",
    "view_databases",
]

EDB_PREDICATES = ("R", "S")
IDB_PREDICATES = ("Q", "P")
DOMAIN = ("a", "b", "c", "d")
VARIABLE_NAMES = ("x", "y", "z", "w")

#: Registry names of the semirings the differential suite runs over.
REGISTRY_SEMIRING_NAMES = ("bag", "bool", "tropical", "posbool", "nx", "circuit")

#: Registry names of the semirings the incremental-view differential harness
#: runs over (insertions everywhere; deletions where ``has_negation``).
VIEW_SEMIRING_NAMES = ("bag", "bool", "tropical", "posbool", "z", "zx")

#: Registry names the plan-equivalence harness checks optimized evaluation
#: over (the ISSUE's list: N, B, Tropical, PosBool, Z, N[X], circuits).
PLANNER_SEMIRING_NAMES = ("bag", "bool", "tropical", "posbool", "z", "nx", "circuit")

#: Base relations (and their named-perspective schemas) the random RA
#: expression strategy draws from.
BASE_SCHEMAS = {"R": ("a", "b"), "S": ("b", "c")}


def annotation_for(semiring: Semiring, index: int, draw) -> object:
    """A random non-zero annotation for ``semiring``.

    ``index`` is a unique per-tuple counter; abstract-tagging semirings use
    it to mint a fresh variable per tuple, everything else draws from a small
    pool of representative elements.
    """
    name = semiring.name
    if name == "B":
        return True
    if name == "N":
        return draw(st.integers(min_value=1, max_value=4))
    if name == "N∞":
        return draw(
            st.sampled_from([NatInf(1), NatInf(2), NatInf(3), INFINITY])
        )
    if name == "Tropical":
        return draw(st.sampled_from([0.0, 1.0, 2.0, 3.5, 7.0]))
    if name in ("Fuzzy", "Viterbi"):
        return draw(st.sampled_from([0.125, 0.25, 0.5, 1.0]))
    if name.startswith("PosBool"):
        return BoolExpr.var(f"t{index}")
    if name.startswith("Why"):
        return frozenset({f"t{index}"})
    if name in ("N[X]", "N∞[X]"):
        return Polynomial.var(f"t{index}")
    if name == "Circ[X]":
        return semiring.var(f"t{index}")
    if name == "Z":
        return draw(st.sampled_from([-3, -1, 1, 2, 4]))
    if name == "Z[X]":
        variable = ZPolynomial.var(f"t{index}")
        return draw(st.sampled_from([variable, -variable, variable + 2, variable - 1]))
    if "[[" in name:  # truncated power series N∞[[X]]
        return semiring.var(f"t{index}")
    return semiring.one()


#: Costs / probabilities with no finite binary expansion: sums and products
#: of three or more of them depend on the association order in the last bits.
INEXACT_COSTS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.3)
INEXACT_PROBABILITIES = (0.1, 0.3, 1 / 3, 0.6, 0.7, 0.9)


def inexact_annotation_for(semiring: Semiring, draw) -> float:
    """A random *non-dyadic* float annotation for Tropical, Fuzzy or Viterbi.

    :func:`annotation_for` draws exactly representable values so results can
    be compared with ``==``; this leg deliberately does not, and its results
    are compared with :func:`annotations_close`.
    """
    if semiring.name == "Tropical":
        return draw(st.sampled_from(INEXACT_COSTS))
    if semiring.name in ("Fuzzy", "Viterbi"):
        return draw(st.sampled_from(INEXACT_PROBABILITIES))
    raise ValueError(f"no inexact float annotations for {semiring.name}")


def annotations_close(left: dict, right: dict, rel: float = 1e-9) -> bool:
    """Same keys, and float values equal up to the relative tolerance ``rel``."""
    return left.keys() == right.keys() and all(
        math.isclose(left[key], right[key], rel_tol=rel, abs_tol=0.0) for key in left
    )


@contextmanager
def row_loop():
    """Semi-naive engines built inside run the row loop, not the array loop.

    Taking every semiring's vector arithmetic away -- declared carriers and
    the column kernels' object carrier alike -- makes the engine decline the
    array loop with ``round_declined == "semiring"``: the row loop is the
    reference every array-loop differential compares with, and no option of
    the library selects it.  Planned queries run inside likewise take the
    row pipeline instead of the whole-column kernels, under every semiring.
    """
    with mock.patch.object(vectorized, "vector_ops_for", lambda semiring: None):
        yield


#: Alias used by callers that mirror ``repro.workloads.random_annotation``.
random_annotation = annotation_for


@st.composite
def semiring_elements(draw, semiring: Semiring):
    """A random carrier element: zero, one, or a small ``+``/``.`` combination.

    Builds on :func:`annotation_for` (a fresh "interesting" element per draw)
    and closes under the semiring operations -- and negation, for rings -- so
    the axiom property suite exercises composite values, not just generators.
    """

    def base() -> object:
        choice = draw(st.integers(min_value=0, max_value=5))
        if choice == 0:
            return semiring.zero()
        if choice == 1:
            return semiring.one()
        return semiring.coerce(
            annotation_for(semiring, draw(st.integers(min_value=1, max_value=4)), draw)
        )

    value = base()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        other = base()
        if draw(st.booleans()):
            value = semiring.add(value, other)
        else:
            value = semiring.mul(value, other)
    if semiring.has_negation and draw(st.booleans()):
        value = semiring.negate(value)
    return value


@st.composite
def _terms(draw, arity: int, variable_pool: tuple[str, ...]):
    """``arity`` terms, biased toward variables (constants keep plans honest)."""
    terms = []
    for _ in range(arity):
        if draw(st.integers(min_value=0, max_value=9)) < 8:
            terms.append(Variable(draw(st.sampled_from(variable_pool))))
        else:
            terms.append(Constant(draw(st.sampled_from(DOMAIN))))
    return tuple(terms)


@st.composite
def _rule(draw, head_predicate: str, arities: dict, body_pool: tuple[str, ...]):
    body_size = draw(st.integers(min_value=1, max_value=3))
    body = []
    for _ in range(body_size):
        predicate = draw(st.sampled_from(body_pool))
        body.append(Atom(predicate, draw(_terms(arities[predicate], VARIABLE_NAMES))))
    body_variables = sorted(
        {v.name for atom in body for v in atom.variables}
    )
    head_terms = []
    for _ in range(arities[head_predicate]):
        if body_variables and draw(st.booleans()):
            head_terms.append(Variable(draw(st.sampled_from(body_variables))))
        elif body_variables:
            # Bias toward variables but allow head constants occasionally.
            if draw(st.integers(min_value=0, max_value=4)) == 0:
                head_terms.append(Constant(draw(st.sampled_from(DOMAIN))))
            else:
                head_terms.append(Variable(draw(st.sampled_from(body_variables))))
        else:
            head_terms.append(Constant(draw(st.sampled_from(DOMAIN))))
    return Rule(Atom(head_predicate, head_terms), body)


@st.composite
def programs(draw) -> Program:
    """A random safe datalog program (possibly recursive, possibly cyclic).

    Every IDB predicate in use is defined by at least one rule and every
    body-only predicate comes from ``EDB_PREDICATES``, so the program always
    validates and grounds.
    """
    idb_count = draw(st.integers(min_value=1, max_value=2))
    idb = IDB_PREDICATES[:idb_count]
    arities = {
        predicate: draw(st.integers(min_value=1, max_value=2))
        for predicate in EDB_PREDICATES + idb
    }
    body_pool = EDB_PREDICATES + idb
    rules = [draw(_rule(predicate, arities, body_pool)) for predicate in idb]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        head = draw(st.sampled_from(idb))
        rules.append(draw(_rule(head, arities, body_pool)))
    return Program(rules, output=idb[0])


@st.composite
def edb_databases(
    draw, program: Program, semiring: Semiring, domain: tuple = DOMAIN
) -> Database:
    """A random database providing every EDB relation ``program`` reads.

    Relation sizes are small (0-6 tuples over the 4-value ``DOMAIN`` unless
    another ``domain`` is given) so that even quadratic recursive rules stay
    comfortably testable; annotations come from :func:`annotation_for`.
    """
    database = Database(semiring)
    index = 0
    for predicate in sorted(program.edb_predicates):
        arity = program.arity(predicate)
        relation = KRelation(semiring, [f"c{i + 1}" for i in range(arity)])
        tuple_count = draw(st.integers(min_value=0, max_value=6))
        rows = draw(
            st.lists(
                st.tuples(*([st.sampled_from(domain)] * arity)),
                min_size=tuple_count,
                max_size=tuple_count,
                unique=True,
            )
        )
        for values in rows:
            index += 1
            relation.set(values, annotation_for(semiring, index, draw))
        database.register(predicate, relation)
    return database


@st.composite
def programs_with_databases(draw, semiring_name: str, recursive: bool = False):
    """A (program, database) pair over the named registry semiring.

    With ``recursive`` the program also gets a rule whose body reads IDB
    predicates only (a unit rule when the body has one atom), so that most
    groundings have cycles -- and many have cycles of unit rules.
    """
    semiring = get_semiring(semiring_name)
    program = draw(programs())
    if recursive:
        idb = tuple(sorted(program.idb_predicates))
        arities = {predicate: program.arity(predicate) for predicate in program.predicates}
        head = draw(st.sampled_from(idb))
        program = Program(
            list(program.rules) + [draw(_rule(head, arities, idb))], output=program.output
        )
    database = draw(edb_databases(program, semiring))
    return program, database


# ---------------------------------------------------------------------------
# Random positive-algebra expressions (for the incremental-view harness)
# ---------------------------------------------------------------------------

_RENAME_POOL = ("u", "v", "w")


def _opaque_predicate(attribute: str, value: str):
    """A deterministic *plain-callable* predicate (no structure exposed).

    Exercises the planner's opaque fallback: these predicates must never be
    pushed past projections/renames or into join sides, only through unions.
    """

    def predicate(tup):
        return tup[attribute] == value

    predicate.__name__ = f"opaque_eq_{attribute}_{value}"
    return predicate


@st.composite
def ra_queries(draw, max_depth: int = 3):
    """A random positive-algebra query over ``BASE_SCHEMAS``.

    Returns ``(query, schema)`` where ``schema`` is the attribute tuple of
    the query's result.  Schema bookkeeping during generation keeps every
    draw well-formed: projections pick non-empty attribute subsets, unions
    are taken over a common projection of both sides, renames avoid
    collisions, and joins are unrestricted (shared attributes or cross
    product, both legal in Definition 3.2).
    """

    def leaf():
        name = draw(st.sampled_from(sorted(BASE_SCHEMAS)))
        return Q.relation(name), BASE_SCHEMAS[name]

    def build(depth: int):
        if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
            return leaf()
        kind = draw(
            st.sampled_from(("project", "select", "rename", "join", "union"))
        )
        if kind == "project":
            query, schema = build(depth - 1)
            keep = sorted(
                draw(
                    st.sets(
                        st.sampled_from(sorted(schema)),
                        min_size=1,
                        max_size=len(schema),
                    )
                )
            )
            return query.project(*keep), tuple(keep)
        if kind == "select":
            query, schema = build(depth - 1)
            attribute = draw(st.sampled_from(sorted(schema)))
            value = draw(st.sampled_from(DOMAIN))
            flavor = draw(st.integers(min_value=0, max_value=5))
            if flavor == 0 and len(schema) >= 2:
                other = draw(st.sampled_from(sorted(set(schema) - {attribute})))
                return query.where_attrs_equal(attribute, other), schema
            if flavor == 1:
                return query.select(predicates.attr_neq_const(attribute, value)), schema
            if flavor == 2:
                op = draw(st.sampled_from(("<", "<=", ">", ">=")))
                return query.select(predicates.comparison(attribute, op, value)), schema
            if flavor == 3:
                second = draw(st.sampled_from(sorted(schema)))
                other_value = draw(st.sampled_from(DOMAIN))
                combined = predicates.conjunction(
                    predicates.attr_eq_const(attribute, value),
                    predicates.attr_neq_const(second, other_value),
                )
                return query.select(combined, description=str(combined)), schema
            if flavor == 4:
                return query.select(_opaque_predicate(attribute, value)), schema
            return query.where_eq(attribute, value), schema
        if kind == "rename":
            query, schema = build(depth - 1)
            fresh = [n for n in _RENAME_POOL if n not in schema]
            if not fresh:
                return query, schema
            old = draw(st.sampled_from(sorted(schema)))
            new = draw(st.sampled_from(fresh))
            renamed = tuple(new if a == old else a for a in schema)
            return query.rename({old: new}), renamed
        left, left_schema = build(depth - 1)
        right, right_schema = build(depth - 1)
        if kind == "join":
            joined = left_schema + tuple(
                a for a in right_schema if a not in left_schema
            )
            return left.join(right), joined
        common = sorted(set(left_schema) & set(right_schema))
        if not common:
            # No union-compatible projection exists; degrade to a join.
            joined = left_schema + tuple(
                a for a in right_schema if a not in left_schema
            )
            return left.join(right), joined
        return (
            left.project(*common).union(right.project(*common)),
            tuple(common),
        )

    return build(max_depth)


@st.composite
def view_databases(draw, semiring: Semiring):
    """A random database providing every base relation of ``BASE_SCHEMAS``."""
    database = Database(semiring)
    index = 0
    for name in sorted(BASE_SCHEMAS):
        attributes = BASE_SCHEMAS[name]
        relation = KRelation(semiring, attributes)
        count = draw(st.integers(min_value=0, max_value=5))
        rows = draw(
            st.lists(
                st.tuples(*([st.sampled_from(DOMAIN)] * len(attributes))),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        for values in rows:
            index += 1
            relation.set(values, annotation_for(semiring, index, draw))
        database.register(name, relation)
    return database
