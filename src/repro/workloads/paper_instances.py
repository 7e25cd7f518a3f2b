"""The exact example instances and queries used in the paper's figures.

Every figure of the paper (Figures 1-7) is built from one of two inputs:

* the three-tuple relation ``R(a, b, c)`` of Section 2, queried with

  ``q(R) = π_ac( π_ab R ⋈ π_bc R  ∪  π_ac R ⋈ π_bc R )``

  under maybe-table, c-table, bag, probabilistic, why-provenance and
  polynomial-provenance annotations (Figures 1-5);

* the five-edge graph of Figure 7 with the transitive-closure datalog
  program (Figures 6-7 use the binary ``R`` relations shown there).

This module constructs those inputs exactly as printed, so the tests and the
benchmarks regenerate the paper's tables verbatim.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.algebra.ast import Q, Query
from repro.datalog.grounding import GroundAtom
from repro.datalog.syntax import Program
from repro.incomplete.ctables import CTable
from repro.incomplete.maybe_tables import MaybeTable
from repro.probabilistic.tuple_independent import ProbabilisticDatabase
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.semirings.base import Semiring
from repro.semirings.boolean import BooleanSemiring
from repro.semirings.lineage import WhyProvenanceSemiring
from repro.semirings.numeric import CompletedNaturalsSemiring, NaturalsSemiring

__all__ = [
    "SECTION2_TUPLES",
    "section2_query",
    "section2_relation",
    "section2_database",
    "figure1_maybe_table",
    "figure2_ctable_input",
    "figure3_bag_database",
    "figure4_probabilistic_database",
    "figure5_why_database",
    "figure5_provenance_ids",
    "figure6_program",
    "figure6_database",
    "figure7_program",
    "figure7_database",
    "figure7_edb_ids",
    "figure7_idb_ids",
    "transitive_closure_program",
]

#: The three tuples of the Section 2 relation R(a, b, c).
SECTION2_TUPLES: Tuple[tuple, ...] = (
    ("a", "b", "c"),
    ("d", "b", "e"),
    ("f", "g", "e"),
)

#: Tuple-id variable names used by Figure 5 (p, r, s).
_SECTION2_IDS = {
    ("a", "b", "c"): "p",
    ("d", "b", "e"): "r",
    ("f", "g", "e"): "s",
}


def section2_query(relation_name: str = "R") -> Query:
    """The query ``q`` used throughout Section 2 and Figures 1-5."""
    R = Q.relation(relation_name)
    left = R.project("a", "b").join(R.project("b", "c"))
    right = R.project("a", "c").join(R.project("b", "c"))
    return left.union(right).project("a", "c")


def section2_relation(semiring: Semiring, annotations: Dict[tuple, object] | None = None) -> KRelation:
    """The Section 2 relation annotated in an arbitrary semiring.

    ``annotations`` maps the value-tuples of :data:`SECTION2_TUPLES` to
    annotations; missing tuples default to the semiring's ``1``.
    """
    relation = KRelation(semiring, ["a", "b", "c"])
    for values in SECTION2_TUPLES:
        annotation = (annotations or {}).get(values, semiring.one())
        relation._set(values, annotation)
    return relation


def section2_database(
    semiring: Semiring, annotations: Dict[tuple, object] | None = None
) -> Database:
    """A single-relation database holding the Section 2 relation."""
    database = Database(semiring)
    database.register("R", section2_relation(semiring, annotations))
    return database


# ----------------------------------------------------------------------
# Figure 1: maybe-table
# ----------------------------------------------------------------------

def figure1_maybe_table() -> MaybeTable:
    """The maybe-table of Figure 1(a): all three tuples are optional."""
    table = MaybeTable(["a", "b", "c"])
    table.add_maybe(("a", "b", "c"), variable="b1")
    table.add_maybe(("d", "b", "e"), variable="b2")
    table.add_maybe(("f", "g", "e"), variable="b3")
    return table


# ----------------------------------------------------------------------
# Figure 2: the c-table encoding of the maybe-table
# ----------------------------------------------------------------------

def figure2_ctable_input() -> CTable:
    """The Boolean c-table of Figure 1(b) (input to the Figure 2 computation)."""
    table = CTable(["a", "b", "c"])
    table.add(("a", "b", "c"), "b1")
    table.add(("d", "b", "e"), "b2")
    table.add(("f", "g", "e"), "b3")
    return table


# ----------------------------------------------------------------------
# Figure 3: bag semantics
# ----------------------------------------------------------------------

def figure3_bag_database() -> Database:
    """The multiset of Figure 3(a): multiplicities 2, 5, 1."""
    return section2_database(
        NaturalsSemiring(),
        {("a", "b", "c"): 2, ("d", "b", "e"): 5, ("f", "g", "e"): 1},
    )


# ----------------------------------------------------------------------
# Figure 4: probabilistic event table
# ----------------------------------------------------------------------

def figure4_probabilistic_database() -> ProbabilisticDatabase:
    """The event table of Figure 4(a): events x, y, z with Pr 0.6, 0.5, 0.1."""
    pdb = ProbabilisticDatabase()
    pdb.add_relation(
        "R",
        ["a", "b", "c"],
        [
            (("a", "b", "c"), "x", 0.6),
            (("d", "b", "e"), "y", 0.5),
            (("f", "g", "e"), "z", 0.1),
        ],
    )
    return pdb


# ----------------------------------------------------------------------
# Figure 5: why-provenance and provenance polynomials
# ----------------------------------------------------------------------

def figure5_why_database() -> Database:
    """The Section 2 relation annotated with singleton why-provenance sets."""
    return section2_database(
        WhyProvenanceSemiring(),
        {values: frozenset({name}) for values, name in _SECTION2_IDS.items()},
    )


def figure5_provenance_ids() -> Dict[str, Dict[tuple, str]]:
    """Tuple-id assignment (p, r, s) used when abstractly tagging the relation."""
    return {"R": dict(_SECTION2_IDS)}


# ----------------------------------------------------------------------
# Figure 6: conjunctive query under bag semantics
# ----------------------------------------------------------------------

def figure6_program() -> Program:
    """The conjunctive query ``Q(x, y) :- R(x, z), R(z, y)`` of Figure 6(a)."""
    return Program.parse("Q(x, y) :- R(x, z), R(z, y)")


def figure6_database() -> Database:
    """The N-relation of Figure 6(b): R(a,a)=2, R(a,b)=3, R(b,b)=4."""
    database = Database(NaturalsSemiring())
    database.create(
        "R", ["x", "y"], [(("a", "a"), 2), (("a", "b"), 3), (("b", "b"), 4)]
    )
    return database


# ----------------------------------------------------------------------
# Figure 7: transitive closure with bag semantics / datalog provenance
# ----------------------------------------------------------------------

def transitive_closure_program(
    edge_relation: str = "R", output: str = "Q", *, linear: bool = False
) -> Program:
    """The transitive-closure program of Figure 7(c).

    With ``linear=True`` the right-recursive variant
    ``Q(x,y) :- R(x,z), Q(z,y)`` is returned instead of the quadratic
    ``Q(x,y) :- Q(x,z), Q(z,y)`` -- an ablation used by the benchmarks to
    show how the rule shape changes provenance (fewer derivation trees) but
    not the Boolean answer.
    """
    if linear:
        text = (
            f"{output}(x, y) :- {edge_relation}(x, y)\n"
            f"{output}(x, y) :- {edge_relation}(x, z), {output}(z, y)"
        )
    else:
        text = (
            f"{output}(x, y) :- {edge_relation}(x, y)\n"
            f"{output}(x, y) :- {output}(x, z), {output}(z, y)"
        )
    return Program.parse(text, output=output)


def figure7_program() -> Program:
    """The (quadratic) transitive-closure program used by Figure 7."""
    return transitive_closure_program()


def figure7_database(semiring: Semiring | None = None) -> Database:
    """The five-edge relation of Figure 7(a)/(b) with multiplicities 2,3,2,1,1.

    By default annotated in ``N-inf`` (the semiring in which the paper
    evaluates it); pass another semiring to reuse the same support.
    """
    semiring = semiring or CompletedNaturalsSemiring()
    database = Database(semiring)
    multiplicities = {
        ("a", "b"): 2,
        ("a", "c"): 3,
        ("c", "b"): 2,
        ("b", "d"): 1,
        ("d", "d"): 1,
    }
    relation = KRelation(semiring, ["x", "y"])
    for values, count in multiplicities.items():
        if isinstance(semiring, (NaturalsSemiring, CompletedNaturalsSemiring)):
            relation._set(values, semiring.coerce(count))
        elif isinstance(semiring, BooleanSemiring):
            relation._set(values, True)
        else:
            relation._set(values, semiring.one())
    database.register("R", relation)
    return database


def figure7_edb_ids() -> Dict[GroundAtom, str]:
    """The tuple-id names m, n, p, r, s of Figure 7(d)."""
    return {
        GroundAtom("R", ("a", "b")): "m",
        GroundAtom("R", ("a", "c")): "n",
        GroundAtom("R", ("c", "b")): "p",
        GroundAtom("R", ("b", "d")): "r",
        GroundAtom("R", ("d", "d")): "s",
    }


def figure7_idb_ids() -> Dict[GroundAtom, str]:
    """The output-tuple variable names x, y, z, u, v, w of Figure 7(e).

    The paper's figure omits the derivable tuple ``Q(c, d)``; our system
    assigns it a generated name (``q1``) and EXPERIMENTS.md discusses the
    discrepancy.
    """
    return {
        GroundAtom("Q", ("a", "b")): "x",
        GroundAtom("Q", ("a", "c")): "y",
        GroundAtom("Q", ("c", "b")): "z",
        GroundAtom("Q", ("b", "d")): "u",
        GroundAtom("Q", ("d", "d")): "v",
        GroundAtom("Q", ("a", "d")): "w",
    }
