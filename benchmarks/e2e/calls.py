"""The benchmark's pinned call surface: the only module that imports ``repro``.

Everything the workloads do to the program goes through a function here, so
a later PR that renames an entry point or changes a default edits exactly
one file -- and the diff shows which measured call changed.

RA and datalog name today's fast path explicitly (their defaults are the
paper-literal reference path); every other entry point is called with no
keyword arguments, so "fast defaults" work shows up in the numbers.

Attribute access is late-bound (``repro.x.y(...)`` at call time, never
``from repro.x import y``), so :mod:`spans` can patch a boundary function
and have the call below go through the patched attribute.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import repro
import repro.circuits.compile
import repro.engine.vectorized
import repro.incomplete
import repro.obs.metrics
import repro.obs.trace
import repro.probabilistic
import repro.workloads.paper_instances as paper

# -- environment checks -----------------------------------------------------


def numpy_available() -> bool:
    return repro.engine.vectorized.numpy_available()


def program_tracing_enabled() -> bool:
    return repro.obs.trace.enabled()


# -- semirings ---------------------------------------------------------------

_SEMIRINGS = {
    "N": "NaturalsSemiring",
    "Z": "IntegerRing",
    "B": "BooleanSemiring",
    "Tropical": "TropicalSemiring",
    "NatInf": "CompletedNaturalsSemiring",
    "N[X]": "ProvenancePolynomialSemiring",
    "Circuit": "CircuitSemiring",
    "Why": "WhyProvenanceSemiring",
}


def semiring(name: str, counter: Any = None) -> Any:
    """A semiring by short name; with ``counter`` (an ``OpCounter``) the
    instrumented wrapper that counts ``+`` / ``x`` / ``is_zero`` calls."""
    instance = getattr(repro, _SEMIRINGS[name])()
    if counter is not None:
        return repro.instrument(instance, counter)
    return instance


def op_counter() -> Any:
    return repro.OpCounter()


def variable(sr: Any, name: str) -> Any:
    """The annotation standing for the bare provenance variable ``name``."""
    maker = getattr(getattr(sr, "delegate", sr), "var", None)  # see through instrument()
    return maker(name) if maker is not None else sr.coerce(frozenset({name}))


def polynomial_terms(polynomial: Any) -> Dict[tuple, int]:
    """An N[X] polynomial as plain data: ``{((variable, exponent), ...): coefficient}``."""
    return {monomial.powers: int(coefficient) for monomial, coefficient in polynomial.terms}


# -- relations -----------------------------------------------------------------


def database(
    sr: Any, relations: Mapping[str, Tuple[Sequence[str], Iterable[Any]]], storage: Any = None
) -> Any:
    """``Database(sr)`` loaded with ``{name: (attributes, rows)}``."""
    db = repro.Database(sr)
    for name, (attributes, rows) in relations.items():
        db.create(name, attributes, rows, storage=storage)
    return db


def tagged_rows(sr: Any, rows: Iterable[Tuple[Any, str]]) -> List[Tuple[Any, Any]]:
    """``(row, variable name)`` pairs as ``(row, annotation)`` pairs."""
    return [(row, variable(sr, name)) for row, name in rows]


def tuple_dict(answer: Any, attributes: Sequence[str]) -> Dict[tuple, Any]:
    """A K-relation or ``{Tup: value}`` answer as ``{values in the order of
    attributes: value}`` (the planner may permute a result's display order)."""
    return {tup.values_for(attributes): value for tup, value in answer.items()}


def annotations_dict(result: Any, predicate: str) -> Dict[tuple, Any]:
    """``{values: annotation}`` of one predicate of a ``DatalogResult``."""
    return {
        atom.values: value
        for atom, value in result.annotations.items()
        if atom.relation == predicate
    }


# -- relational algebra -----------------------------------------------------------


def two_hop_query() -> Any:
    """``π_{a,c}(E ⋈ ρ_{a→b,b→c} E)``."""
    Q = repro.Q
    return (
        Q.relation("E")
        .join(Q.relation("E").rename({"a": "b", "b": "c"}))
        .project("a", "c")
    )


def star_filter_last_query(label: str) -> Any:
    """The three-way star written worst-first: dimensions joined before the
    fact table, the selective filter last.  The planner has to fix both."""
    Q = repro.Q
    return (
        Q.relation("D1")
        .join(Q.relation("D2"))
        .join(Q.relation("F"))
        .where_eq("x", label)
        .project("a", "y")
    )


def star_wide_query() -> Any:
    """The unfiltered star ``π_{a,x,y}(F ⋈ D1 ⋈ D2)``."""
    Q = repro.Q
    return Q.relation("F").join(Q.relation("D1")).join(Q.relation("D2")).project("a", "x", "y")


def evaluate(query: Any, db: Any, storage: str) -> Any:
    return query.evaluate(db, optimize=True, executor="pipelined", storage=storage)


def specialize(relation: Any, sr: Any, valuation: Mapping[str, Any]) -> Any:
    return repro.specialize(relation, sr, valuation)


# -- datalog ------------------------------------------------------------------------

TC_LINEAR = "T(x, y) :- R(x, y)\nT(x, y) :- R(x, z), T(z, y)"
TC_QUADRATIC = "T(x, y) :- R(x, y)\nT(x, y) :- T(x, z), T(z, y)"


def parse_program(text: str) -> Any:
    return repro.Program.parse(text)


def evaluate_program(program: Any, db: Any, storage: str) -> Any:
    return repro.evaluate_program(program, db, engine="seminaive", storage=storage)


# -- incremental maintenance -----------------------------------------------------------


def materialized_view(query: Any, db: Any) -> Any:
    return repro.MaterializedView(query, db)


def incremental_datalog(program: Any, db: Any) -> Any:
    return repro.IncrementalDatalog(program, db)


def update_batch(insertions: Mapping[str, Any], deletions: Mapping[str, Any]) -> Any:
    return repro.UpdateBatch(insertions=insertions, deletions=deletions)


# -- probabilistic inference --------------------------------------------------------------


def probabilistic_database(
    relations: Mapping[str, Tuple[Sequence[str], Iterable[Any]]]
) -> Any:
    pdb = repro.probabilistic.ProbabilisticDatabase()
    for name, (attributes, rows) in relations.items():
        pdb.add_relation(name, attributes, rows)
    return pdb


def clear_compile_cache() -> None:
    repro.circuits.compile.clear_compile_cache()


def compile_stats() -> Dict[str, float]:
    return repro.obs.metrics.compilation.snapshot()


def consing_stats() -> Dict[str, float]:
    return repro.obs.metrics.consing.snapshot()


def count_consing(on: bool) -> None:
    """The hash-consing counters are gated by their own flag (not by program
    tracing); the traced passes turn them on to get a hit rate."""
    repro.obs.metrics.consing.enabled = on


# -- the paper's own instances (default entry points, no keyword arguments) ----------------


def paper_setup() -> Dict[str, Any]:
    return {
        "query": paper.section2_query(),
        "bool_db": paper.section2_database(repro.BooleanSemiring()),
        "ctable": paper.figure2_ctable_input(),
        "bag_db": paper.figure3_bag_database(),
        "pdb": paper.figure4_probabilistic_database(),
        "why_db": paper.figure5_why_database(),
        "ids": paper.figure5_provenance_ids(),
        "fig6_program": paper.figure6_program(),
        "fig6_db": paper.figure6_database(),
        "fig7_program": paper.figure7_program(),
        "fig7_db": paper.figure7_database(),
        "fig7_ids": paper.figure7_edb_ids(),
    }


def paper_op(kind: str, s: Dict[str, Any]) -> Any:
    """One figure of the paper, computed the way its ``bench_fig*`` does."""
    if kind == "sec2_bool":
        return s["query"].evaluate(s["bool_db"])
    if kind == "fig1_maybe":
        return repro.incomplete.answer_world_set(
            s["query"], s["ctable"], "R", variables=["b1", "b2", "b3"]
        )
    if kind == "fig2_ctable":
        return s["query"].evaluate(repro.incomplete.ctable_database({"R": s["ctable"]}))
    if kind == "fig3_bag":
        return s["query"].evaluate(s["bag_db"])
    if kind == "fig4_prob":
        return s["pdb"].query_probabilities(s["query"])
    if kind == "fig5_why":
        return s["query"].evaluate(s["why_db"])
    if kind == "fig5_nx":
        return repro.algebra.provenance_of_query(s["query"], s["bag_db"], ids=s["ids"])[0]
    if kind == "fig6_datalog_bag":
        return repro.datalog.evaluate(s["fig6_program"], s["fig6_db"])
    if kind == "fig7_datalog_series":
        return repro.datalog_provenance(
            s["fig7_program"], s["fig7_db"], truncation_degree=5, edb_ids=s["fig7_ids"]
        )
    raise KeyError(kind)


def series_coefficients(provenance: Any, predicate: str, values: tuple, var: str, upto: int) -> List[Any]:
    """Coefficients of ``var^1 .. var^upto`` in one atom's provenance series."""
    series = provenance.provenance(repro.datalog.GroundAtom(predicate, values))
    return [
        series.coefficient(repro.Monomial.var(var, n)) for n in range(1, upto + 1)
    ]


def polynomial(text: str) -> Any:
    return repro.Polynomial.parse(text)


def nat_inf(value: Any) -> Any:
    return repro.INFINITY if value == "inf" else repro.NatInf(value)


# -- layer boundaries (patched from outside by spans.py) ------------------------------------
#
# metric -> [(dotted owner, attribute)].  The owner is a module or a class.
# A boundary that no longer resolves is reported under ``missing_boundaries``
# and its metric reads as absent; it never aborts a run.

SETUP_BOUNDARIES: Dict[str, List[Tuple[str, str]]] = {
    "relations.load": [
        ("repro.relations.database.Database", "create"),
        ("repro.relations.database.Database", "register"),
        ("repro.relations.krelation.KRelation", "__init__"),
        ("repro.relations.krelation.KRelation", "with_storage"),
    ],
    "incremental.view_build": [("repro.incremental.view.MaterializedView", "__init__")],
    "incremental.datalog_build": [("repro.incremental.datalog.IncrementalDatalog", "__init__")],
    "probabilistic.build": [
        ("repro.probabilistic.tuple_independent.ProbabilisticDatabase", "add_relation")
    ],
}

PASS_BOUNDARIES: Dict[str, List[Tuple[str, str]]] = {
    "planner.optimize": [("repro.planner.optimizer", "optimize")],
    "engine.compile": [("repro.engine.compile", "compile_query")],
    "engine.row_execute": [("repro.engine.compile", "execute")],
    "engine.vectorized": [("repro.engine.vectorized", "try_execute")],
    "engine.linear_join": [("repro.engine.vectorized", "fire_linear_join")],
    "engine.kernel_join": [("repro.engine.kernels", "join_relations")],
    "engine.kernel_project": [("repro.engine.kernels", "project_relation")],
    "algebra.evaluate_self": [("repro.algebra.ast.Query", "evaluate")],
    "algebra.operators": [
        ("repro.algebra.operators", name)
        for name in ("union", "project", "select", "join", "rename", "empty")
    ],
    "datalog.parse": [("repro.datalog.syntax.Program", "parse")],
    "datalog.seminaive": [("repro.datalog.seminaive", "evaluate_program_seminaive")],
    "datalog.ground": [("repro.datalog.grounding", "ground_program")],
    "datalog.solve_ground": [
        ("repro.datalog.fixpoint", "solve_ground"),
        ("repro.datalog.seminaive", "solve_ground_seminaive"),
    ],
    "datalog.conditions": [("repro.datalog.lattice_eval", "lattice_condition_provenance")],
    "datalog.provenance": [("repro.datalog.provenance", "datalog_provenance")],
    "incremental.view_apply": [("repro.incremental.view.MaterializedView", "apply")],
    "incremental.datalog_insert": [("repro.incremental.datalog.IncrementalDatalog", "insert")],
    "incremental.datalog_delete": [("repro.incremental.datalog.IncrementalDatalog", "remove")],
    "circuits.compile": [("repro.circuits.compile.CircuitCompiler", "compile")],
    "circuits.wmc": [("repro.circuits.compile.CompiledCircuit", "wmc")],
    "circuits.specialize": [("repro.circuits.evaluate", "specialize")],
    "probabilistic.self": [
        ("repro.probabilistic.tuple_independent.ProbabilisticDatabase", name)
        for name in ("datalog_probabilities", "query_probabilities", "datalog_top_k")
    ],
}


def resolve(dotted: str) -> Any:
    """The module or class named by ``dotted`` (raises if it is gone)."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            owner = getattr(owner, attribute)
        return owner
    raise ImportError(dotted)


def namespaces() -> List[Any]:
    """Every module that may hold a by-name binding of a boundary function:
    the program's own modules plus this one."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro.") or name == __name__)
    ]
