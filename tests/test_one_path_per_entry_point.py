"""Entry points with one implementation take no keyword that picks another.

Theorem 4.3 (and Theorem 6.4 over distributive lattices) proves that the
paths these keywords used to choose between return the same answer, so the
choice lives in the differential tests, not in the API: a removed keyword
is a ``TypeError``.  The calls the end-to-end benchmark makes with
``optimize=`` / ``executor=`` / ``engine=`` / ``storage=`` accept exactly the
values it passes and ignore them; any other value is a ``TypeError``.
The planner has no cost model: its names and ``repro.planner.cost`` are gone.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro
from repro import (
    BooleanSemiring,
    Database,
    IncrementalDatalog,
    KRelation,
    MaterializedView,
    Q,
    evaluate_program,
    explain_analyze,
)
from repro import datalog, planner
from repro.algebra.ast import Query
from repro.circuits import CircuitCompiler, compile_circuit, var
from repro.datalog import LatticeDatalogResult, lattice_condition_provenance
from repro.datalog.seminaive import evaluate_program_seminaive
from repro.engine import vectorized
from repro.planner import explain, optimize
from repro.probabilistic import EventTable, ProbabilisticDatabase

PROGRAM = "T(x, y) :- R(x, y)\nT(x, y) :- R(x, z), T(z, y)"
QUERY = Q.relation("R").project("x")
EDGES = [("a", "b"), ("b", "c"), ("c", "a")]


def _pdb() -> ProbabilisticDatabase:
    pdb = ProbabilisticDatabase()
    pdb.add_relation(
        "R", ["x", "y"], [(edge, f"e{i}", 0.5) for i, edge in enumerate(EDGES)]
    )
    return pdb


def _bool_database() -> Database:
    database = Database(BooleanSemiring())
    database.create("R", ["x", "y"], EDGES)
    return database


def _event_table() -> EventTable:
    return EventTable.tuple_independent(["x", "y"], [(EDGES[0], "e0", 0.5)])


CALLS = {
    "ProbabilisticDatabase.query_lineage": lambda **kw: _pdb().query_lineage(QUERY, **kw),
    "ProbabilisticDatabase.query_events": lambda **kw: _pdb().query_events(QUERY, **kw),
    "ProbabilisticDatabase.query_probabilities": (
        lambda **kw: _pdb().query_probabilities(QUERY, **kw)
    ),
    "ProbabilisticDatabase.query_top_k": lambda **kw: _pdb().query_top_k(QUERY, 2, **kw),
    "ProbabilisticDatabase.query_map": lambda **kw: _pdb().query_map(QUERY, **kw),
    "ProbabilisticDatabase.datalog_events": (
        lambda **kw: _pdb().datalog_events(PROGRAM, **kw)
    ),
    "ProbabilisticDatabase.datalog_probabilities": (
        lambda **kw: _pdb().datalog_probabilities(PROGRAM, **kw)
    ),
    "ProbabilisticDatabase.datalog_top_k": (
        lambda **kw: _pdb().datalog_top_k(PROGRAM, 2, **kw)
    ),
    "EventTable.probability": lambda **kw: _event_table().probability(EDGES[0], **kw),
    "EventTable.probabilities": lambda **kw: _event_table().probabilities(**kw),
    "lattice_condition_provenance": (
        lambda **kw: lattice_condition_provenance(PROGRAM, _bool_database(), **kw)
    ),
    "MaterializedView": lambda **kw: MaterializedView(QUERY, _bool_database(), **kw),
    "KRelation": lambda **kw: KRelation(BooleanSemiring(), ["x", "y"], EDGES, **kw),
    "IncrementalDatalog": lambda **kw: IncrementalDatalog(PROGRAM, _bool_database(), **kw),
    "evaluate_program_seminaive": (
        lambda **kw: evaluate_program_seminaive(PROGRAM, _bool_database(), **kw)
    ),
    "datalog.evaluate": lambda **kw: datalog.evaluate(PROGRAM, _bool_database(), **kw),
    "datalog_provenance": lambda **kw: datalog.datalog_provenance(PROGRAM, _bool_database(), **kw),
    "explain_analyze": lambda **kw: explain_analyze(QUERY, _bool_database(), **kw),
    "Query.explain_analyze": lambda **kw: QUERY.explain_analyze(_bool_database(), **kw),
    "CircuitCompiler": lambda **kw: CircuitCompiler(**kw).compile(var("a")),
    "compile_circuit": lambda **kw: compile_circuit(var("a"), **kw),
    "optimize": lambda **kw: optimize(QUERY, _bool_database(), **kw),
    "planner.explain": lambda **kw: explain(QUERY, _bool_database(), **kw),
}

QUERY_KNOBS = {"optimize": True, "executor": "pipelined", "storage": "row"}

REMOVED = [
    *(
        (f"ProbabilisticDatabase.{name}", keyword, value)
        for name in ("query_lineage", "query_events", "query_probabilities", "query_top_k", "query_map")
        for keyword, value in QUERY_KNOBS.items()
    ),
    *(
        (f"ProbabilisticDatabase.{name}", "method", "compile")
        for name in ("query_events", "query_probabilities", "datalog_events", "datalog_probabilities")
    ),
    *(
        (f"ProbabilisticDatabase.{name}", "engine", "seminaive")
        for name in ("datalog_events", "datalog_probabilities", "datalog_top_k")
    ),
    ("EventTable.probability", "method", "compile"),
    ("EventTable.probabilities", "method", "compile"),
    ("lattice_condition_provenance", "engine", "seminaive"),
    ("lattice_condition_provenance", "storage", "row"),
    *(("MaterializedView", keyword, value) for keyword, value in QUERY_KNOBS.items()),
    ("KRelation", "storage", "columnar"),
    ("IncrementalDatalog", "storage", "columnar"),
    ("evaluate_program_seminaive", "storage", "columnar"),
    ("evaluate_program_seminaive", "engine", "seminaive"),
    ("evaluate_program_seminaive", "on_divergence", "top"),
    ("datalog.evaluate", "engine", "seminaive"),
    ("datalog.evaluate", "storage", "row"),
    ("datalog_provenance", "provenance", "circuit"),
    ("explain_analyze", "optimize", True),
    ("explain_analyze", "reorder", False),
    ("Query.explain_analyze", "optimize", False),
    ("CircuitCompiler", "model", "dfs"),
    ("compile_circuit", "model", "dfs"),
    *(
        (name, keyword, value)
        for name in ("optimize", "planner.explain")
        for keyword, value in (("reorder", False), ("statistics", None), ("max_passes", 10))
    ),
]


def test_every_removed_keyword_is_listed_once():
    assert len(REMOVED) == len(set(REMOVED)) == 48


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_call_runs_without_keywords(name):
    CALLS[name]()


@pytest.mark.parametrize(
    "name, keyword, value", REMOVED, ids=[f"{n}-{k}" for n, k, _ in REMOVED]
)
def test_removed_keyword_is_a_type_error(name, keyword, value):
    with pytest.raises(TypeError, match=keyword):
        CALLS[name](**{keyword: value})


def test_storage_conversion_is_gone():
    assert not hasattr(KRelation, "with_storage")
    assert not hasattr(Database, "with_storage")
    assert not hasattr(KRelation, "storage")


#: (module, name) pairs of the deleted cost model: planning reads no data.
REMOVED_NAMES = [
    (repro, "Statistics"),
    (repro, "CostModel"),
    *((planner, name) for name in ("Statistics", "TableStats", "CostModel", "Estimate")),
    (vectorized, "distinct_counts"),
]


@pytest.mark.parametrize(
    "module, name", REMOVED_NAMES, ids=[f"{m.__name__}.{n}" for m, n in REMOVED_NAMES]
)
def test_cost_model_name_is_gone(module, name):
    assert not hasattr(module, name)
    assert name not in module.__all__


#: (owner, name) pairs of the deleted second Section 8 route: datalog over a
#: distributive lattice is ``datalog.evaluate`` in the lattice itself.
REMOVED_LATTICE_NAMES = [
    (datalog, "evaluate_on_lattice"),
    (LatticeDatalogResult, "evaluate"),
    (LatticeDatalogResult, "condition"),
]


@pytest.mark.parametrize(
    "owner, name",
    REMOVED_LATTICE_NAMES,
    ids=[f"{o.__name__}.{n}" for o, n in REMOVED_LATTICE_NAMES],
)
def test_lattice_expansion_name_is_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


def test_cost_model_module_and_report_fields_are_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.planner.cost")
    report = explain(QUERY, _bool_database())
    assert not hasattr(report, "cost_before") and not hasattr(report, "cost_after")


PINNED_CALLS = {
    "Query.evaluate": lambda **kw: QUERY.evaluate(_bool_database(), **kw),
    "evaluate_program": (
        lambda **kw: evaluate_program(PROGRAM, _bool_database(), **kw).annotations
    ),
    "Database.create": lambda **kw: _bool_database().create("S", ["x"], [("a",)], **kw),
}

#: (call, keyword, the values the benchmark passes, values that select nothing).
STORAGE = (None, "row", "columnar")
PINNED = [
    ("Query.evaluate", "optimize", (True,), (False, None, "yes")),
    ("Query.evaluate", "executor", ("pipelined",), ("naive", "vectorized")),
    ("Query.evaluate", "storage", STORAGE, ("bogus",)),
    ("evaluate_program", "engine", ("seminaive",), ("naive", "magic")),
    ("evaluate_program", "storage", STORAGE, ("bogus",)),
    ("Database.create", "storage", STORAGE, ("bogus",)),
]


@pytest.mark.parametrize("name, keyword, pinned, other", PINNED, ids=[f"{p[0]}-{p[1]}" for p in PINNED])
def test_pinned_keyword_selects_nothing(name, keyword, pinned, other):
    """The benchmark's values give the keyword-free answer; nothing else is accepted."""
    call = PINNED_CALLS[name]
    for value in pinned:
        assert call(**{keyword: value}) == call()
    for value in other:
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: value})


#: Entry point -> the keyword-only parameters it may take: its options plus
#: the pinned mode keywords.
SIGNATURES = {
    Query.evaluate: {"optimize", "executor", "storage"},
    evaluate_program: {"max_iterations", "on_divergence", "engine", "storage"},
    datalog.evaluate: {"max_iterations", "on_divergence"},
    explain_analyze: set(),
    Database.create: {"storage"},
    CircuitCompiler: {"order"},
    compile_circuit: {"order", "check"},
    optimize: {"semiring", "verify_properties"},
    explain: {"semiring", "verify_properties"},
}


@pytest.mark.parametrize("function", SIGNATURES, ids=lambda f: f.__qualname__)
def test_entry_points_take_no_mode_keyword_beyond_the_pinned_ones(function):
    parameters = inspect.signature(function).parameters.values()
    assert not [p for p in parameters if p.kind is p.VAR_KEYWORD]
    keywords = {p.name for p in parameters if p.kind is p.KEYWORD_ONLY}
    assert keywords == SIGNATURES[function]
