"""Incremental deletion: DRed, ring and provenance-assisted paths.

The maintained :class:`IncrementalDatalog` must agree with from-scratch
semi-naive evaluation *annotation-for-annotation* after every step of a
random insert/delete update stream, over every supported semiring, on both
storage backends and for four program shapes (linear and quadratic
transitive closure, a 3-atom rule body, a mutually recursive pair) -- and
:meth:`check_consistency` must hold throughout (the maintained
``edb_annotations``, stores, binding indexes and database supports all agree
with a from-scratch grounding).  The exact leg draws exactly representable
annotations and compares with ``==``; a second leg draws non-dyadic floats,
whose products depend on the association order, and compares within a
relative 1e-9.

Alongside the differential harness, targeted tests pin which deletion
strategy engages (``last_delete_mode``): ``"dred"`` for idempotent and plain
collect-mode semirings, ``"ring"`` for ``Z``/``Z[X]``, ``"provenance"`` when
every deleted fact is tagged with a fresh variable no surviving fact
mentions, ``"noop"`` for absent tuples, and ``"rebuild"`` only as the forced
last resort.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import annotation_for, annotations_close, inexact_annotation_for

from repro.circuits import to_polynomial
from repro.circuits.nodes import Node
from repro.datalog import evaluate_program
from repro.engine import vectorized
from repro.errors import DatalogError, DivergenceError
from repro.incremental import IncrementalDatalog, UpdateBatch
from repro.relations.database import Database
from repro.semirings import get_semiring

TC_PROGRAM = """
T(x, y) :- R(x, y).
T(x, z) :- R(x, y), T(y, z).
"""

#: The differential stream's program shapes: every rule's delta variants,
#: 2- and 3-atom bodies (a 3-atom product reassociates between the driver
#: variants), and recursion through a second predicate.
PROGRAMS = {
    "linear": TC_PROGRAM,
    "quadratic": """
        T(x, y) :- R(x, y).
        T(x, z) :- T(x, y), T(y, z).
    """,
    "three-atom": """
        T(x, y) :- R(x, y).
        T(x, w) :- R(x, y), T(y, z), R(z, w).
    """,
    "mutual": """
        P(x, y) :- R(x, y).
        Q(x, z) :- P(x, y), R(y, z).
        P(x, z) :- Q(x, y), R(y, z).
    """,
}

#: B, N, Tropical, Fuzzy, Viterbi, PosBool[X], Z, Z[X], N[X] and circuits --
#: both engine regimes, the attained-support bound and the plain over-delete,
#: both ring paths, and both provenance representations.
DELETION_SEMIRING_NAMES = (
    "bool",
    "bag",
    "tropical",
    "fuzzy",
    "viterbi",
    "posbool",
    "z",
    "zx",
    "nx",
    "circuit",
)

#: The semirings the inexact-float leg runs over (the attained-support bound
#: compares float products there).
FLOAT_SEMIRING_NAMES = ("tropical", "fuzzy", "viterbi")

NODES = ("a", "b", "c", "d", "e")

DELETION_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _normalize(annotations):
    """Circuit equality is structural; compare via the denoted polynomials."""
    return {
        atom: (to_polynomial(value) if isinstance(value, Node) else value)
        for atom, value in annotations.items()
    }


def _assert_matches_fresh(maintained, database, same=None):
    fresh = evaluate_program(
        maintained.program, database, engine="seminaive", on_divergence="skip"
    )
    assert maintained.result.divergent_atoms == fresh.divergent_atoms
    got, want = _normalize(maintained.result.annotations), _normalize(fresh.annotations)
    if same is None:
        assert got == want
    else:
        assert same(got, want), (got, want)


def _run_stream(program, semiring_name, storage, data, annotate, same=None):
    """A random insert/delete stream, checked against fresh evaluation per step."""
    semiring = get_semiring(semiring_name)
    database = Database(semiring)
    database.create("R", ["x", "y"], storage=storage)
    maintained = IncrementalDatalog(
        PROGRAMS[program], database, on_divergence="skip", storage=storage
    )
    index = 0
    steps = data.draw(st.integers(min_value=2, max_value=6), label="steps")
    for step in range(steps):
        support = sorted(
            tup.values_for(("x", "y")) for tup in database.relation("R")
        )
        if support and data.draw(st.booleans(), label=f"delete {step}?"):
            count = data.draw(
                st.integers(min_value=1, max_value=min(2, len(support))),
                label=f"deletes {step}",
            )
            rows = [
                data.draw(st.sampled_from(support), label=f"delete row {step}.{i}")
                for i in range(count)
            ]
            maintained.remove("R", rows)
            assert maintained.last_delete_mode in ("dred", "ring", "provenance")
            stats = maintained.last_delete_stats
            assert stats["mode"] == maintained.last_delete_mode
            assert 0 <= stats["overdeleted"] <= stats["idb_rows"]
            assert stats["attained"] == (semiring_name in FLOAT_SEMIRING_NAMES)
        else:
            entries = []
            for _ in range(
                data.draw(st.integers(min_value=1, max_value=3), label=f"ins {step}")
            ):
                values = (
                    data.draw(st.sampled_from(NODES)),
                    data.draw(st.sampled_from(NODES)),
                )
                index += 1
                entries.append((values, annotate(semiring, index, data.draw)))
            maintained.insert("R", entries)
        _assert_matches_fresh(maintained, database, same)
        maintained.check_consistency()
    # Columnar stores resume on the array state wherever one exists: every
    # shape but the three-atom body, over the idempotent vector semirings.
    on_arrays = (
        storage == "columnar"
        and vectorized.numpy_available()
        and semiring_name in FLOAT_SEMIRING_NAMES + ("bool",)
        and program != "three-atom"
    )
    assert maintained._engine.round_path == ("array" if on_arrays else "rows")


@pytest.mark.parametrize("storage", ("row", "columnar"))
@pytest.mark.parametrize("semiring_name", DELETION_SEMIRING_NAMES)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
@DELETION_SETTINGS
@given(data=st.data())
def test_mixed_streams_match_fresh_evaluation(program, semiring_name, storage, data):
    _run_stream(program, semiring_name, storage, data, annotation_for)


@pytest.mark.parametrize("storage", ("row", "columnar"))
@pytest.mark.parametrize("semiring_name", FLOAT_SEMIRING_NAMES)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
@DELETION_SETTINGS
@given(data=st.data())
def test_inexact_float_streams_match_fresh_within_tolerance(
    program, semiring_name, storage, data
):
    # Non-dyadic annotations: a maintained value and a freshly evaluated one
    # may associate the same product differently, so equality is relative
    # (1e-9, the slack ``may_attain`` dooms by) -- but supports must agree.
    _run_stream(
        program,
        semiring_name,
        storage,
        data,
        lambda semiring, index, draw: inexact_annotation_for(semiring, draw),
        same=annotations_close,
    )


@pytest.mark.parametrize("storage", ("row", "columnar"))
@pytest.mark.parametrize("semiring_name", ("bool", "bag"))
def test_removing_an_absent_fact_is_a_noop(semiring_name, storage):
    semiring = get_semiring(semiring_name)
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 1)], storage=storage)
    maintained = IncrementalDatalog(TC_PROGRAM, database, storage=storage)
    before = dict(maintained.result.annotations)
    engine = maintained._engine
    maintained.remove("R", [("x", "y")])
    assert maintained.last_delete_mode == "noop"
    assert maintained._engine is engine
    assert maintained.result.annotations == before
    maintained.check_consistency()


def test_idempotent_deletion_uses_dred_without_rebuilding():
    semiring = get_semiring("tropical")
    database = Database(semiring)
    database.create(
        "R",
        ["x", "y"],
        [(("a", "b"), 1.0), (("b", "c"), 2.0), (("a", "c"), 5.0), (("c", "d"), 1.0)],
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    engine = maintained._engine
    maintained.remove("R", [("b", "c")])
    assert maintained.last_delete_mode == "dred"
    assert maintained._engine is engine
    # ("a", "c") survives through its direct edge; ("a", "d") must have been
    # re-derived through the surviving path with the higher cost
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


def test_zero_cost_tie_cycle_dooms_both_tied_atoms():
    # T(a,c) and T(b,c) both cost 5 and each is attained *through the other*
    # around the zero-cost cycle a <-> b as well as through T(a,c)'s direct
    # edge.  Deleting that edge must doom both: a strict "better than stored"
    # test would keep the pair alive on its own circular support.
    database = Database(get_semiring("tropical"))
    database.create(
        "R",
        ["x", "y"],
        [(("a", "b"), 0.0), (("b", "a"), 0.0), (("a", "c"), 5.0), (("b", "c"), 9.0)],
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    before = maintained.result.annotations
    assert before[_t("a", "c")] == before[_t("b", "c")] == 5.0
    maintained.remove("R", [("a", "c")])
    stats = maintained.last_delete_stats
    assert stats["attained"] and stats["overdeleted"] == 2
    after = maintained.result.annotations
    assert after[_t("a", "c")] == after[_t("b", "c")] == 9.0
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


@pytest.mark.parametrize(
    "semiring_name, costs",
    [("tropical", (0.1, 0.1, 1.1)), ("viterbi", (0.1, 0.1, 0.3))],
)
def test_attained_test_survives_float_reassociation(semiring_name, costs):
    # T(x,w)'s only derivation multiplies three non-dyadic floats.  The
    # insert that derived it and the over-delete that revisits it drive the
    # rule from different atoms, so the two products differ in the last bit;
    # an ``==`` attained test would call the derivation "not the attained
    # one" and leave T(x,w) standing with no support at all.
    database = Database(get_semiring(semiring_name))
    database.create("R", ["x", "y"])
    maintained = IncrementalDatalog(PROGRAMS["three-atom"], database)
    for edge, cost in zip((("x", "y"), ("y", "z"), ("z", "w")), costs):
        maintained.insert("R", [(edge, cost)])
    assert _t("x", "w") in maintained.result.annotations
    maintained.remove("R", [("x", "y")])
    assert maintained.last_delete_stats["attained"]
    assert _t("x", "w") not in maintained.result.annotations
    _assert_matches_fresh(maintained, database, annotations_close)
    maintained.check_consistency()


def _t(x, y):
    from repro.datalog.grounding import GroundAtom

    return GroundAtom("T", (x, y))


def _regular_graph(nodes=48, degree=6, seed=20070611):
    """A seeded out-degree-regular digraph with small integer costs."""
    import random

    rng = random.Random(seed)
    names = [f"v{i}" for i in range(nodes)]
    edges = {}
    for source in names:
        for target in rng.sample([n for n in names if n != source], degree):
            edges[(source, target)] = float(rng.randint(1, 9))
    return edges


def _supported_atoms(edges, closure, victim):
    """Every T atom the edge ``victim`` supports at all (classical over-delete)."""
    doomed = {victim}
    grew = True
    while grew:
        grew = False
        for (x, y) in edges:
            for (y2, z) in closure:
                if y2 == y and (x, z) not in doomed and ((x, y) == victim or (y, z) in doomed):
                    doomed.add((x, z))
                    grew = True
    return doomed


def test_attained_support_bounds_the_overdelete_on_a_dense_graph():
    edges = _regular_graph()
    victim = sorted(edges)[17]

    tropical = Database(get_semiring("tropical"))
    tropical.create("R", ["x", "y"], list(edges.items()))
    maintained = IncrementalDatalog(TC_PROGRAM, tropical)
    idb = len(maintained.result.annotations)
    assert idb == 48 * 48  # strongly connected: the closure is complete
    maintained.remove("R", [victim])
    stats = maintained.last_delete_stats
    assert stats["mode"] == "dred" and stats["attained"]
    assert stats["idb_rows"] == idb
    assert 1 <= stats["overdeleted"] < idb // 10
    assert stats["rederived"] <= stats["overdeleted"]
    _assert_matches_fresh(maintained, tropical)
    maintained.check_consistency()

    # B has nothing to compare: every supported atom goes, as before.
    boolean = Database(get_semiring("bool"))
    boolean.create("R", ["x", "y"], list(edges))
    maintained = IncrementalDatalog(TC_PROGRAM, boolean)
    closure = {atom.values for atom in maintained.result.annotations}
    maintained.remove("R", [victim])
    stats = maintained.last_delete_stats
    assert stats["mode"] == "dred" and not stats["attained"]
    assert stats["overdeleted"] == len(_supported_atoms(edges, closure, victim))
    _assert_matches_fresh(maintained, boolean)
    maintained.check_consistency()


def test_ring_deletion_cancels_through_negative_deltas():
    semiring = get_semiring("z")
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 2), (("b", "c"), -3)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    engine = maintained._engine
    maintained.remove("R", [("a", "b")])
    assert maintained.last_delete_mode == "ring"
    assert maintained._engine is engine
    assert ("a", "b") not in database.relation("R")
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


@pytest.mark.parametrize("semiring_name", ("nx", "circuit"))
def test_provenance_assisted_deletion_patches_the_cached_result(semiring_name):
    semiring = get_semiring(semiring_name)
    database = Database(semiring)
    database.create(
        "R",
        ["x", "y"],
        [
            (("a", "b"), semiring.var("p")),
            (("b", "c"), semiring.var("q")),
            (("a", "c"), semiring.var("r")),
            (("c", "d"), semiring.var("s")),
        ],
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    assert maintained.result is not None  # prime the cache
    engine = maintained._engine
    maintained.remove("R", [("b", "c")])
    assert maintained.last_delete_mode == "provenance"
    assert maintained._engine is engine
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


def test_provenance_license_requires_bare_fresh_variables():
    semiring = get_semiring("nx")
    # 1. a non-variable annotation on the deleted fact blocks the patch
    database = Database(semiring)
    database.create(
        "R",
        ["x", "y"],
        [
            (("a", "b"), semiring.var("p") * semiring.var("q")),
            (("b", "c"), semiring.var("r")),
        ],
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    assert maintained.result is not None
    maintained.remove("R", [("a", "b")])
    assert maintained.last_delete_mode == "dred"
    _assert_matches_fresh(maintained, database)
    # 2. a deleted variable shared with a surviving fact blocks it too
    database = Database(semiring)
    database.create(
        "R",
        ["x", "y"],
        [(("a", "b"), semiring.var("s")), (("b", "c"), semiring.var("s"))],
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    assert maintained.result is not None
    maintained.remove("R", [("a", "b")])
    assert maintained.last_delete_mode == "dred"
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


def test_rebuild_is_only_the_forced_last_resort(monkeypatch):
    database = Database(get_semiring("bool"))
    database.create("R", ["x", "y"], [("a", "b"), ("b", "c")])
    maintained = IncrementalDatalog(TC_PROGRAM, database)

    def explode(*args, **kwargs):
        raise DivergenceError("forced rederive blow-up")

    monkeypatch.setattr(maintained._engine, "delete_edb", explode)
    maintained.remove("R", [("b", "c")])
    assert maintained.last_delete_mode == "rebuild"
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


def test_apply_runs_deletions_before_insertions():
    semiring = get_semiring("tropical")
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 1.0), (("b", "c"), 2.0)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    maintained.apply(
        UpdateBatch(
            insertions={"R": [(("b", "d"), 4.0)]},
            deletions={"R": [("b", "c")]},
        )
    )
    assert maintained.last_delete_mode == "dred"
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


def test_delete_span_reports_mode_and_work():
    from repro.obs import tracing

    database = Database(get_semiring("bool"))
    database.create(
        "R", ["x", "y"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")]
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    with tracing() as sink:
        maintained.remove("R", [("b", "c")])
    (record,) = sink.find("incremental.delete")
    assert record.attributes["predicate"] == "R"
    assert record.attributes["deletes"] == 1
    assert record.attributes["mode"] == "dred"
    assert record.attributes["overdeleted"] >= 1
    assert record.attributes["rederived"] >= 0
    assert record.attributes["idb_rows"] == 6
    assert record.attributes["attained"] is False
    # the span carries exactly what the always-on stats hold
    assert maintained.last_delete_stats == {
        key: record.attributes[key] for key in maintained.last_delete_stats
    }
    assert set(maintained.last_delete_stats) == {
        "mode", "overdeleted", "rederived", "rounds", "idb_rows", "attained"
    }


def test_delete_stats_cover_every_mode(monkeypatch):
    database = Database(get_semiring("tropical"))
    database.create("R", ["x", "y"], [(("a", "b"), 1.0), (("b", "c"), 2.0)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    assert maintained.last_delete_stats is None
    maintained.remove("R", [("x", "y")])
    assert maintained.last_delete_stats == {
        "mode": "noop", "overdeleted": 0, "rederived": 0, "rounds": 0,
        "idb_rows": 3, "attained": False,
    }  # fmt: skip

    def explode(*args, **kwargs):
        raise DivergenceError("forced rederive blow-up")

    monkeypatch.setattr(maintained._engine, "delete_edb", explode)
    maintained.remove("R", [("b", "c")])
    stats = maintained.last_delete_stats
    assert stats["mode"] == "rebuild" and stats["idb_rows"] == 3
    assert not stats["attained"]


@pytest.mark.parametrize("storage", ("row", "columnar"))
def test_check_consistency_audits_indexes_and_positions(storage):
    database = Database(get_semiring("tropical"))
    database.create(
        "R",
        ["x", "y"],
        [(("a", "b"), 1.0), (("b", "c"), 2.0), (("a", "c"), 5.0), (("c", "d"), 1.0)],
        storage=storage,
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database, storage=storage)
    maintained.remove("R", [("b", "c")])  # builds the lazy position maps
    maintained.check_consistency()
    store = maintained._engine.stores["T"]
    assert store.indexes and store._positions is not None
    positions, index = next(iter(store.indexes.items()))
    key, bucket = next(iter(index.items()))

    bucket.append(bucket[0])  # a duplicated entry
    with pytest.raises(DatalogError, match="index"):
        maintained.check_consistency()
    bucket.pop()

    stale = bucket.pop()  # a missing entry ...
    with pytest.raises(DatalogError, match="index"):
        maintained.check_consistency()
    index.setdefault(("nowhere",) * len(positions), []).append(stale)  # ... gone stale
    with pytest.raises(DatalogError, match="index"):
        maintained.check_consistency()
    del index[("nowhere",) * len(positions)]
    bucket.append(stale)
    maintained.check_consistency()

    first = store.rows[0][1]
    store._positions[first] += 1
    with pytest.raises(DatalogError, match="position map"):
        maintained.check_consistency()


def test_cancellation_keeps_maintained_rounds_and_indexes():
    # Regression: a negative insertion that cancels an EDB fact exactly used
    # to rebuild the whole engine, resetting the maintained rounds/indexes.
    semiring = get_semiring("z")
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 2), (("b", "c"), 1)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    engine = maintained._engine
    rounds_before = maintained._rounds
    maintained.insert("R", [(("a", "b"), -2)])  # exact cancellation
    assert maintained._engine is engine
    assert maintained._rounds >= rounds_before  # accumulated, never reset
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()
