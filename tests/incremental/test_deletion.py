"""Incremental deletion: DRed and provenance-assisted paths.

The maintained :class:`IncrementalDatalog` must agree with from-scratch
semi-naive evaluation *annotation-for-annotation* after every step of a
random insert/delete update stream, over every supported semiring and for
five program shapes (linear and quadratic
transitive closure, a 3-atom rule body, a mutually recursive pair, constants
and repeated variables in heads and bodies) -- and
:meth:`check_consistency` must hold throughout (the maintained stores,
binding indexes and database supports all agree).  The exact leg draws exactly representable
annotations and compares with ``==``; a second leg draws non-dyadic floats,
whose products depend on the association order, and compares within a
relative 1e-9.

Alongside the differential harness, targeted tests pin which deletion
strategy engages (``last_delete_mode``): ``"dred"`` for idempotent and
collect-mode semirings (rings and circuits included), ``"provenance"`` when
every deleted fact is tagged with a fresh ``N[X]`` / ``Z[X]`` variable no
surviving fact mentions, ``"noop"`` for absent tuples, and ``"rebuild"`` only
as the forced last resort.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import annotation_for, annotations_close, inexact_annotation_for, row_loop

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
#: variants), recursion through a second predicate, and the head bindings a
#: head-driven rederive plan must check (head constants, repeated head
#: variables) next to body constants.
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
    "constants": """
        T(x, y) :- R(x, y).
        T(x, z) :- R(x, y), T(y, z).
        S(x, x) :- T(x, y), R(y, 'a').
        C('b', y) :- R(y, y).
        C(x, y) :- T(x, y), T(y, x), R(x, 'c').
    """,
}

#: B, N, Tropical, Fuzzy, Viterbi, PosBool[X], Z, Z[X], N[X] and circuits --
#: both engine regimes, the attained-support bound and the plain over-delete,
#: both rings, and both provenance representations.
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

#: The (program, semiring) streams maintained on the array state when numpy
#: is present: every shape but the three-atom body and the constants (both
#: decline the array loop), over the idempotent vector semirings.
ARRAY_STREAMS = tuple(
    (program, semiring_name)
    for program in sorted(PROGRAMS)
    if program not in ("three-atom", "constants")
    for semiring_name in ("bool",) + FLOAT_SEMIRING_NAMES
)

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
    # Fresh on the row loop: the maintained engine runs the array loop
    # wherever one exists, so this is also the array-vs-row differential.
    with row_loop():
        fresh = evaluate_program(
            maintained.program, database, on_divergence="skip"
        )
    assert maintained.result.divergent_atoms == fresh.divergent_atoms
    got, want = _normalize(maintained.result.annotations), _normalize(fresh.annotations)
    if same is None:
        assert got == want
    else:
        assert same(got, want), (got, want)


def _run_stream(program, semiring_name, data, annotate, same=None):
    """A random insert/delete stream, checked against fresh evaluation per step."""
    semiring = get_semiring(semiring_name)
    database = Database(semiring)
    database.create("R", ["x", "y"])
    maintained = IncrementalDatalog(PROGRAMS[program], database, on_divergence="skip")
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
            assert maintained.last_delete_mode in ("dred", "provenance")
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
    # Maintenance resumes on the array state wherever one exists: the
    # ARRAY_STREAMS shapes, over the idempotent vector semirings.
    on_arrays = (
        vectorized.vector_ops_for(semiring) is not None
        and (program, semiring_name) in ARRAY_STREAMS
    )
    assert maintained._engine.round_path == ("array" if on_arrays else "rows")


@pytest.mark.parametrize("semiring_name", DELETION_SEMIRING_NAMES)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
@DELETION_SETTINGS
@given(data=st.data())
def test_mixed_streams_match_fresh_evaluation(program, semiring_name, data):
    _run_stream(program, semiring_name, data, annotation_for)


@pytest.mark.parametrize("semiring_name", FLOAT_SEMIRING_NAMES)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
@DELETION_SETTINGS
@given(data=st.data())
def test_inexact_float_streams_match_fresh_within_tolerance(program, semiring_name, data):
    # Non-dyadic annotations: a maintained value and a freshly evaluated one
    # may associate the same product differently, so equality is relative
    # (1e-9, the slack ``may_attain`` dooms by) -- but supports must agree.
    _run_stream(
        program,
        semiring_name,
        data,
        lambda semiring, index, draw: inexact_annotation_for(semiring, draw),
        same=annotations_close,
    )


@pytest.mark.parametrize("program, semiring_name", ARRAY_STREAMS)
@DELETION_SETTINGS
@given(data=st.data())
def test_row_loop_streams_match_fresh_evaluation(program, semiring_name, data):
    # The streams above maintain these on the array state; without numpy
    # they run the row loop, which this leg runs with numpy present.
    with row_loop():
        _run_stream(program, semiring_name, data, annotation_for)


@pytest.mark.parametrize("semiring_name", ("bool", "bag"))
def test_removing_an_absent_fact_is_a_noop(semiring_name):
    semiring = get_semiring(semiring_name)
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 1)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
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


#: ``(overdeleted, rederived, rounds)`` of each single-edge removal in
#: ``test_dred_work_is_pinned_on_a_dense_graph``: DRed's work, not only its
#: answers, must stay put when the way it fires its plans changes.
DRED_WORK = {
    "tropical": [
        (1, 1, 3), (58, 58, 7), (2, 2, 3), (71, 71, 9),
        (141, 132, 10), (9, 9, 3), (94, 45, 9), (5, 5, 4),
    ],
    "bool": [
        (2304, 287, 9), (2304, 286, 9), (2304, 285, 9), (2304, 284, 9),
        (2304, 283, 9), (2304, 282, 9), (2304, 281, 9), (2256, 280, 10),
    ],
    "fuzzy": [
        (1756, 749, 26), (48, 1, 10), (1744, 721, 26), (48, 1, 10),
        (0, 0, 1), (667, 216, 24), (95, 1, 10), (604, 132, 21),
    ],
    "viterbi": [
        (92, 92, 10), (0, 0, 1), (79, 78, 9), (2, 2, 5),
        (0, 0, 1), (79, 78, 8), (48, 0, 2), (9, 9, 6),
    ],
}  # fmt: skip


@pytest.mark.parametrize("semiring_name", sorted(DRED_WORK))
def test_dred_work_is_pinned_on_a_dense_graph(semiring_name):
    edges = _regular_graph()
    database = Database(get_semiring(semiring_name))
    if semiring_name == "bool":
        database.create("R", ["x", "y"], list(edges))
    else:
        # Fuzzy and Viterbi need costs in [0, 1].
        scale = 1.0 if semiring_name == "tropical" else 10.0
        database.create(
            "R", ["x", "y"], [(edge, cost / scale) for edge, cost in edges.items()]
        )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    work = []
    for victim in sorted(edges)[17:25]:
        maintained.remove("R", [victim])
        stats = maintained.last_delete_stats
        assert stats["mode"] == "dred"
        work.append((stats["overdeleted"], stats["rederived"], stats["rounds"]))
    assert work == DRED_WORK[semiring_name]
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


def test_ring_deletion_cancels_through_negative_deltas():
    semiring = get_semiring("z")
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 2), (("b", "c"), -3)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    engine = maintained._engine
    maintained.remove("R", [("a", "b")])
    assert maintained.last_delete_mode == "dred"
    assert maintained._engine is engine
    assert ("a", "b") not in database.relation("R")
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


@pytest.mark.parametrize(
    "semiring_name, mode",
    (("nx", "provenance"), ("circuit", "dred")),
    ids=("nx", "circuit"),
)
def test_provenance_assisted_deletion_patches_the_cached_result(semiring_name, mode):
    """N[X] patches the cached result; circuits re-solve the pruned grounding."""
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
    assert maintained.last_delete_mode == mode
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


def test_check_consistency_audits_indexes_and_positions():
    database = Database(get_semiring("tropical"))
    database.create(
        "R",
        ["x", "y"],
        [(("a", "b"), 1.0), (("b", "c"), 2.0), (("a", "c"), 5.0), (("c", "d"), 1.0)],
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
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

    first = store.rows[0]
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
