"""Spans at every engine boundary: planner, executor, kernels, datalog, views.

Each test runs a real workload under ``tracing()`` and asserts that the
expected spans came out with the expected nesting and attributes -- i.e.
that the instrumentation sites wired through the stack actually fire.  A
final test pins the zero-span guarantee: with tracing off, the same
workloads emit nothing.
"""

from repro.algebra.ast import Q
from repro.circuits import CircuitSemiring
from repro.datalog import evaluate_program
from repro.incremental import IncrementalDatalog, MaterializedView, UpdateBatch
from repro.obs import tracing
from repro.obs.metrics import compilation, consing
from repro.obs.trace import enabled
from repro.planner import optimize
from repro.semirings import BooleanSemiring, NaturalsSemiring
from repro.workloads import random_graph_database, transitive_closure_program
from repro.workloads.paper_instances import (
    figure4_probabilistic_database,
    section2_database,
    section2_query,
)


class TestEngineSpans:
    def test_pipelined_execution_emits_compile_and_execute(self):
        database = section2_database(NaturalsSemiring())
        query = section2_query()
        with tracing() as sink:
            result = query.evaluate(database, optimize=True, executor="pipelined")
        vectorized = sink.find("engine.vectorized")
        if vectorized:
            # Columnar default storage: the whole-column engine ran the
            # plan instead of the row pipeline; it carries the same
            # execution attributes on its own span.
            (execute_span,) = vectorized
        else:
            assert len(sink.find("engine.compile")) == 1
            (execute_span,) = sink.find("engine.execute")
        assert execute_span.attributes["semiring"] == "N"
        assert execute_span.attributes["out_rows"] == len(result)

    def test_view_build_emits_kernel_spans(self):
        # The relation-level kernels back the materialized-view operator
        # tree under the pipelined executor; building a view over the
        # example query runs both joins.
        database = section2_database(NaturalsSemiring())
        with tracing() as sink:
            MaterializedView(section2_query(), database, executor="pipelined")
        joins = sink.find("kernel.join")
        projects = sink.find("kernel.project")
        assert len(joins) == 2  # the example query joins R with itself twice
        for record in joins:
            assert record.attributes["left_rows"] == 3
            assert record.attributes["right_rows"] == 3
            assert record.attributes["out_rows"] == 5
        assert projects  # projections of the two branches
        for record in projects:
            assert record.attributes["in_rows"] >= record.attributes["out_rows"] > 0


class TestPlannerSpans:
    def test_optimize_emits_rewrite_and_reorder(self):
        database = section2_database(NaturalsSemiring())
        with tracing() as sink:
            optimize(section2_query(), database)
        (rewrite,) = sink.find("planner.rewrite")
        assert rewrite.attributes["rules"] > 0  # pushdowns fire on this query
        assert len(sink.find("planner.reorder")) == 1


class TestDatalogSpans:
    def test_seminaive_rounds_are_spanned(self):
        database = random_graph_database(
            BooleanSemiring(), nodes=8, edge_probability=0.35, seed=3
        )
        program = transitive_closure_program()
        with tracing() as sink:
            result = evaluate_program(program, database, engine="seminaive")
        (seed,) = sink.find("datalog.seed")
        rounds = sink.find("datalog.round")
        assert seed.attributes["mode"] == "annotate"
        assert seed.attributes["delta_rows"] > 0
        # Seed counts as round 1; the drain rounds carry increasing numbers
        # and per-round delta sizes.
        assert [r.attributes["round"] for r in rounds] == list(
            range(2, len(rounds) + 2)
        )
        assert 1 + len(rounds) == result.iterations
        assert all(r.attributes["delta_rows"] > 0 for r in rounds[:-1])


class TestViewSpans:
    def test_materialized_view_build_and_apply(self):
        database = section2_database(NaturalsSemiring())
        view_query = Q.relation("R").project("a", "c")
        with tracing() as sink:
            view = MaterializedView(view_query, database)
            view.apply(UpdateBatch(insertions={"R": [("x", "y", "z")]}))
        (build,) = sink.find("view.build")
        (apply_span,) = sink.find("view.apply")
        assert build.attributes["rows"] == 3
        assert apply_span.attributes["mode"] == "incremental"
        assert apply_span.attributes["changed"] == 1
        assert ("x", "z") in {(t["a"], t["c"]) for t in view.relation}

    def test_incremental_datalog_insert(self):
        database = random_graph_database(
            BooleanSemiring(), nodes=6, edge_probability=0.3, seed=7
        )
        maintained = IncrementalDatalog(transitive_closure_program(), database)
        with tracing() as sink:
            maintained.insert("R", [("n0", "n5")])
        (record,) = sink.find("incremental.insert")
        assert record.attributes["predicate"] == "R"
        assert record.attributes["updates"] == 1
        assert record.attributes["rounds"] >= 1


class TestConsingMetrics:
    def test_tracing_scope_counts_circuit_consing(self):
        semiring = CircuitSemiring()
        p, r = semiring.coerce("p"), semiring.coerce("r")
        with tracing():
            expr = semiring.add(semiring.mul(p, r), semiring.one())
            first = consing.snapshot()
            # Rebuilding the same expression (while the first is alive --
            # the intern table holds nodes weakly) is served entirely from
            # the table: only hits move, and the same node comes back.
            rebuilt = semiring.add(semiring.mul(p, r), semiring.one())
            assert rebuilt is expr
            assert consing.misses == first["misses"]
            assert consing.hits > first["hits"]
            assert 0.0 < consing.hit_rate <= 1.0

    def test_circuit_query_evaluation_shares_nodes(self):
        database = section2_database(CircuitSemiring())
        with tracing():
            section2_query().evaluate(database)
            snapshot = consing.snapshot()
        assert snapshot["hits"] + snapshot["misses"] > 0
        assert not consing.enabled  # scope exit restored the gate


class TestCompileSpans:
    def test_a_query_compiles_its_answers_as_one_batch(self):
        pdb = figure4_probabilistic_database()
        before = compilation.snapshot()
        with tracing() as sink:
            answer = pdb.query_probabilities(section2_query())
        (record,) = sink.find("circuit.compile")  # one span per batch, not per tuple
        delta = compilation.delta(before)
        assert record.attributes["roots"] == len(answer) == delta["compiles"]
        assert delta["batches"] == 1
        assert record.attributes["input_nodes"] == delta["input_nodes"] > 0
        assert record.attributes["output_nodes"] == delta["output_nodes"] > 0
        assert record.attributes["cache_misses"] == delta["cache_misses"] > 0

    def test_a_single_compile_is_a_batch_of_one(self):
        pdb = figure4_probabilistic_database()
        before = compilation.snapshot()
        with tracing() as sink:
            pdb.tuple_probability("R", ("a", "b", "c"))
        (record,) = sink.find("circuit.compile")
        assert record.attributes["roots"] == 1
        delta = compilation.delta(before)
        assert (delta["batches"], delta["compiles"]) == (1, 1)


class TestZeroSpanWhenDisabled:
    def test_workloads_emit_nothing_with_tracing_off(self):
        from repro.obs.trace import _STATE

        database = section2_database(NaturalsSemiring())
        probe_sink_records = []

        class Probe:
            def emit(self, record):
                probe_sink_records.append(record)

        # Attach a sink but leave tracing disabled: nothing may be emitted.
        _STATE.sinks.append(Probe())
        assert not enabled()
        section2_query().evaluate(database, optimize=True, executor="pipelined")
        evaluate_program(
            transitive_closure_program(),
            random_graph_database(
                BooleanSemiring(), nodes=6, edge_probability=0.3, seed=3
            ),
            engine="seminaive",
        )
        assert probe_sink_records == []
