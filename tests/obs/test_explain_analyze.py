"""EXPLAIN ANALYZE: golden renderings, cross-checked actuals, API surface.

The golden tests pin the full ``render(timings=False)`` output twice.  The
paper's running example (Example 2.1 / Figure 1) over ``N[X]`` has three
tuples, below ``PLANNED_INPUT_ROWS``, so, as in ``Query.evaluate``, the
query runs as written on the row pipeline and the report has no
logical-plan header.  The same query over ``N`` on 40 tuples is planned and
answered by the column kernels, whose report shows the logical plan's nodes.
The cross-check tests re-derive those numbers independently on both inputs:
per-node counts plus the breaker must equal the global totals, a join's
build/probe sizes must be its inputs' rows, and the reported result must be
annotation-identical to an ordinary (unobserved) evaluation.  Explain must
also take the executor ``evaluate`` takes, and say why the column kernels
declined when they did.
"""

import json
import pathlib
import re
from unittest import mock

import pytest

from strategies import row_loop
from tests.conftest import ALL_SEMIRINGS, sample_elements

from repro.algebra.ast import PLANNED_INPUT_ROWS, Q, QueryError
from repro.circuits import CircuitSemiring
from repro.engine import vectorized
from repro.obs import explain_analyze, instrument, tracing
from repro.obs.explain import ExplainAnalyzeReport
from repro.semirings import NaturalsSemiring, ProvenancePolynomialSemiring
from repro.workloads.paper_instances import section2_database, section2_query

GOLDEN = pathlib.Path(__file__).with_name("golden_explain_analyze.txt")
GOLDEN_COLUMNS = pathlib.Path(__file__).with_name("golden_explain_analyze_columns.txt")

needs_numpy = pytest.mark.skipif(
    not vectorized.numpy_available(), reason="the column kernels need numpy"
)


def _report(semiring=None):
    semiring = semiring if semiring is not None else ProvenancePolynomialSemiring()
    return explain_analyze(section2_query(), section2_database(semiring))


def _grown_database(semiring, rows, annotation=None):
    """The Section 2 relation grown to ``rows`` tuples.

    Added tuples are annotated with ``annotation`` when given, else by
    cycling through the semiring's non-zero sample elements (a fresh
    variable per tuple over circuits).
    """
    database = section2_database(semiring)
    pool = [a for a in sample_elements(semiring) if not semiring.is_zero(a)]
    relation = database.relation("R")
    for i in range(3, rows):
        if annotation is not None:
            value = annotation
        elif isinstance(semiring, CircuitSemiring):
            value = semiring.var(f"t{i}")
        else:
            value = pool[i % len(pool)]
        relation.add((f"a{i % 7}", f"b{i % 5}", f"c{i}"), value)
    return database


def _ops_add_up(report):
    """Per-node counts + breaker + an abandoned column attempt == totals."""
    for name, total in report.totals.items():
        per_node = sum(getattr(stats.ops, name) for _, stats, _ in report.nodes())
        assert per_node + report.breaker_ops[name] + report.declined_ops[name] == total, name


class TestGolden:
    def test_render_matches_golden(self):
        rendered = _report().render(timings=False) + "\n"
        assert rendered == GOLDEN.read_text(encoding="utf-8")

    @needs_numpy
    def test_column_render_matches_golden(self):
        report = explain_analyze(section2_query(), _grown_database(NaturalsSemiring(), 40))
        rendered = report.render(timings=False) + "\n"
        assert rendered == GOLDEN_COLUMNS.read_text(encoding="utf-8")

    @needs_numpy
    def test_column_cross_product_has_no_build_side(self):
        # The column kernels expand a join on no shared attribute as a full
        # repeat/tile; no input is built, whichever is smaller.
        query = Q.relation("R").project("a").join(Q.relation("R").project("c"))
        report = explain_analyze(query, _grown_database(NaturalsSemiring(), 40))
        assert report.executor == "columns"
        (join,) = [row for row in report.table() if row["operator"].startswith("Join ")]
        assert join["operator"] == "Join on (⨯)"
        assert "build_size" not in join and "probe_size" not in join
        assert "build=" not in report.render(timings=False)

    def test_render_is_deterministic_across_runs(self):
        assert _report().render(timings=False) == _report().render(timings=False)

    def test_timings_only_add_time_fields(self):
        report = _report()
        with_timings = report.render(timings=True)
        without = report.render(timings=False)
        assert "time=" in with_timings and "wall=" in with_timings
        assert "time=" not in without and "wall=" not in without
        stripped = re.sub(r" (?:time|wall)=[0-9.]+ms", "", with_timings)
        assert stripped == without

    def test_actual_rows_against_hand_computed_values(self):
        # Example 2.1: q joins R with itself twice and unions the branches.
        # Both join branches emit 5 rows, the union streams all 10, and the
        # breaker collapses them onto the 5 distinct result tuples.
        report = _report()
        rows_by_operator = [
            (row["operator"], row["rows"]) for row in report.table()
        ]
        assert rows_by_operator == [
            ("UnionAll", 10),
            ("HashJoin on (b) build=left", 5),
            ("Scan R", 3),
            ("Scan R", 3),
            ("HashJoin on (c) build=left", 5),
            ("Scan R", 3),
            ("Scan R", 3),
        ]
        assert len(report.result) == 5

    def test_row_pipeline_adds_only_at_the_breaker(self):
        # The row pipeline has one pipeline breaker: every + and every
        # support check happens in the final batched accumulation.
        report = _report()
        assert report.breaker_ops["plus"] == report.totals["plus"]
        assert report.breaker_ops["is_zero"] == report.totals["is_zero"]
        assert all(stats.ops.plus == 0 for _, stats, _ in report.nodes())


@pytest.fixture(
    params=[
        pytest.param((ProvenancePolynomialSemiring, 3), id="paper-rows"),
        pytest.param((NaturalsSemiring, 40), id="planned-40"),
    ]
)
def observed(request):
    """``(query, database, report)`` on the paper's 3 tuples and on 40."""
    semiring, rows = request.param
    query, database = section2_query(), _grown_database(semiring(), rows)
    return query, database, explain_analyze(query, database)


class TestCrossChecks:
    def test_result_is_annotation_identical_to_plain_evaluation(self, observed):
        query, database, report = observed
        assert report.result.equal_to(query.evaluate(database))
        assert report.result.equal_to(query._execute(database))
        # And the handed-back relation is over the plain semiring.
        assert report.result.semiring is database.semiring

    def test_per_node_ops_plus_breaker_equal_totals(self, observed):
        _ops_add_up(observed[2])

    def test_join_build_probe_sizes_are_the_inputs_rows(self, observed):
        table = observed[2].table()
        joins = [i for i, row in enumerate(table) if "build_size" in row]
        assert len(joins) == 2
        for i in joins:
            depth = table[i]["depth"]
            inputs = []
            for row in table[i + 1:]:
                if row["depth"] <= depth:
                    break
                if row["depth"] == depth + 1:
                    inputs.append(row["rows"])
            if not table[i]["operator"].endswith("build=left"):
                inputs.reverse()
            assert [table[i]["build_size"], table[i]["probe_size"]] == inputs

    def test_table_is_json_serializable(self, observed):
        table = observed[2].table()
        assert json.loads(json.dumps(table)) == table

    def test_wall_time_positive_and_node_inclusive(self, observed):
        report = observed[2]
        root_stats = report.nodes()[0][1]
        assert report.root is report.nodes()[0][0]
        assert report.wall > 0.0
        assert 0.0 < root_stats.wall <= report.wall


def _traced_path(run):
    """``(run(), the executor that answered)``, spying on the column kernels."""
    answered = []
    real = vectorized.try_execute

    def spy(*args):
        result = real(*args)
        answered.append(result is not None)
        return result

    with mock.patch.object(vectorized, "try_execute", spy):
        value = run()
    return value, "columns" if any(answered) else "rows"


#: Every shipped semiring, circuits and an instrumented N included.
EXECUTOR_SEMIRINGS = [*ALL_SEMIRINGS, CircuitSemiring(), instrument(NaturalsSemiring())]


@pytest.mark.parametrize("rows", [PLANNED_INPUT_ROWS - 1, PLANNED_INPUT_ROWS])
@pytest.mark.parametrize(
    "semiring",
    EXECUTOR_SEMIRINGS,
    ids=[f"{s.name}{'-instrumented' if hasattr(s, 'ops') else ''}" for s in EXECUTOR_SEMIRINGS],
)
class TestSameExecutorAsEvaluate:
    def test_explain_takes_the_executor_evaluate_takes(self, semiring, rows):
        query, database = section2_query(), _grown_database(semiring, rows)
        _, evaluated = _traced_path(lambda: query.evaluate(database))
        report, explained = _traced_path(lambda: explain_analyze(query, database))
        # Every semiring runs the column kernels once the query is planned.
        columns = rows >= PLANNED_INPUT_ROWS and vectorized.numpy_available()
        assert evaluated == ("columns" if columns else "rows")
        assert explained == evaluated
        assert report.result.equal_to(query._execute(database))

    def test_report_names_the_executor(self, semiring, rows):
        query, database = section2_query(), _grown_database(semiring, rows)
        report, explained = _traced_path(lambda: explain_analyze(query, database))
        assert report.executor == explained
        first = report.render(timings=False).splitlines()[0]
        assert first.startswith(f"executor: {explained}")
        assert ("columns declined:" in first) is (report.declined is not None)
        _ops_add_up(report)


class TestDeclineReasons:
    """A planned query the column kernels decline runs on rows and says why."""

    def _declined(self, query, database):
        report = explain_analyze(query, database)
        assert query.uses_planner(database)
        assert report.executor == "rows"
        assert report.result.equal_to(query._execute(database))
        _ops_add_up(report)
        return report

    def test_no_numpy(self):
        database = _grown_database(NaturalsSemiring(), 40)
        with row_loop():
            report = self._declined(section2_query(), database)
        assert report.declined == "no numpy"
        assert report.render().splitlines()[0] == (
            "executor: rows (columns declined: no numpy)"
        )

    @needs_numpy
    def test_opaque_predicate_is_an_unsupported_plan_shape(self):
        query = Q.relation("R").select(lambda row: row["a"] != "a1").project("a", "c")
        report = self._declined(query, _grown_database(NaturalsSemiring(), 40))
        assert report.declined == "unsupported plan shape"
        assert "filter: opaque:" in report.render(timings=False)

    @needs_numpy
    def test_int64_guard_is_an_instance_guard(self):
        database = _grown_database(NaturalsSemiring(), 40, annotation=2**62)
        report = self._declined(section2_query(), database)
        assert report.declined == "instance guard"

    @needs_numpy
    def test_an_abandoned_attempt_stays_in_the_totals(self):
        """The column kernels add up the pushed-down projections, then trip
        the guard at the join: what they spent is counted (as an instrumented
        ``evaluate`` counts it) and shown on the executor line, not in the
        breaker."""
        query = section2_query()
        report = self._declined(query, _grown_database(NaturalsSemiring(), 40, annotation=2**31))
        assert report.declined == "instance guard"
        assert report.declined_ops["plus"] > 0
        spent = " ".join(f"{name}={count}" for name, count in report.declined_ops.items())
        assert report.render().splitlines()[0] == (
            f"executor: rows (columns declined: instance guard; spent {spent})"
        )
        wrapped = instrument(NaturalsSemiring())
        database = _grown_database(wrapped, 40, annotation=2**31)
        wrapped.ops.reset()  # building the relation tested each addition
        query.evaluate(database)
        assert wrapped.ops.snapshot() == report.totals


@needs_numpy
@pytest.mark.parametrize(
    "semiring",
    EXECUTOR_SEMIRINGS,
    ids=[f"{s.name}{'-instrumented' if hasattr(s, 'ops') else ''}" for s in EXECUTOR_SEMIRINGS],
)
def test_analyze_encodes_the_scanned_relation_inside_the_observed_run(semiring):
    """Planning reads no relation data, so a relation whose encoding was just
    dropped is still unencoded when the observed run starts, and its Scan
    nodes time the encoding ``evaluate`` pays.  The run builds it once.
    Every semiring scans through the kernels, on a numeric carrier or an
    object-array one, so this holds under each."""
    from repro.engine import compile as engine_compile

    query, database = section2_query(), _grown_database(semiring, PLANNED_INPUT_ROWS)
    assert query.uses_planner(database)
    relations = [database.relation(name) for name in sorted(query.relation_names())]
    query.evaluate(database)
    for relation in relations:
        relation._annotations  # handing the store out drops the encoding
    entered = []
    execute, encode = engine_compile.execute, vectorized._encode_column
    encoded = []

    def observed_execute(*args):
        entered.append([relation._scan_cache for relation in relations])
        return execute(*args)

    def counted_encode(values):
        encoded.append(len(values))
        return encode(values)

    with mock.patch.object(engine_compile, "execute", observed_execute), \
            mock.patch.object(vectorized, "_encode_column", counted_encode):
        report = query.explain(database, analyze=True)
    assert report.executor == "columns"
    assert entered == [[None] * len(relations)]
    # One encoding per relation, one column per attribute.
    assert len(encoded) == sum(len(relation.schema.attributes) for relation in relations)
    assert all(relation._scan_cache is not None for relation in relations)


class TestApiSurface:
    def test_query_explain_analyze_method(self):
        database = section2_database(NaturalsSemiring())
        report = section2_query().explain_analyze(database)
        assert isinstance(report, ExplainAnalyzeReport)
        assert report.totals["times"] > 0

    def test_query_explain_dispatches_on_analyze(self):
        database = section2_database(NaturalsSemiring())
        query = section2_query()
        logical = query.explain(database)
        analyzed = query.explain(database, analyze=True)
        assert not isinstance(logical, ExplainAnalyzeReport)
        assert isinstance(analyzed, ExplainAnalyzeReport)

    def test_explain_analyze_requires_database(self):
        with pytest.raises(QueryError):
            section2_query().explain(analyze=True)

    def test_logical_header_only_when_evaluate_plans(self):
        """Below the constant (the paper's 3 rows up to 31) nothing is planned."""
        query, database = section2_query(), section2_database(NaturalsSemiring())
        relation = database.relation("R")
        for i in range(3, PLANNED_INPUT_ROWS + 1):
            report = explain_analyze(query, database)
            planned = i >= PLANNED_INPUT_ROWS
            assert query.uses_planner(database) is (report.optimization is not None) is planned
            assert ("logical plan:" in report.render(timings=False)) is planned
            assert report.result.equal_to(query._execute(database))
            relation.add((f"a{i % 7}", f"b{i % 5}", f"c{i}"), 1)

    def test_selection_filters_render_deterministically(self):
        database = section2_database(NaturalsSemiring())
        query = (
            Q.relation("R")
            .select(lambda row: row["a"] != "d")
            .project("a", "c")
        )
        report = explain_analyze(query, database)
        rendered = report.render(timings=False)
        assert "filter:" in rendered
        assert "0x" not in rendered  # no memory addresses anywhere
        assert report.result.equal_to(query.evaluate(database))

    def test_compile_line_reports_batches_and_roots(self):
        from repro.circuits import CircuitCompiler, prod_node, sum_node, var
        from repro.obs.metrics import compilation

        report = _report()
        assert "compile:" not in report.render(timings=False)  # nothing compiled
        before = compilation.snapshot()
        shared = prod_node(var("p"), var("q"))
        compiler = CircuitCompiler()
        compiler.compile_many({1: shared, 2: sum_node(shared, var("r"))})
        compiler.compile(var("r"))
        report.compile_stats = compilation.delta(before)
        (line,) = [
            line for line in report.render(timings=False).splitlines()
            if line.startswith("compile:")
        ]
        # Multi-rooted sizes: p, q, r, p·q and the sum once, then r again.
        assert line.startswith("compile: batches=2 roots=3 nodes_in=6 nodes_out=")
        assert "cache_hit_rate=" in line

    def test_emits_span_when_tracing(self):
        database = section2_database(NaturalsSemiring())
        with tracing() as sink:
            explain_analyze(section2_query(), database)
        (record,) = sink.find("explain.analyze")
        assert record.attributes["semiring"] == "N"
