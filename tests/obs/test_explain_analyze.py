"""EXPLAIN ANALYZE: golden rendering, cross-checked actuals, API surface.

The golden test pins the full ``render(timings=False)`` output on the
paper's running example (Example 2.1 / Figure 1) over ``N[X]`` -- physical
tree shape, per-node actual rows, hash-join build/probe sizes, and the
semiring-op attribution.  The cross-check tests re-derive those numbers
independently: per-node ``times`` must sum to the global total minus the
breaker's share, and the reported result must be annotation-identical to an
ordinary (unobserved) evaluation.
"""

import json
import pathlib
import re

import pytest

from repro.algebra.ast import Q, QueryError
from repro.obs import explain_analyze, tracing
from repro.obs.explain import ExplainAnalyzeReport
from repro.semirings import NaturalsSemiring, ProvenancePolynomialSemiring
from repro.workloads.paper_instances import section2_database, section2_query

GOLDEN = pathlib.Path(__file__).with_name("golden_explain_analyze.txt")


def _report(semiring=None):
    semiring = semiring if semiring is not None else ProvenancePolynomialSemiring()
    return explain_analyze(section2_query(), section2_database(semiring))


class TestGolden:
    def test_render_matches_golden(self):
        rendered = _report().render(timings=False) + "\n"
        assert rendered == GOLDEN.read_text(encoding="utf-8")

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


class TestCrossChecks:
    def test_result_is_annotation_identical_to_plain_evaluation(self):
        semiring = ProvenancePolynomialSemiring()
        database = section2_database(semiring)
        query = section2_query()
        report = explain_analyze(query, database)
        assert report.result.equal_to(query.evaluate(database))
        assert report.result.equal_to(query.evaluate(database, optimize=True))
        # And the handed-back relation is over the plain semiring.
        assert report.result.semiring is database.semiring

    def test_per_node_times_sum_to_totals(self):
        report = _report()
        per_node_times = sum(stats.ops.times for _, stats, _ in report.nodes())
        assert per_node_times + report.breaker_ops["times"] == report.totals["times"]

    def test_breaker_accounts_for_all_plus_and_is_zero(self):
        # The pipelined engine has one pipeline breaker: every + and every
        # support check happens in the final batched accumulation.
        report = _report()
        assert report.breaker_ops["plus"] == report.totals["plus"]
        assert report.breaker_ops["is_zero"] == report.totals["is_zero"]
        assert all(stats.ops.plus == 0 for _, stats, _ in report.nodes())

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

    def test_join_build_probe_sizes(self):
        report = _report()
        joins = [row for row in report.table() if row["operator"].startswith("HashJoin")]
        assert len(joins) == 2
        for row in joins:
            assert row["build_size"] == 3 and row["probe_size"] == 3

    def test_table_is_json_serializable(self):
        payload = json.dumps(_report().table())
        assert "UnionAll" in payload

    def test_wall_time_positive_and_node_inclusive(self):
        report = _report()
        root_stats = report.observer.stats(report.root)
        assert report.wall > 0.0
        assert 0.0 < root_stats.wall <= report.wall


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

    def test_unoptimized_report_has_no_logical_header(self):
        database = section2_database(NaturalsSemiring())
        report = explain_analyze(section2_query(), database, optimize=False)
        rendered = report.render(timings=False)
        assert report.optimization is None
        assert "logical plan:" not in rendered
        assert report.result.equal_to(section2_query().evaluate(database))

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
