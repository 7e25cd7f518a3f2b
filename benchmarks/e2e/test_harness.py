"""Pure-logic tests of the benchmark harness: no workload is run.

Collected by the repository's tier-1 ``pytest`` run; the whole file takes
well under a second.
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import KINDS  # noqa: E402

# -- the percentile rule and its sample count ---------------------------------


def test_percentile_is_nearest_rank_with_samples_beyond():
    values = list(range(1, 101))  # 1..100
    assert harness.percentile(values, 0.5) == (50, 50)
    assert harness.percentile(values, 0.9) == (90, 10)  # >= 10 beyond at n = 100
    assert harness.percentile([7.0], 0.9) == (7.0, 0)
    assert harness.percentile([3, 1, 2], 0.5) == (2, 1)
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_percentiles_fall_mid_cluster_when_the_cheapest_kind_runs_twice():
    # four kinds, 5 ops/pass, 20 passes; every cluster is a ramp of 20 samples
    def cluster(base):
        return [base + i / 100 for i in range(20)]

    latencies = cluster(1) + cluster(1) + cluster(5) + cluster(9) + cluster(20)
    assert harness.percentile(latencies, 0.5)[0] == pytest.approx(5.09)  # 10th of kind 2's 20
    assert harness.percentile(latencies, 0.9)[0] == pytest.approx(20.09)  # 10th of kind 4's 20
    # once each, the median is the top of kind 2's cluster: one sample from kind 3
    once_each = cluster(1) + cluster(5) + cluster(9) + cluster(20)
    assert harness.percentile(once_each, 0.5)[0] == pytest.approx(5.19)


# -- speed normalisation ------------------------------------------------------------


REFERENCE = (harness.INTERPRETER_REF_MS / 1e3, harness.MEMORY_REF_MS / 1e3)


def test_speed_factor_arithmetic():
    interpreter, memory = REFERENCE
    for share in (0.0, 0.3, 1.0):
        assert harness.speed_factor(REFERENCE, REFERENCE, share) == pytest.approx(1.0)
    # a box twice as slow on both kernels halves every duration
    slow = (2 * interpreter, 2 * memory)
    assert harness.speed_factor(slow, slow, 0.3) == pytest.approx(0.5)
    assert harness.speed_factor(REFERENCE, (3 * interpreter, 3 * memory), 0.3) == pytest.approx(0.5)
    # only the memory kernel slowed: an interpreter-bound workload is untouched,
    # a memory-bound one is scaled in full, a mixed one in proportion
    congested = (interpreter, 2 * memory)
    assert harness.speed_factor(congested, congested, 0.0) == pytest.approx(1.0)
    assert harness.speed_factor(congested, congested, 1.0) == pytest.approx(0.5)
    assert harness.speed_factor(congested, congested, 0.5) == pytest.approx(1 / 1.5)


class FakeWorkload:
    plan = ("fast", "boom", "slow")
    memory_share = 0.25

    def prepare(self, state, kind, number, slot):
        return (number, slot)

    def run(self, state, kind, args):
        if kind == "boom":
            raise RuntimeError("op failed")
        state.append((kind, args))
        return kind


def test_a_raising_op_is_caught_and_counted_not_fatal():
    state = []
    records = harness.run_pass(FakeWorkload(), state, 3)
    assert [r.kind for r in records] == ["fast", "boom", "slow"]
    assert records[1].error is not None and "op failed" in records[1].error
    assert records[0].error is None and records[2].result == "slow"
    assert state == [("fast", (3, 0)), ("slow", (3, 2))]  # the pass went on


def test_timed_passes_interleave_traced_and_untraced(monkeypatch):
    monkeypatch.setattr(harness, "calibrate", lambda: REFERENCE)
    ticks = iter(range(1000))
    switched = []

    def trace(on):
        switched.append(on)
        return None

    samples = harness.timed_passes(
        FakeWorkload(), [], seconds=0, min_passes=4, trace=trace, clock=lambda: next(ticks)
    )
    assert [s.traced for s in samples] == [False, True, False, True]
    assert [s.number for s in samples] == [1, 2, 3, 4]
    assert switched == [True, False, True, False]
    assert all(s.factor == pytest.approx(1.0) for s in samples)
    summary = harness.end_to_end(samples)
    assert summary["timed_ops"] == 12 and summary["passes"] == 4


# -- self time from nested spans ---------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,7] > b [2,4]; root > c [8,9]
    recorded = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 7.0, 0, 0, None],
        ["b", 2.0, 4.0, 1, 0, None],
        ["c", 8.0, 9.0, 0, 0, None],
    ]
    assert spans.self_times(recorded) == [3.0, 4.0, 2.0, 1.0]
    totals = spans.self_time_by_name(recorded)
    assert sum(totals.values()) == pytest.approx(10.0)  # adds up to the root
    halved = spans.self_time_by_name(recorded, lambda span: 0.5, lambda span: span[0] != "c")
    assert halved == {"root": 1.5, "a": 2.0, "b": 1.0}


def test_recorder_wrappers_nest_and_measure():
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda x: None if x else [1, 2], lambda args, result: result is None)
    outer = recorder.wrap("outer", lambda: (inner(0), inner(1)))
    recorder.op = 7
    outer()
    names = [s[spans.NAME] for s in recorder.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[spans.PARENT] for s in recorder.spans] == [-1, 0, 0]
    assert [s[spans.MEASURE] for s in recorder.spans] == [None, False, True]
    assert all(s[spans.OP] == 7 for s in recorder.spans) and recorder.stack == []


def test_patch_tolerates_missing_boundaries_and_rebinds_aliases():
    module = types.ModuleType("fake_program")
    module.work = lambda: "done"
    alias = types.ModuleType("fake_importer")
    alias.work = module.work  # ``from fake_program import work``

    class Owner:
        @classmethod
        def parse(cls, text):
            return text.upper()

    def resolve(dotted):
        if dotted == "fake_program":
            return module
        if dotted == "Owner":
            return Owner
        raise ImportError(dotted)

    recorder = spans.Recorder()
    patch = spans.Patch(
        recorder,
        {
            "layer.work": [("fake_program", "work"), ("fake_program", "renamed_away")],
            "layer.parse": [("Owner", "parse")],
            "layer.gone": [("no.such.module", "f")],
        },
        resolve,
        [module, alias],
    )
    assert patch.missing == [
        "layer.work:fake_program.renamed_away",
        "layer.gone:no.such.module.f",
    ]
    original = module.work
    patch.on()
    assert alias.work() == "done" and module.work() == "done" and Owner.parse("x") == "X"
    assert [s[spans.NAME] for s in recorder.spans] == ["layer.work", "layer.work", "layer.parse"]
    patch.off()
    assert module.work is original and alias.work is original
    Owner.parse("y")
    assert len(recorder.spans) == 3


# -- compare.py verdicts ------------------------------------------------------------------


def test_compare_verdicts():
    lower, higher = "lower", "higher"
    assert compare.verdict([100, 101, 102], [105, 106, 107], lower, 0.08, False) == "ok"
    assert compare.verdict([100, 101, 102], [115, 116, 117], lower, 0.08, False) == "worse"
    assert compare.verdict([100, 101, 102], [90, 91, 92], lower, 0.08, False) == "ok"
    assert compare.verdict([100, 101, 102], [90, 91, 92], higher, 0.08, False) == "worse"
    # a set that disagrees with itself by more than the bound settles nothing
    assert compare.verdict([100, 120, 140], [100, 101, 102], lower, 0.08, False) == "unresolved"
    assert compare.verdict([5, 5, 5], [5, 5, 5], lower, None, True) == "same"
    assert compare.verdict([5, 5, 5], [5, 5, 6], lower, None, True) == "differs"
    assert compare.verdict([1.0], [9.0], lower, None, False) == "-"
    assert compare.spread([10, 20, 30]) == pytest.approx(1.0)  # n=3: the range
    assert compare.spread([10]) == 0.0


def test_compare_reads_sets_and_prints_ratios_with_their_base(tmp_path):
    def result(value, rows):
        return {
            "results": [
                {"workload": "w", "metrics": {"op_ms_p50": value, "relations.out_rows": rows}}
            ]
        }

    for side, values in (("a", (10.0, 10.2, 10.4)), ("b", (13.0, 13.2, 13.4))):
        os.mkdir(tmp_path / side)
        for i, value in enumerate(values):
            (tmp_path / side / f"run{i}.json").write_text(json.dumps(result(value, 42)))
    table = compare.rows(compare.load(str(tmp_path / "a")), compare.load(str(tmp_path / "b")))
    by_metric = {row["metric"]: row for row in table}
    assert by_metric["op_ms_p50"]["verdict"] == "worse"
    assert by_metric["op_ms_p50"]["n"] == (3, 3)
    assert by_metric["relations.out_rows"]["verdict"] == "same"
    text = "\n".join(compare.render(table))
    assert "+29.4% of 10.2 ms" in text
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0


# -- generators ----------------------------------------------------------------------------


def generated(seed):
    rng = gen.sub_rng(seed, "test")
    star = gen.star_schema(rng, facts=600, domain=30, partners=2, labels=10)
    return {
        "edges": gen.regular_edges(rng, 40, 410),
        "F": star["F"],
        "D1": star["D1"],
        "D2": star["D2"],
        "tagged": gen.tag(gen.regular_edges(rng, 10, 30, loops=False)),
    }


def test_same_seed_same_rows_other_seed_other_rows_same_sizes():
    first, again, other = generated(1), generated(1), generated(2)
    for name in first:
        assert gen.digest_rows(first[name]) == gen.digest_rows(again[name])
        assert gen.digest_rows(first[name]) != gen.digest_rows(other[name])
        assert len(first[name]) == len(other[name])


def test_generators_are_degree_regular():
    rows = generated(3)
    out_degree = {}
    for source, _target in rows["edges"]:
        out_degree[source] = out_degree.get(source, 0) + 1
    assert sorted(set(out_degree.values())) == [10, 11] and len(set(rows["edges"])) == 410
    per_key = {}
    for a, _b, _c in rows["F"]:
        per_key[a] = per_key.get(a, 0) + 1
    assert set(per_key.values()) == {20}
    labels = {}
    for _a, x in rows["D1"]:
        labels[x] = labels.get(x, 0) + 1
    assert set(labels.values()) == {6} and len(rows["D1"]) == 60
    assert all(source != target for (source, target), _name in rows["tagged"])


# -- the oracle's own references, on cases small enough to check by hand ----------------------


def test_oracle_references_on_hand_checked_cases():
    edges = [(("a", "b"), 2), (("b", "c"), 3), (("a", "c"), 5), (("c", "c"), 1)]
    assert oracle.two_hop(edges, "N") == {("a", "c"): 2 * 3 + 5 * 1, ("b", "c"): 3, ("c", "c"): 1}
    assert oracle.two_hop([(e, float(w)) for e, w in edges], "Tropical")[("a", "c")] == 5.0
    assert oracle.shortest_paths([(e, float(w)) for e, w in edges])[("a", "c")] == 5.0
    assert oracle.reachability(e for e, _ in edges) == {
        ("a", "b"), ("a", "c"), ("b", "c"), ("c", "c"),
    }  # fmt: skip
    # bag semantics: a->b->d and a->c->d, 2*1 + 3*4 walks; the loop makes e infinite
    counts = oracle.walk_counts(
        [(("a", "b"), 2), (("b", "d"), 1), (("a", "c"), 3), (("c", "d"), 4), (("e", "e"), 1)]
    )
    assert counts[("a", "d")] == 14 and counts[("e", "e")] == "inf"
    assert oracle.evaluate_polynomial({(("p", 2),): 2, (("r", 1), ("s", 1)): 1}, {"p": 3, "r": 2, "s": 5}) == 28


def test_ladder_sweep_agrees_with_world_enumeration():
    rng = gen.sub_rng(5, "ladder")
    probability = {edge: rng.randint(30, 95) / 100.0 for edge in gen.ladder(3)}
    rows = [(edge, f"e{i}", p) for i, (edge, p) in enumerate(probability.items())]
    brute = oracle.possible_world_probabilities(rows, oracle.reachability)
    assert oracle.mismatches("ladder", oracle.ladder_reachability(3, probability), brute, 1e-12) == []


# -- robustness of the harness itself --------------------------------------------------------------


def test_environment_is_scrubbed(monkeypatch):
    for name in ("REPRO_STORAGE", "REPRO_PARALLEL", "REPRO_TRACE"):
        monkeypatch.setenv(name, "columnar")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    monkeypatch.setenv("PYTHONPATH", "/somewhere/else")
    env = run.scrubbed_environment()
    assert not {"REPRO_STORAGE", "REPRO_PARALLEL", "REPRO_TRACE"} & set(env)
    assert env["PYTHONHASHSEED"] == "0" and env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["PYTHONPATH"] == os.path.join(run.ROOT, "src")


def test_worker_fails_fast_without_numpy(monkeypatch, capsys):
    import worker

    monkeypatch.setitem(sys.modules, "numpy", None)  # makes ``import numpy`` raise
    with pytest.raises(SystemExit) as exit_info:
        worker.main(
            ["--workload", "ra_numeric", "--seed", "1", "--seconds", "1", "--trace", "0", "--out", "x"]
        )
    assert exit_info.value.code == 2
    assert "numpy" in capsys.readouterr().err


def test_every_plan_runs_exactly_its_declared_kinds():
    pytest.importorskip("repro")
    from workloads import registry

    workloads = registry()
    assert list(workloads) == list(KINDS)
    for name, workload in workloads.items():
        assert set(workload.plan) == set(KINDS[name]), name
        assert 0.0 <= workload.memory_share <= 1.0


def test_benchmark_json_names_what_the_code_reports():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside this checkout")
    with open(path, encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in declared["workloads"]] == list(KINDS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        tuple(entry) for entry in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == metrics.per_layer()
    assert declared["run_seconds"] == run.DEFAULT_SECONDS
    assert len({name for name, _u, _b in metrics.per_layer()}) == len(metrics.per_layer()) <= 128
