"""Differential harness: compiled inference vs the enumeration oracle.

``method="compile"`` (knowledge-compile the lineage, weighted-model-count
the diagram) must agree *exactly* with ``method="enumerate"`` (intensional
evaluation over the explicit ``2^n`` world space) -- on probabilities, on
answer events, and on the top-k most-probable worlds -- over random
positive-algebra queries and random datalog programs, on both storage
backends.  Event pools are small enough for the oracle and deliberately
reused across tuples, so correlated answers (shared events) are exercised,
not just the independent case.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitCompiler, wmc, wmc_many
from repro.probabilistic import ProbabilisticDatabase
from tests.strategies import BASE_SCHEMAS, DOMAIN, programs, ra_queries

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: Small pool of event names -- reuse across tuples creates correlation.
EVENT_POOL = ("e1", "e2", "e3", "e4", "e5", "e6")
MARGINAL_POOL = (0.1, 0.25, 0.5, 0.75, 0.9)

STORAGES = ("row", "columnar")


@st.composite
def probabilistic_databases(draw):
    """A ProbabilisticDatabase over ``BASE_SCHEMAS`` with a small event pool."""
    marginals = {
        name: draw(st.sampled_from(MARGINAL_POOL)) for name in EVENT_POOL
    }
    pdb = ProbabilisticDatabase()
    for relation_name in sorted(BASE_SCHEMAS):
        attributes = BASE_SCHEMAS[relation_name]
        count = draw(st.integers(min_value=0, max_value=5))
        rows = draw(
            st.lists(
                st.tuples(*([st.sampled_from(DOMAIN)] * len(attributes))),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        declared = []
        for values in rows:
            event = draw(st.sampled_from(EVENT_POOL))
            declared.append((values, event, marginals[event]))
        pdb.add_relation(relation_name, attributes, declared)
    return pdb


@st.composite
def datalog_probabilistic_databases(draw, program):
    """A ProbabilisticDatabase providing every EDB relation of ``program``."""
    marginals = {
        name: draw(st.sampled_from(MARGINAL_POOL)) for name in EVENT_POOL
    }
    pdb = ProbabilisticDatabase()
    for predicate in sorted(program.edb_predicates):
        arity = program.arity(predicate)
        count = draw(st.integers(min_value=0, max_value=4))
        rows = draw(
            st.lists(
                st.tuples(*([st.sampled_from(DOMAIN)] * arity)),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        declared = []
        for values in rows:
            event = draw(st.sampled_from(EVENT_POOL))
            declared.append((values, event, marginals[event]))
        pdb.add_relation(predicate, [f"c{i + 1}" for i in range(arity)], declared)
    return pdb


def _assert_probabilities_match(compiled, enumerated, context):
    assert set(compiled) == set(enumerated), context
    for tup, probability in enumerated.items():
        assert compiled[tup] == pytest.approx(probability, abs=1e-9), (
            f"{context}: probability mismatch on {tup}"
        )


class TestQueries:
    @SETTINGS
    @given(probabilistic_databases(), ra_queries(), st.sampled_from(STORAGES))
    def test_probabilities_match_oracle(self, pdb, query_and_schema, storage):
        query, _ = query_and_schema
        compiled = pdb.query_probabilities(query, storage=storage)
        enumerated = pdb.query_probabilities(query, method="enumerate", storage=storage)
        _assert_probabilities_match(compiled, enumerated, f"storage={storage}")

    @SETTINGS
    @given(probabilistic_databases(), ra_queries())
    def test_events_match_oracle_exactly(self, pdb, query_and_schema):
        query, _ = query_and_schema
        compiled = pdb.query_events(query, method="compile")
        enumerated = pdb.query_events(query, method="enumerate")
        assert set(compiled.support) == set(enumerated.support)
        for tup in enumerated.support:
            assert compiled.annotation(tup) == enumerated.annotation(tup), (
                f"event mismatch on {tup}"
            )

    @SETTINGS
    @given(probabilistic_databases(), ra_queries(), st.integers(min_value=1, max_value=4))
    def test_top_k_matches_oracle(self, pdb, query_and_schema, k):
        """The top-k world probabilities equal the oracle's k best, and every
        returned world really derives the tuple (checked against the event)."""
        query, _ = query_and_schema
        top = pdb.query_top_k(query, k)
        if not top:
            return
        events = pdb.query_events(query, method="enumerate")
        space = pdb.space
        for tup, models in top.items():
            event = events.annotation(tup)
            # Oracle: probability of every world *restricted to the lineage
            # variables* -- group the 2^n worlds by their projection.
            support = sorted({name for _, a in models for name in a})
            grouped = {}
            for world in event:
                key = tuple(name in world for name in support)
                grouped[key] = grouped.get(key, 0.0) + space.space.weight(world)
            # Regroup: many worlds project to one lineage assignment.
            oracle = sorted(grouped.values(), reverse=True)[:k]
            got = [p for p, _ in models]
            assert len(got) == min(k, len(grouped))
            for got_p, oracle_p in zip(got, oracle):
                assert got_p == pytest.approx(oracle_p, abs=1e-9)
            # Probabilities of the k worlds sum to at most the tuple marginal.
            assert sum(got) <= pdb.space.probability(event) + 1e-9

    @SETTINGS
    @given(probabilistic_databases(), ra_queries())
    def test_map_is_the_top_1(self, pdb, query_and_schema):
        query, _ = query_and_schema
        maps = pdb.query_map(query)
        top = pdb.query_top_k(query, 1)
        assert set(maps) == set(top)
        for tup, best in maps.items():
            assert best is not None
            probability, assignment = best
            top_probability, _ = top[tup][0]
            assert probability == pytest.approx(top_probability, abs=1e-12)
            assert math.isfinite(probability) and probability >= 0.0


class TestDatalog:
    @SETTINGS
    @given(st.data(), st.sampled_from(STORAGES))
    def test_datalog_probabilities_match_oracle(self, data, storage):
        program = data.draw(programs())
        pdb = data.draw(datalog_probabilistic_databases(program))
        compiled = pdb.datalog_probabilities(program)
        enumerated = pdb.datalog_probabilities(program, method="enumerate")
        _assert_probabilities_match(compiled, enumerated, f"storage={storage}")

    @SETTINGS
    @given(st.data())
    def test_datalog_events_match_oracle_exactly(self, data):
        program = data.draw(programs())
        pdb = data.draw(datalog_probabilistic_databases(program))
        compiled = pdb.datalog_events(program, method="compile")
        enumerated = pdb.datalog_events(program, method="enumerate")
        assert set(compiled.support) == set(enumerated.support)
        for tup in enumerated.support:
            assert compiled.annotation(tup) == enumerated.annotation(tup)

    @SETTINGS
    @given(st.data())
    def test_datalog_engines_agree_on_compiled_path(self, data):
        program = data.draw(programs())
        pdb = data.draw(datalog_probabilistic_databases(program))
        seminaive = pdb.datalog_probabilities(program, engine="seminaive")
        naive = pdb.datalog_probabilities(program, engine="naive")
        _assert_probabilities_match(seminaive, naive, "engines")


def _assert_batch_equals_per_root(lineages, weights, k):
    """``compile_many`` / ``wmc_many`` against one-by-one ``compile`` /
    ``wmc`` on a fresh compiler: the same diagram nodes, the same orders,
    bit-identical floats, equal top-k lists.  Returns the batch's counts."""
    batch_compiler, single = CircuitCompiler(), CircuitCompiler()
    batch = batch_compiler.compile_many(lineages)
    alone = {key: single.compile(value) for key, value in lineages.items()}
    assert list(batch) == list(alone)
    assert batch_compiler.order == single.order
    counted = wmc_many({key: c.root for key, c in batch.items()}, weights)
    for key, compiled in alone.items():
        assert batch[key].root is compiled.root
        assert batch[key].order == compiled.order
        assert counted[key] == wmc(compiled.root, weights)  # exact, not approx
        assert batch[key].top_k(weights, k) == compiled.top_k(weights, k)
    return counted


class TestBatchEqualsPerRoot:
    @SETTINGS
    @given(
        probabilistic_databases(),
        ra_queries(),
        st.sampled_from(STORAGES),
        st.integers(min_value=1, max_value=3),
    )
    def test_queries(self, pdb, query_and_schema, storage, k):
        query, _ = query_and_schema
        lineages = dict(pdb.query_lineage(query, storage=storage).items())
        counted = _assert_batch_equals_per_root(lineages, pdb.marginals, k)
        assert pdb.query_probabilities(query, storage=storage) == counted
        enumerated = pdb.query_probabilities(query, method="enumerate", storage=storage)
        _assert_probabilities_match(counted, enumerated, f"storage={storage}")

    @SETTINGS
    @given(st.data(), st.integers(min_value=1, max_value=3))
    def test_datalog(self, data, k):
        program = data.draw(programs())
        pdb = data.draw(datalog_probabilistic_databases(program))
        conditions = pdb._datalog_conditions(program).conditions
        counted = _assert_batch_equals_per_root(conditions, pdb.marginals, k)
        answer = pdb.datalog_probabilities(program)
        output = {
            atom.values: p for atom, p in counted.items() if atom.relation == program.output
        }
        attributes = pdb._datalog_output_schema(program).attributes
        assert {tup.values_for(attributes): p for tup, p in answer.items()} == output
        _assert_probabilities_match(
            answer, pdb.datalog_probabilities(program, method="enumerate"), "datalog"
        )


class TestRepeatedQueries:
    def test_identical_queries_hit_at_the_root_and_do_not_grow_the_caches(self):
        """Regression: the compiler's caches were keyed by node *ids* that
        held no reference, so the lineage of a finished call died and an
        identical call recompiled from the root, leaving dead entries behind
        in all three tables on every call."""
        columns = 8  # the directed ladder: two rails and a rung per column
        edges = [((c, 0), (c, 1)) for c in range(columns)]
        for c in range(columns - 1):
            edges += [((c, 0), (c + 1, 0)), ((c, 1), (c + 1, 1))]
        pdb = ProbabilisticDatabase()
        pdb.add_relation(
            "R",
            ["x", "y"],
            [((f"n{s}", f"n{t}"), f"e{i}", 0.5 + i / 100) for i, (s, t) in enumerate(edges)],
        )
        program = "T(x, y) :- R(x, y)\nT(x, y) :- R(x, z), T(z, y)"
        first = pdb.datalog_probabilities(program)
        compiler = pdb._compiler

        def entries(table):  # the cofactor memo, however its tables are nested
            if not isinstance(table, dict):
                return 1
            return sum(entries(value) for value in table.values())

        def sizes():
            return len(compiler._compiled), entries(compiler._cond), len(compiler._supports)

        before = sizes()
        for _ in range(4):
            misses = compiler.cache_misses
            assert pdb.datalog_probabilities(program) == first
            assert sizes() == before
            assert compiler.cache_misses == misses


class TestScale:
    def test_compiled_path_never_builds_the_world_space(self):
        """Forty uncertain tuples (2^40 worlds) complete via compilation."""
        pdb = ProbabilisticDatabase()
        pdb.add_relation(
            "R",
            ["x", "y"],
            [((f"n{i}", f"n{i + 1}"), f"w{i}", 0.9) for i in range(40)],
        )
        program = "Q(x,y) :- R(x,y).\nQ(x,z) :- Q(x,y), R(y,z)."
        probabilities = pdb.datalog_probabilities(program)
        assert len(probabilities) == 40 * 41 // 2
        # The chain endpoint needs all 40 edges: probability 0.9^40.
        from repro.relations import Tup

        assert probabilities[Tup(x="n0", y="n40")] == pytest.approx(0.9**40)
        assert pdb._space is None  # the 2^40 world space was never touched
