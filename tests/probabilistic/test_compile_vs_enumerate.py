"""Differential harness: compiled inference vs the explicit world space.

Probabilities, top-k and MAP come from compiled lineage (knowledge-compile
the answers' circuits, weighted-model-count the diagram); events come from
intensional evaluation over the explicit ``2^n`` world space in
``P(Omega)``.  Theorem 4.3 (Theorem 6.4 for datalog, Section 8) makes them
agree *exactly*: ``query_probabilities`` must equal ``space.probability`` of
``query_events``, the compiled diagrams read back into ``P(Omega)`` must be
the enumerated events, and the top-k worlds must be the oracle's k best --
over random positive-algebra queries and random datalog programs.  Event
pools are small enough for the oracle and deliberately reused across tuples,
so correlated answers (shared events) are exercised, not just the
independent case.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import (
    CircuitCompiler,
    CircuitEvaluator,
    circuit_variables,
    top_k_many,
    wmc,
    wmc_many,
)
from repro.circuits.compile import as_circuit
from repro.datalog.provenance import absorptive_circuit_provenance
from repro.probabilistic import ProbabilisticDatabase
from repro.relations import Tup
from tests.strategies import BASE_SCHEMAS, DOMAIN, programs, ra_queries

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: Small pool of event names -- reuse across tuples creates correlation.
EVENT_POOL = ("e1", "e2", "e3", "e4", "e5", "e6")
MARGINAL_POOL = (0.1, 0.25, 0.5, 0.75, 0.9)


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


def _event_probabilities(pdb, events):
    """The oracle: each answer event scored against the explicit worlds."""
    return {tup: pdb.space.probability(event) for tup, event in events.items()}


def _read_back_events(pdb, compiled):
    """Compiled diagrams evaluated in ``P(Omega)`` (negation = set
    complement), one shared evaluator for all of them."""
    space = pdb.space
    worlds = space.space.worlds
    evaluator = CircuitEvaluator(
        space.semiring,
        {name: space.event(name) for name in space.marginals},
        complement=lambda event: worlds - event,
    )
    events = evaluator.evaluate_many(circuit.root for circuit in compiled.values())
    return {key: events[circuit.root] for key, circuit in compiled.items()}


def _assert_top_k_matches_oracle(pdb, top, events, lineages, k):
    """The top-k worlds are the oracle's k best.  The oracle's variable
    universe is the answer's lineage circuit's: every world must name
    exactly those variables -- also the ones the reduced diagram skips --
    derive the tuple and carry the probability of its assignment, and no
    world is listed twice (so the k sum to at most the tuple's marginal)."""
    assert set(top) == set(events.support)
    weight = pdb.space.space.weight
    for tup, models in top.items():
        universe = sorted(circuit_variables(as_circuit(lineages[tup])))
        # Oracle: the worlds of the answer's event grouped by their
        # projection on the lineage variables.
        grouped = {}
        for world in events.annotation(tup):
            key = tuple(name in world for name in universe)
            grouped[key] = grouped.get(key, 0.0) + weight(world)
        oracle = sorted(grouped.values(), reverse=True)[:k]
        assert len(models) == min(k, len(grouped))
        assert len({tuple(sorted(world.items())) for _, world in models}) == len(models)
        for (probability, assignment), oracle_p in zip(models, oracle):
            assert sorted(assignment) == universe
            assert probability == pytest.approx(oracle_p, abs=1e-9)
            key = tuple(assignment[name] for name in universe)
            assert grouped.get(key, -1.0) == pytest.approx(probability, abs=1e-9)


def _assert_events_match(pdb, compiled, enumerated):
    read_back = {
        tup: event for tup, event in _read_back_events(pdb, compiled).items() if event
    }
    assert set(read_back) == set(enumerated.support)
    for tup, event in read_back.items():
        assert event == enumerated.annotation(tup), f"event mismatch on {tup}"


class TestQueries:
    @SETTINGS
    @given(probabilistic_databases(), ra_queries())
    def test_probabilities_match_oracle(self, pdb, query_and_schema):
        query, _ = query_and_schema
        _assert_probabilities_match(
            pdb.query_probabilities(query),
            _event_probabilities(pdb, pdb.query_events(query)),
            "query",
        )

    @SETTINGS
    @given(probabilistic_databases(), ra_queries())
    def test_events_match_oracle_exactly(self, pdb, query_and_schema):
        query, _ = query_and_schema
        compiled = CircuitCompiler().compile_many(dict(pdb.query_lineage(query).items()))
        _assert_events_match(pdb, compiled, pdb.query_events(query))

    @SETTINGS
    @given(probabilistic_databases(), ra_queries(), st.integers(min_value=1, max_value=4))
    def test_top_k_matches_oracle(self, pdb, query_and_schema, k):
        query, _ = query_and_schema
        lineages = dict(pdb.query_lineage(query).items())
        events = pdb.query_events(query)
        _assert_top_k_matches_oracle(pdb, pdb.query_top_k(query, k), events, lineages, k)

    @SETTINGS
    @given(probabilistic_databases(), ra_queries())
    def test_map_is_the_top_1(self, pdb, query_and_schema):
        query, _ = query_and_schema
        maps = pdb.query_map(query)
        top = pdb.query_top_k(query, 1)
        events = pdb.query_events(query)
        assert set(maps) == set(top)
        for tup, best in maps.items():
            assert best is not None
            probability, assignment = best
            assert (probability, assignment) == top[tup][0]
            assert math.isfinite(probability) and probability >= 0.0
            world = frozenset(name for name, present in assignment.items() if present)
            assert world in events.annotation(tup)


class TestDatalog:
    @SETTINGS
    @given(st.data())
    def test_datalog_probabilities_match_oracle(self, data):
        program = data.draw(programs())
        pdb = data.draw(datalog_probabilistic_databases(program))
        _assert_probabilities_match(
            pdb.datalog_probabilities(program),
            _event_probabilities(pdb, pdb.datalog_events(program)),
            "datalog",
        )

    @SETTINGS
    @given(st.data())
    def test_datalog_events_match_oracle_exactly(self, data):
        program = data.draw(programs())
        pdb = data.draw(datalog_probabilistic_databases(program))
        _assert_events_match(pdb, pdb._compile_output(program), pdb.datalog_events(program))

    @SETTINGS
    @given(st.data(), st.integers(min_value=1, max_value=4))
    def test_datalog_top_k_matches_oracle(self, data, k):
        program = data.draw(programs())
        pdb = data.draw(datalog_probabilistic_databases(program))
        attributes = pdb._datalog_output_schema(program).attributes
        # A datalog answer's worlds name the variables its Boolean function
        # depends on: those its diagram tests, not every leaf of its circuit.
        compiled = CircuitCompiler().compile_many(
            absorptive_circuit_provenance(program, pdb.lineage_database)
        )
        lineages = {
            Tup.from_values(attributes, atom.values): circuit.root
            for atom, circuit in compiled.items()
            if atom.relation == program.output
        }
        events = pdb.datalog_events(program)
        _assert_top_k_matches_oracle(pdb, pdb.datalog_top_k(program, k), events, lineages, k)


def _assert_batch_equals_per_root(lineages, weights, k):
    """``compile_many`` / ``wmc_many`` / ``top_k_many`` against one-by-one
    ``compile`` / ``wmc`` / ``top_k`` on a fresh compiler: the same diagram
    nodes, the same orders, bit-identical floats, equal top-k lists.
    Returns the batch's counts."""
    batch_compiler, single = CircuitCompiler(), CircuitCompiler()
    batch = batch_compiler.compile_many(lineages)
    alone = {key: single.compile(value) for key, value in lineages.items()}
    assert list(batch) == list(alone)
    assert batch_compiler.order == single.order
    counted = wmc_many({key: c.root for key, c in batch.items()}, weights)
    ranked = top_k_many(batch, weights, k)
    for key, compiled in alone.items():
        assert batch[key].root is compiled.root
        assert batch[key].order == compiled.order
        assert counted[key] == wmc(compiled.root, weights)  # exact, not approx
        assert ranked[key] == compiled.top_k(weights, k)
    return counted


class TestBatchEqualsPerRoot:
    @SETTINGS
    @given(probabilistic_databases(), ra_queries(), st.integers(min_value=1, max_value=3))
    def test_queries(self, pdb, query_and_schema, k):
        query, _ = query_and_schema
        lineages = dict(pdb.query_lineage(query).items())
        counted = _assert_batch_equals_per_root(lineages, pdb.marginals, k)
        assert pdb.query_probabilities(query) == counted
        enumerated = _event_probabilities(pdb, pdb.query_events(query))
        _assert_probabilities_match(counted, enumerated, "query")

    @SETTINGS
    @given(st.data(), st.integers(min_value=1, max_value=3))
    def test_datalog(self, data, k):
        program = data.draw(programs())
        pdb = data.draw(datalog_probabilistic_databases(program))
        circuits = absorptive_circuit_provenance(program, pdb.lineage_database)
        counted = _assert_batch_equals_per_root(circuits, pdb.marginals, k)
        answer = pdb.datalog_probabilities(program)
        output = {
            atom.values: p for atom, p in counted.items() if atom.relation == program.output
        }
        attributes = pdb._datalog_output_schema(program).attributes
        assert {tup.values_for(attributes): p for tup, p in answer.items()} == output
        _assert_probabilities_match(
            answer, _event_probabilities(pdb, pdb.datalog_events(program)), "datalog"
        )


TC = "T(x, y) :- R(x, y)\nT(x, y) :- R(x, z), T(z, y)"
REPO = Path(__file__).resolve().parents[2]


def _ladder(columns, probability):
    """The directed ladder (two rails and a rung per column) as an uncertain
    relation ``R``; edge ``i`` is event ``e{i}`` at ``probability(i)``."""
    edges = [((c, 0), (c, 1)) for c in range(columns)]
    for c in range(columns - 1):
        edges += [((c, 0), (c + 1, 0)), ((c, 1), (c + 1, 1))]
    pdb = ProbabilisticDatabase()
    pdb.add_relation(
        "R",
        ["x", "y"],
        [((f"n{s}", f"n{t}"), f"e{i}", probability(i)) for i, (s, t) in enumerate(edges)],
    )
    return pdb


#: ``datalog_top_k`` on a ladder where every world ties, printed canonically.
_TIES_PROBE = textwrap.dedent(
    """
    import json
    from tests.probabilistic.test_compile_vs_enumerate import TC, _ladder

    top = _ladder(5, lambda i: 0.5).datalog_top_k(TC, 3)
    print(json.dumps(sorted(
        [str(tup), [[p, sorted(world.items())] for p, world in worlds]]
        for tup, worlds in top.items()
    )))
    """
)


class TestTies:
    """With every weight 0.5 all worlds of an answer tie, so its top-k list
    is decided by the tie rule alone: the literals, never reading order."""

    def test_ties_do_not_depend_on_the_hash_seed(self):
        outputs = []
        path = os.pathsep.join((str(REPO / "src"), str(REPO)))
        for seed in ("0", "1"):
            completed = subprocess.run(
                [sys.executable, "-c", _TIES_PROBE],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(json.loads(completed.stdout))
        assert len(outputs[0]) == 35  # the reachable pairs
        assert all(len({p for p, _ in worlds}) == 1 for _, worlds in outputs[0])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_batch_equals_per_root_on_ties(self, k):
        pdb = _ladder(5, lambda i: 0.5)
        circuits = absorptive_circuit_provenance(TC, pdb.lineage_database)
        _assert_batch_equals_per_root(circuits, pdb.marginals, k)


class TestRepeatedQueries:
    def test_identical_queries_hit_at_the_root_and_do_not_grow_the_caches(self):
        """Regression: the compiler's caches were keyed by node *ids* that
        held no reference, so the lineage of a finished call died and an
        identical call recompiled from the root, leaving dead entries behind
        in every table on every call."""
        pdb = _ladder(8, lambda i: 0.5 + i / 100)
        first = pdb.datalog_probabilities(TC)
        compiler = pdb._compiler

        def sizes():
            return len(compiler._compiled), len(compiler._applied), len(compiler._supports)

        before = sizes()
        for _ in range(4):
            misses = compiler.cache_misses
            assert pdb.datalog_probabilities(TC) == first
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
        assert probabilities[Tup(x="n0", y="n40")] == pytest.approx(0.9**40)
        assert pdb._space is None  # the 2^40 world space was never touched
