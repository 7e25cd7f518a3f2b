"""Probabilistic datalog compiles absorptive provenance circuits.

``datalog_probabilities`` / ``datalog_top_k`` compile, per derivable atom, a
circuit built from the program's grounding: one ``T_q`` application per
acyclic atom and exactly ``|C|`` Jacobi rounds per cyclic component ``C``
(:func:`repro.datalog.provenance.absorptive_circuit_provenance`).  Its
Boolean function is the atom's minimal-fringe PosBool(X) condition
(Section 8), which stays here as the oracle: compiled, the two give the
same probabilities and the same top-k probability lists, over random,
linear, quadratic and mutually recursive programs, cyclic graphs and
shared events.  The circuits stay within ``|C|`` gates per ground rule
on transitive closure, where the minimal DNF grows with the number of
simple paths.
"""

from __future__ import annotations

from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits import CircuitCompiler, node_count, top_k_many, wmc_many
from repro.datalog import Program, ground_program
from repro.datalog.fixpoint import component_order
from repro.datalog.grounding import GroundAtom
from repro.datalog.lattice_eval import lattice_condition_provenance
from repro.datalog.provenance import absorptive_circuit_provenance
from repro.errors import GroundingError, SchemaError
from repro.probabilistic import ProbabilisticDatabase
from repro.relations import Tup
from tests.probabilistic.test_compile_vs_enumerate import (
    SETTINGS,
    datalog_probabilistic_databases,
)
from tests.strategies import programs

LINEAR = "T(x, y) :- R(x, y)\nT(x, y) :- R(x, z), T(z, y)"
QUADRATIC = "T(x, y) :- R(x, y)\nT(x, y) :- T(x, z), T(z, y)"
MUTUAL = (
    "P(x, y) :- R(x, y)\n"
    "P(x, y) :- R(x, z), Q(z, y)\n"
    "Q(x, y) :- S(x, z), P(z, y)\n"
    "Q(x, y) :- Q(x, z), S(z, y)"
)
RECURSIVE = {"linear": LINEAR, "quadratic": QUADRATIC, "mutual": MUTUAL}


def _condition_oracle(pdb, program, k):
    """Probabilities and top-k lists of the output atoms from the compiled
    minimal-fringe PosBool(X) conditions over event-name variables."""
    lineage = pdb.lineage_database
    ids = {}
    for predicate in program.edb_predicates:
        relation = lineage.relation(predicate)
        for tup, node in relation.items():
            ids[GroundAtom(predicate, tup.values_for(relation.schema.attributes))] = node.name
    conditions = lattice_condition_provenance(program, lineage, edb_ids=ids).conditions
    compiled = CircuitCompiler().compile_many(conditions)
    attributes = pdb._datalog_output_schema(program).attributes
    output = {
        Tup.from_values(attributes, atom.values): circuit
        for atom, circuit in compiled.items()
        if atom.relation == program.output
    }
    probabilities = wmc_many({tup: c.root for tup, c in output.items()}, pdb.marginals)
    return probabilities, top_k_many(output, pdb.marginals, k)


def _assert_matches_conditions(pdb, program, k):
    want_p, want_top = _condition_oracle(pdb, program, k)
    got_p = pdb.datalog_probabilities(program)
    assert set(got_p) == set(want_p)
    for tup, probability in want_p.items():
        assert got_p[tup] == pytest.approx(probability, abs=1e-12), tup
    got_top = pdb.datalog_top_k(program, k)
    assert set(got_top) == set(want_top)
    for tup, worlds in want_top.items():
        assert [p for p, _ in got_top[tup]] == pytest.approx(
            [p for p, _ in worlds], abs=1e-12
        ), tup
        # Worlds name the events of the minimal derivations only.
        assert [sorted(w) for _, w in got_top[tup]] == [sorted(w) for _, w in worlds], tup


class TestAgainstPosBoolConditions:
    @SETTINGS
    @given(
        st.data(),
        st.one_of(programs(), st.sampled_from(sorted(RECURSIVE.values())).map(Program.parse)),
        st.integers(min_value=1, max_value=3),
    )
    def test_probabilities_and_top_k_equal_the_compiled_conditions(self, data, program, k):
        pdb = data.draw(datalog_probabilistic_databases(program))
        _assert_matches_conditions(pdb, program, k)

    @pytest.mark.parametrize("name", sorted(RECURSIVE))
    def test_cyclic_graph_with_shared_events(self, name):
        """Two 3-cycles sharing a node, every edge in both relations, and
        events shared between edges (correlated tuples)."""
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "c")]
        rows = [(edge, f"e{i % 4}", (0.3, 0.55, 0.7, 0.9)[i % 4]) for i, edge in enumerate(edges)]
        pdb = ProbabilisticDatabase()
        pdb.add_relation("R", ["x", "y"], rows)
        pdb.add_relation("S", ["x", "y"], rows[::-1])
        _assert_matches_conditions(pdb, Program.parse(RECURSIVE[name]), 4)

    def test_absorbed_derivations_leave_the_worlds(self):
        """``T(1)`` has the derivations ``r`` and ``r·s``; absorption keeps
        ``r`` alone, so its worlds do not decide ``s``."""
        pdb = ProbabilisticDatabase()
        pdb.add_relation("R", ["a"], [(("1",), "r", 0.5)])
        pdb.add_relation("S", ["a"], [(("1",), "s", 0.3)])
        program = "T(x) :- R(x)\nT(x) :- R(x), S(x)"
        assert pdb.datalog_probabilities(program) == {Tup(x="1"): 0.5}
        assert pdb.datalog_top_k(program, 3) == {Tup(x="1"): [(0.5, {"r": True})]}


def _complete_digraph(n):
    pdb = ProbabilisticDatabase()
    pdb.add_relation(
        "R",
        ["x", "y"],
        [((f"v{a}", f"v{b}"), f"e{a}_{b}", 0.5) for a in range(n) for b in range(n) if a != b],
    )
    return pdb


def _minimal_clauses(n):
    """PosBool clauses of TC over the complete digraph on ``n`` nodes: one
    per simple path ``x -> y`` (``x != y``) and one per simple cycle through
    ``x``, which is an edge into ``x`` closing a simple path from one of the
    other ``n - 1`` nodes."""
    paths = sum(factorial(n - 2) // factorial(n - 2 - k) for k in range(n - 1))
    return 2 * n * (n - 1) * paths


class TestSize:
    def test_the_clause_count_is_the_posbool_fixpoints(self):
        """The closed form the size test uses, against the fixpoint itself
        on an instance small enough for it."""
        pdb = _complete_digraph(5)
        conditions = lattice_condition_provenance(LINEAR, pdb.lineage_database).conditions
        assert sum(len(c.clauses) for c in conditions.values()) == _minimal_clauses(5)

    @pytest.mark.parametrize("program", [LINEAR, QUADRATIC], ids=["linear", "quadratic"])
    @pytest.mark.parametrize("n", [8, 9])
    def test_circuits_stay_within_the_component_bound(self, program, n):
        """At most ``|C|`` gates per ground rule, ``C`` the largest
        component: a round adds a product gate per two-atom rule and a sum
        gate per atom, and an atom has a one-atom base rule, which is no
        gate.  The minimal DNF outgrows that bound.  Nothing is compiled."""
        pdb = _complete_digraph(n)
        circuits = absorptive_circuit_provenance(program, pdb.lineage_database)
        table, _, _, components = component_order(
            ground_program(Program.parse(program), pdb.lineage_database)
        )
        largest = max(len(component) for component, cyclic in components if cyclic)
        bound = largest * len(table.rules)
        assert len(circuits) == n * n
        assert node_count(*circuits.values()) <= bound
        assert _minimal_clauses(n) > bound


class TestErrors:
    """The probability entry points raise what they raised when they
    compiled PosBool conditions."""

    @staticmethod
    def _pdb():
        pdb = ProbabilisticDatabase()
        pdb.add_relation("R", ["x", "y"], [(("a", "b"), "e1", 0.5)])
        return pdb

    @pytest.mark.parametrize("call", ["probabilities", "top_k", "events"])
    def test_a_missing_relation_is_a_schema_error(self, call):
        """Every datalog entry point looks the EDB relations up first, as a
        query does (``datalog_events`` used to raise a GroundingError)."""
        for program in (
            "T(x, y) :- R(x, y)\nT(x, y) :- S(x, z), T(z, y)",
            "T(x, y) :- R(x, y)\nT(x, z) :- T(x, y), S(y, z)",
        ):
            pdb = self._pdb()
            with pytest.raises(SchemaError, match="unknown relation 'S'"):
                if call == "probabilities":
                    pdb.datalog_probabilities(program)
                elif call == "top_k":
                    pdb.datalog_top_k(program, 2)
                else:
                    pdb.datalog_events(program)

    def test_a_wrong_arity_is_a_grounding_error(self):
        with pytest.raises(GroundingError, match="arity 2, program expects 1"):
            self._pdb().datalog_probabilities("T(x) :- R(x)")
