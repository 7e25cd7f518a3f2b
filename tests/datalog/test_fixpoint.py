"""Datalog fixpoint evaluation over ω-continuous semirings (Section 5)."""

import math

import pytest

from repro.datalog import GroundAtom, Program, evaluate, evaluate_program
from repro.errors import DivergenceError, GroundingError
from repro.relations import Database, Tup
from repro.semirings import (
    BooleanSemiring,
    CompletedNaturalsSemiring,
    FuzzySemiring,
    NatInf,
    NaturalsSemiring,
    TropicalSemiring,
    ViterbiSemiring,
)
from repro.semirings.numeric import INFINITY
from repro.workloads import (
    chain_graph_database,
    figure6_database,
    figure6_program,
    figure7_database,
    figure7_program,
    transitive_closure_program,
)


class TestFigure6:
    def test_conjunctive_query_bag_semantics(self):
        """Figure 6(c): 4, 18, 16 -- matches the RA+ sum-of-products."""
        result = evaluate(figure6_program(), figure6_database())
        assert result.annotation(("a", "a")) == 4
        assert result.annotation(("a", "b")) == 18
        assert result.annotation(("b", "b")) == 16


class TestFigure7:
    def test_transitive_closure_multiplicities(self):
        """Figure 7(b): 8, 3, 2 finite and ∞ for the tuples reachable via the loop."""
        result = evaluate(figure7_program(), figure7_database())
        assert result.annotation(("a", "b")) == NatInf(8)
        assert result.annotation(("a", "c")) == NatInf(3)
        assert result.annotation(("c", "b")) == NatInf(2)
        assert result.annotation(("b", "d")) == INFINITY
        assert result.annotation(("d", "d")) == INFINITY
        assert result.annotation(("a", "d")) == INFINITY
        # our instantiation also derives (c, d), omitted from the paper's figure
        assert result.annotation(("c", "d")) == INFINITY

    def test_divergence_error_mode(self):
        with pytest.raises(DivergenceError):
            evaluate(figure7_program(), figure7_database(), on_divergence="error")

    def test_plain_naturals_cannot_express_divergence(self):
        bag_db = figure7_database(NaturalsSemiring())
        with pytest.raises(DivergenceError):
            evaluate(figure7_program(), bag_db)

    def test_boolean_sanity_check(self):
        """Proposition 5.4: datalog over B computes the classical answer."""
        result = evaluate(figure7_program(), figure7_database(BooleanSemiring()))
        expected = {("a", "b"), ("a", "c"), ("c", "b"), ("b", "d"), ("d", "d"), ("a", "d"), ("c", "d")}
        assert {tuple(t.values_for(("x", "y"))) for t in result.support} == expected
        assert all(v is True for v in result.annotations())


class TestOtherSemirings:
    def test_tropical_shortest_paths(self):
        """Transitive closure over (min, +) computes shortest distances."""
        tropical = TropicalSemiring()
        db = Database(tropical)
        db.create(
            "R",
            ["x", "y"],
            [(("a", "b"), 1.0), (("b", "c"), 2.0), (("a", "c"), 10.0), (("c", "a"), 1.0)],
        )
        result = evaluate(transitive_closure_program(), db)
        assert result.annotation(("a", "c")) == 3.0      # a->b->c beats the direct 10
        assert result.annotation(("a", "a")) == 4.0      # around the cycle
        assert result.annotation(("b", "a")) == 3.0

    def test_fuzzy_and_viterbi_converge_on_cyclic_graphs(self):
        for semiring in (FuzzySemiring(), ViterbiSemiring()):
            db = Database(semiring)
            db.create(
                "R",
                ["x", "y"],
                [(("a", "b"), 0.5), (("b", "a"), 0.5), (("b", "c"), 0.25)],
            )
            result = evaluate(transitive_closure_program(), db)
            assert 0 < result.annotation(("a", "c")) <= 0.25
            assert len(result) > 0

    def test_chain_graph_bag_counts_paths(self):
        """On an acyclic chain each closure tuple has exactly one derivation path
        but several derivation trees under the quadratic rule; the linear rule
        gives exactly one tree per path."""
        natinf = CompletedNaturalsSemiring()
        db = chain_graph_database(natinf, length=6).map_annotations(lambda _: NatInf(1), natinf)
        quadratic = evaluate(transitive_closure_program(), db)
        linear = evaluate(transitive_closure_program(linear=True), db)
        # supports agree
        assert quadratic.support == linear.support
        # linear recursion: every pair has exactly one derivation tree
        assert all(v == NatInf(1) for v in linear.annotations())
        # quadratic recursion counts every bracketing of a path: the 5-edge
        # path n0 -> n5 has Catalan(4) = 14 derivation trees
        assert quadratic.annotation(("n0", "n5")) == NatInf(14)


class TestResultObject:
    def test_all_idb_relations_materializable(self):
        program = Program.parse("Q(x, y) :- R(x, y)\nP(x) :- Q(x, x)", output="P")
        db = Database(BooleanSemiring())
        db.create("R", ["x", "y"], [("a", "a"), ("a", "b")])
        result = evaluate_program(program, db)
        q_rel = result.relation("Q", db)
        p_rel = result.output_relation(db)
        assert len(q_rel) == 2
        assert len(p_rel) == 1
        assert result.divergent_atoms == frozenset()
        assert result.iterations >= 1

    def test_nonrecursive_program_over_plain_naturals_is_fine(self):
        db = figure6_database()
        result = evaluate_program(figure6_program(), db)
        assert result.annotations[GroundAtom("Q", ("a", "b"))] == 18

    @pytest.mark.parametrize("semiring", [TropicalSemiring(), NaturalsSemiring()])
    def test_an_idb_relation_of_another_arity_is_a_grounding_error(self, semiring):
        """A database relation named like an IDB predicate fixes its schema,
        so its arity must be the program's (the round loops used to derive
        atoms of the relation's arity, the ground solver to crash)."""
        db = Database(semiring)
        db.create("E", ["a", "b"], [(("x", "y"), 1), (("y", "z"), 1)])
        db.create("T", ["p", "q", "r"], [])
        program = Program.parse("T(x, y) :- E(x, y)\nT(x, z) :- T(x, y), E(y, z)")
        with pytest.raises(GroundingError, match="arity 3, program expects 2"):
            evaluate_program(program, db)
