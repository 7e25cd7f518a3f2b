"""Algorithm All-Trees (Figure 8, E8) and derivation-tree enumeration."""

import inspect
import sys

import pytest

from repro.datalog import (
    GroundAtom,
    Program,
    all_trees,
    bag_multiplicities,
    count_derivation_trees,
    datalog_provenance,
    enumerate_derivation_trees,
    ground_program,
    monomial_coefficient,
)
from repro.errors import DatalogError
from repro.relations import Database
from repro.semirings import CompletedNaturalsSemiring, Monomial, NatInf, Polynomial
from repro.semirings.numeric import INFINITY
from repro.workloads import (
    chain_graph_database,
    dag_database,
    figure7_database,
    figure7_edb_ids,
    figure7_program,
)


class TestAllTreesOnFigure7:
    @pytest.fixture
    def result(self):
        return all_trees(figure7_program(), figure7_database(), edb_ids=figure7_edb_ids())

    def test_finite_and_infinite_classification(self, result):
        finite = {atom.values for atom in result.polynomials}
        infinite = {atom.values for atom in result.infinite}
        assert finite == {("a", "b"), ("a", "c"), ("c", "b")}
        assert infinite == {("b", "d"), ("d", "d"), ("a", "d"), ("c", "d")}

    def test_finite_polynomials(self, result):
        assert result.provenance(GroundAtom("Q", ("a", "b"))) == Polynomial.parse("m + n*p")
        assert result.provenance(GroundAtom("Q", ("a", "c"))) == Polynomial.parse("n")
        assert result.provenance(GroundAtom("Q", ("c", "b"))) == Polynomial.parse("p")
        assert result.provenance(GroundAtom("Q", ("d", "d"))) is None

    def test_evaluation_with_top_for_infinite(self, result):
        natinf = CompletedNaturalsSemiring()
        values = result.evaluate(
            natinf, {"m": 2, "n": 3, "p": 2, "r": 1, "s": 1}
        )
        assert values[GroundAtom("Q", ("a", "b"))] == NatInf(8)
        assert values[GroundAtom("Q", ("a", "d"))] == INFINITY

    def test_bag_multiplicities_shortcut(self):
        multiplicities = bag_multiplicities(figure7_program(), figure7_database())
        assert multiplicities[GroundAtom("Q", ("a", "b"))] == NatInf(8)
        assert multiplicities[GroundAtom("Q", ("d", "d"))] == INFINITY
        # Section 7: on an acyclic instance bag evaluation terminates with
        # every multiplicity finite.
        chain = chain_graph_database(CompletedNaturalsSemiring(), length=12)
        multiplicities = bag_multiplicities(figure7_program(), chain)
        assert multiplicities and all(v.is_finite for v in multiplicities.values())

    def test_unknown_atom_raises(self, result):
        with pytest.raises(DatalogError):
            result.provenance(GroundAtom("Q", ("nope", "nope")))

    def test_output_provenance_maps_infinite_to_none(self, result):
        output = result.output_provenance()
        assert output[GroundAtom("Q", ("a", "b"))] == Polynomial.parse("m + n*p")
        assert output[GroundAtom("Q", ("a", "d"))] is None


class TestAgainstBruteForceEnumeration:
    @pytest.mark.parametrize(
        "make_database",
        [
            lambda natinf: chain_graph_database(natinf, length=5),
            lambda natinf: dag_database(natinf, layers=4, width=3),
        ],
        ids=["chain", "dag"],
    )
    def test_polynomial_matches_enumerated_trees(self, make_database):
        """On an acyclic instance every atom has polynomial provenance, equal to
        the sum over explicitly enumerated derivation trees (Definition 5.1
        verbatim)."""
        db = make_database(CompletedNaturalsSemiring())
        program = figure7_program()
        result = all_trees(program, db)
        assert result.polynomials and not result.infinite
        ground = result.ground
        for atom, polynomial in result.polynomials.items():
            assert not polynomial.is_zero()
            trees = enumerate_derivation_trees(ground, atom)
            brute = Polynomial.zero()
            for tree in trees:
                brute = brute + Polynomial.monomial(tree.fringe(result.edb_ids))
            assert polynomial == brute

    def test_enumeration_refuses_infinite_atoms_without_depth_bound(self):
        ground = ground_program(figure7_program(), figure7_database())
        with pytest.raises(DatalogError):
            enumerate_derivation_trees(ground, GroundAtom("Q", ("d", "d")))

    def test_depth_bounded_enumeration_and_counting_agree(self):
        ground = ground_program(figure7_program(), figure7_database())
        atom = GroundAtom("Q", ("d", "d"))
        for depth in (2, 3, 4, 5):
            trees = enumerate_derivation_trees(ground, atom, max_depth=depth)
            assert len(trees) == count_derivation_trees(ground, atom, max_depth=depth)

    def test_tree_structure_helpers(self):
        ground = ground_program(figure7_program(), figure7_database())
        trees = enumerate_derivation_trees(ground, GroundAtom("Q", ("a", "b")))
        assert len(trees) == 2  # direct edge, and via a->c->b
        for tree in trees:
            assert tree.depth() >= 2
            assert tree.size() >= 2
            leaves = list(tree.leaves())
            assert all(leaf.relation == "R" for leaf in leaves)


class TestRecursionSafety:
    """All-Trees, the series path and Monomial-Coefficient solve the
    instantiation iteratively: derivations deeper than the interpreter's
    remaining stack are fine."""

    DEPTH = 100

    @pytest.fixture(autouse=True)
    def low_recursion_limit(self):
        limit = sys.getrecursionlimit()
        # Half as much headroom as the chain is deep: one frame per
        # derivation level cannot finish.
        sys.setrecursionlimit(len(inspect.stack()) + self.DEPTH // 2)
        try:
            yield
        finally:
            sys.setrecursionlimit(limit)

    def _edge_chain(self):
        """``P(0), ..., P(DEPTH)``: ``P(k)`` is derived ``k + 1`` rules deep."""
        database = Database(CompletedNaturalsSemiring())
        database.create("S", ["x"], [((0,), 1)])
        database.create("R", ["x", "y"], [((i, i + 1), 1) for i in range(self.DEPTH)])
        return "P(x) :- S(x)\nP(y) :- P(x), R(x, y)", database

    def test_all_trees_on_a_deep_chain(self):
        program, database = self._edge_chain()
        result = all_trees(program, database)
        assert not result.infinite
        deepest = result.provenance(GroundAtom("P", (self.DEPTH,)))
        assert deepest.terms[0][0].degree == self.DEPTH + 1

    def test_datalog_provenance_on_a_deep_chain(self):
        program, database = self._edge_chain()
        provenance = datalog_provenance(program, database)
        deepest = provenance.provenance(GroundAtom("P", (self.DEPTH,)))
        assert deepest.is_exact and len(deepest.terms) == 1

    def test_monomial_coefficient_on_a_deep_unit_chain(self):
        """``P0(x) :- S(x)`` then ``P{i}(x) :- P{i-1}(x)``: one leaf, a
        derivation ``DEPTH`` unit rules deep."""
        text = "P0(x) :- S(x)\n" + "\n".join(
            f"P{i}(x) :- P{i - 1}(x)" for i in range(1, self.DEPTH)
        )
        program = Program.parse(text, output=f"P{self.DEPTH - 1}")
        database = Database(CompletedNaturalsSemiring())
        database.create("S", ["x"], [((0,), 1)])
        result = monomial_coefficient(program, database, (0,), Monomial.var("t1"))
        assert result.coefficient == NatInf(1)
