"""Datalog provenance in N∞[[X]] (Section 6) and Monomial-Coefficient (Figure 9)."""

import sys

import pytest

from repro.datalog import grounding

from repro.datalog import (
    GroundAtom,
    ProvenanceClass,
    analyze_finiteness,
    datalog_circuit_provenance,
    datalog_provenance,
    monomial_coefficient,
)
from repro.relations import Database
from repro.semirings import Monomial, NatInf
from repro.semirings.numeric import INFINITY
from repro.workloads import figure7_database, figure7_edb_ids, figure7_program

CATALAN = [1, 1, 2, 5, 14, 42]


@pytest.fixture(scope="module")
def provenance():
    return datalog_provenance(
        figure7_program(),
        figure7_database(),
        truncation_degree=5,
        edb_ids=figure7_edb_ids(),
    )


class TestFigure7Series:
    def test_finite_provenance_is_exact_polynomial(self, provenance):
        x = provenance.provenance(GroundAtom("Q", ("a", "b")))
        assert x.is_exact
        assert str(x.to_polynomial()).replace("·", "*") in ("m + n*p", "n*p + m")

    def test_v_series_has_catalan_coefficients(self, provenance):
        """v = s + s² + 2s³ + 5s⁴ + 14s⁵ + ... (the paper's footnote 6)."""
        v = provenance.provenance(GroundAtom("Q", ("d", "d")))
        assert not v.is_exact
        for n in range(1, 6):
            assert v.coefficient(Monomial.var("s", n)) == NatInf(CATALAN[n - 1])

    def test_u_series_u_equals_r_times_v_star(self, provenance):
        """u = r·v*: coefficients of r·s^k are 1, 1, 2, 5, 14 (Catalan partial sums of v*)."""
        u = provenance.provenance(GroundAtom("Q", ("b", "d")))
        expected = [1, 1, 2, 5, 14]
        for k in range(0, 5):
            monomial = Monomial({"r": 1, "s": k})
            assert u.coefficient(monomial) == NatInf(expected[k])

    def test_classification(self, provenance):
        assert provenance.classification[GroundAtom("Q", ("a", "b"))] is ProvenanceClass.POLYNOMIAL
        assert (
            provenance.classification[GroundAtom("Q", ("d", "d"))]
            is ProvenanceClass.SERIES_FINITE_COEFFICIENTS
        )


class TestMonomialCoefficient:
    def test_catalan_coefficients_via_figure9_algorithm(self):
        for n in range(1, 7):
            result = monomial_coefficient(
                figure7_program(),
                figure7_database(),
                ("d", "d"),
                Monomial.var("s", n),
                edb_ids=figure7_edb_ids(),
            )
            assert result.coefficient == NatInf(CATALAN[n - 1])

    def test_w_coefficient_of_rnps3(self):
        """The coefficient of r·n·p·s³ in w.

        The paper's prose claims 5, but that value is inconsistent with the
        paper's own closed form w = r(m + np)(v*)² (which gives 14 on the
        reduced six-variable system) and with Definition 5.1 on the full
        instantiation, which also derives Q(c, d) and yields 42.  We assert
        the value our independent hand-derivation confirms (42); see
        EXPERIMENTS.md for the full discussion.
        """
        result = monomial_coefficient(
            figure7_program(),
            figure7_database(),
            ("a", "d"),
            "r*n*p*s^3",
            edb_ids=figure7_edb_ids(),
        )
        assert result.coefficient == NatInf(42)

    def test_zero_coefficient_for_impossible_monomial(self):
        result = monomial_coefficient(
            figure7_program(), figure7_database(), ("a", "b"), "m*s", edb_ids=figure7_edb_ids()
        )
        assert result.coefficient == NatInf(0)

    def test_coefficient_of_underivable_tuple_is_zero(self):
        result = monomial_coefficient(
            figure7_program(), figure7_database(), ("b", "a"), "m", edb_ids=figure7_edb_ids()
        )
        assert result.coefficient == NatInf(0)

    def test_infinite_coefficient_with_unit_rule_cycle(self):
        """P(x) :- T(x), T(x) :- P(x) pumps without consuming leaves => ∞ coefficient."""
        db = Database(figure7_database().semiring)
        db.create("E", ["x"], [(("a",), 1)])
        program = "P(x) :- E(x)\nP(x) :- T(x)\nT(x) :- P(x)"
        result = monomial_coefficient(program, db, ("a",), "t1")
        assert result.coefficient == INFINITY
        assert result.is_infinite

    def test_provenance_object_coefficient_shortcut(self, provenance):
        assert provenance.coefficient(("d", "d"), "s^4") == NatInf(5)


class TestFinitenessClassification:
    def test_theorem_6_5_trichotomy(self):
        db = Database(figure7_database().semiring)
        db.create("E", ["x"], [(("a",), 1)])
        db.create("R", ["x", "y"], [(("a", "a"), 1)])
        program = (
            "P(x) :- E(x)\n"            # polynomial provenance
            "P(x) :- T(x)\n"            # unit-rule cycle with T
            "T(x) :- P(x)\n"
            "S(x) :- R(x, x)\n"          # polynomial
            "S(x) :- S(x), S(x)\n"       # non-unit cycle: proper series, finite coefficients
        )
        report = analyze_finiteness(program, db)
        assert report.provenance_class(GroundAtom("P", ("a",))) is ProvenanceClass.SERIES_INFINITE_COEFFICIENTS
        assert report.provenance_class(GroundAtom("S", ("a",))) is ProvenanceClass.SERIES_FINITE_COEFFICIENTS
        assert not report.has_finite_coefficients(GroundAtom("P", ("a",)))
        assert report.has_finite_coefficients(GroundAtom("S", ("a",)))
        summary = report.summary()
        assert summary["N∞[[X]]"] >= 1 and summary["N[[X]]"] >= 1

    def test_figure7_report(self):
        report = analyze_finiteness(figure7_program(), figure7_database())
        assert report.is_polynomial(GroundAtom("Q", ("a", "b")))
        assert not report.is_polynomial(GroundAtom("Q", ("d", "d")))
        # no unit rules at all, so every series has finite coefficients (Theorem 6.5)
        assert all(
            report.has_finite_coefficients(atom) for atom in report.classification
        )


class TestSeriesCoefficientsAgainstTreeCounting:
    def test_truncated_series_matches_depth_unbounded_tree_counts(self):
        """Cross-check: coefficient of s^n equals the number of derivation trees
        with exactly n leaves, counted by brute force over depth-bounded trees
        (trees with n leaves and no unit rules have depth <= n + 1)."""
        from repro.datalog import enumerate_derivation_trees, ground_program

        provenance = datalog_provenance(
            figure7_program(), figure7_database(), truncation_degree=4, edb_ids=figure7_edb_ids()
        )
        ground = ground_program(figure7_program(), figure7_database())
        atom = GroundAtom("Q", ("d", "d"))
        trees = enumerate_derivation_trees(ground, atom, max_depth=6)
        series = provenance.provenance(atom)
        for n in range(1, 5):
            expected = sum(
                1 for tree in trees if tree.fringe(figure7_edb_ids()) == Monomial.var("s", n)
            )
            assert series.coefficient(Monomial.var("s", n)) == NatInf(expected)


def test_datalog_provenance_grounds_the_program_once(monkeypatch):
    """The polynomials and the truncated series are both solved on the one
    grounding the call holds; nothing grounds the program a second time."""
    calls = []
    original = grounding.ground_program

    def spy(program, database):
        calls.append(program)
        return original(program, database)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "ground_program", None) is original
        ):
            monkeypatch.setattr(module, "ground_program", spy)
    for provenance in (datalog_provenance, datalog_circuit_provenance):
        calls.clear()
        provenance(figure7_program(), figure7_database(), edb_ids=figure7_edb_ids())
        assert len(calls) == 1, provenance.__name__
