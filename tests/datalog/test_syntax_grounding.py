"""Datalog syntax, parsing and grounding (the instantiation of Theorem 6.5)."""

import pytest

from repro.datalog import GroundAtom, Program, Rule, ground_program
from repro.errors import DatalogError, GroundingError, ParseError
from repro.relations import Database
from repro.semirings import BooleanSemiring, NaturalsSemiring
from repro.workloads import figure7_database, figure7_program


class TestParsing:
    def test_parse_program(self):
        program = Program.parse(
            """
            % transitive closure
            Q(x, y) :- R(x, y)
            Q(x, y) :- Q(x, z), Q(z, y)
            """
        )
        assert len(program) == 2
        assert program.output == "Q"
        assert program.idb_predicates == {"Q"}
        assert program.edb_predicates == {"R"}
        assert program.is_recursive()

    def test_predicate_sets_are_computed_once_and_survive_pickling(self):
        import pickle

        program = Program.parse("Q(x, y) :- R(x, y)\nP(x) :- Q(x, y), S(y)")
        assert program.idb_predicates is program.idb_predicates
        assert program.edb_predicates is program.edb_predicates
        assert program.predicates is program.predicates == {"Q", "P", "R", "S"}
        shipped = pickle.loads(pickle.dumps(program))  # what spawn workers get
        assert shipped.idb_predicates == {"Q", "P"}
        assert shipped.edb_predicates == {"R", "S"}
        assert shipped.predicates == program.predicates

    def test_constants_and_comments(self):
        program = Program.parse("P(x) :- E(x, 'a')  % only edges into a")
        assert program.arity("E") == 2
        assert not program.is_recursive()

    def test_unsafe_rule_rejected(self):
        with pytest.raises(DatalogError):
            Rule.parse("Q(x, w) :- R(x, y)")

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError):
            Rule.parse("Q(x) :- ")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(DatalogError):
            Program.parse("Q(x) :- R(x, y)\nQ(x) :- R(x)")

    def test_unknown_output_rejected(self):
        with pytest.raises(DatalogError):
            Program.parse("Q(x) :- R(x, x)", output="Missing")

    def test_unit_rules_detection(self):
        program = Program.parse("P(x) :- E(x)\nP(x) :- T(x)\nT(x) :- P(x)")
        unit_rules = program.unit_rules()
        assert len(unit_rules) == 2  # P:-T and T:-P (P:-E has an EDB body atom)


class TestGrounding:
    def test_figure7_grounding(self):
        ground = ground_program(figure7_program(), figure7_database())
        # derivable Q atoms: ab, ac, cb, bd, dd, ad, cd (the paper's figure omits cd)
        idb = {atom.values for atom in ground.idb_atoms}
        assert idb == {
            ("a", "b"), ("a", "c"), ("c", "b"), ("b", "d"), ("d", "d"), ("a", "d"), ("c", "d"),
        }
        assert len(ground.edb_atoms) == 5

    def test_missing_edb_relation_raises(self):
        db = Database(BooleanSemiring())
        with pytest.raises(GroundingError):
            ground_program(Program.parse("Q(x) :- R(x, x)"), db)

    def test_edb_arity_mismatch_raises(self):
        db = Database(BooleanSemiring())
        db.create("R", ["a"], [("x",)])
        with pytest.raises(GroundingError):
            ground_program(Program.parse("Q(x) :- R(x, x)"), db)

    def test_ground_rule_bodies_are_ordered_tuples(self):
        """The same atom may appear twice in a grounded body (needed for counting)."""
        db = Database(NaturalsSemiring())
        db.create("R", ["x", "y"], [(("a", "a"), 2)])
        ground = ground_program(Program.parse("Q(x, y) :- R(x, z), R(z, y)"), db)
        (rule,) = ground.ground_rules
        assert rule.body == (GroundAtom("R", ("a", "a")), GroundAtom("R", ("a", "a")))

    def test_cycle_analysis_on_figure7(self):
        ground = ground_program(figure7_program(), figure7_database())
        infinite = {atom.values for atom in ground.atoms_with_infinite_derivations()}
        # the self-loop d->d pumps b->d, a->d, c->d as well
        assert infinite == {("d", "d"), ("b", "d"), ("a", "d"), ("c", "d")}
        # no grounded *unit*-rule cycles in transitive closure
        assert ground.atoms_with_unit_rule_cycles() == frozenset()

    def test_unit_rule_cycle_detection(self):
        db = Database(BooleanSemiring())
        db.create("E", ["x"], [("a",)])
        program = Program.parse("P(x) :- E(x)\nP(x) :- T(x)\nT(x) :- P(x)")
        ground = ground_program(program, db)
        cyclic = {(atom.relation, atom.values) for atom in ground.atoms_with_unit_rule_cycles()}
        assert ("P", ("a",)) in cyclic and ("T", ("a",)) in cyclic

    def test_acyclic_program_has_no_infinite_atoms(self):
        db = Database(BooleanSemiring())
        db.create("R", ["x", "y"], [("a", "b"), ("b", "c")])
        ground = ground_program(Program.parse("Q(x, z) :- R(x, y), R(y, z)"), db)
        assert ground.atoms_with_infinite_derivations() == frozenset()
        assert ground.output_atoms() == frozenset({GroundAtom("Q", ("a", "c"))})
