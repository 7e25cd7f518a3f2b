"""Circuit/polynomial agreement on real queries (Prop. 4.2 / Thms 4.3, 6.4).

Property-style checks: the *same* RA query or datalog program, run once over
``N[X]`` and once over ``Circ[X]`` with identical tuple ids, must produce
annotations with ``to_polynomial(circuit) == polynomial`` tuple for tuple,
and identical ``Eval_v`` results in N (bag), Tropical, PosBool and the
probabilistic event semiring.
"""

import random

import pytest

from repro.algebra import Q
from repro.circuits import CircuitSemiring, specialize, to_polynomial
from repro.datalog import (
    all_trees,
    datalog_circuit_provenance,
    evaluate,
)
from repro.errors import DatalogError
from repro.relations.tagging import abstractly_tag_database
from repro.semirings import (
    EventSemiring,
    EventSpace,
    NaturalsSemiring,
    PosBoolSemiring,
    TropicalSemiring,
)
from repro.semirings.posbool import BoolExpr
from repro.workloads import (
    figure6_database,
    figure6_program,
    figure7_database,
    figure7_edb_ids,
    figure7_program,
    random_graph_database,
    star_join_database,
    transitive_closure_program,
)

CIRC = CircuitSemiring()


def random_query(rng: random.Random):
    """A random positive-RA query over the star schema F(a,b,c), D1(a,x), D2(b,y)."""
    query = Q.relation("F")
    if rng.random() < 0.8:
        query = query.join(Q.relation("D1"))
    if rng.random() < 0.8:
        query = query.join(Q.relation("D2"))
    if rng.random() < 0.5:
        query = query.union(query)
    attributes = rng.choice([("a", "b"), ("a",), ("a", "b", "c")])
    return query.project(*attributes)


def tagged_pair(database):
    """The same database abstractly tagged as polynomials and as circuits."""
    poly_tagged = abstractly_tag_database(database)
    circ_tagged = abstractly_tag_database(database, semiring=CIRC)
    assert set(poly_tagged.valuation) == set(circ_tagged.valuation)
    return poly_tagged, circ_tagged


def _targets(valuation):
    """Target semirings + valuations for the Eval_v agreement checks."""
    variables = sorted(valuation)
    worlds = {f"w{i}": 1 / (len(variables) + 1) for i in range(len(variables) + 1)}
    space = EventSpace(worlds, normalize=True)
    event_names = sorted(worlds)
    return [
        (NaturalsSemiring(), {x: i + 2 for i, x in enumerate(variables)}),
        (TropicalSemiring(), {x: float(i % 7) for i, x in enumerate(variables)}),
        (PosBoolSemiring(), {x: BoolExpr.var(x) for x in variables}),
        (
            EventSemiring(space),
            {
                x: frozenset(event_names[: (i % len(event_names)) + 1])
                for i, x in enumerate(variables)
            },
        ),
    ]


@pytest.mark.parametrize("seed", [11, 23, 37, 51])
def test_random_ra_queries_agree(seed):
    rng = random.Random(seed)
    database = star_join_database(
        NaturalsSemiring(), fact_tuples=25, dimension_tuples=8, domain_size=6, seed=seed
    )
    poly_tagged, circ_tagged = tagged_pair(database)
    for _ in range(3):
        query = random_query(rng)
        poly_result = query.evaluate(poly_tagged.database)
        circ_result = query.evaluate(circ_tagged.database)
        assert poly_result.support == circ_result.support
        assert len(poly_result) > 0
        for tup in poly_result.support:
            assert to_polynomial(circ_result[tup]) == poly_result[tup]
        for target, valuation in _targets(poly_tagged.valuation):
            specialized = specialize(circ_result, target, valuation)
            expected = poly_result.map_annotations(
                lambda p: p.evaluate(target, valuation), target
            )
            assert specialized.equal_to(expected)


def test_figure6_datalog_program_agrees():
    database = figure6_database()
    prov = datalog_circuit_provenance(figure6_program(), database)
    trees = all_trees(figure6_program(), database)
    assert not prov.divergent
    assert prov.to_polynomials() == dict(trees.polynomials)
    # Evaluating the circuits at the original multiplicities reproduces the
    # bag fixpoint (Theorem 6.4 on the acyclic program).
    bag = NaturalsSemiring()
    valuation = {
        name: database.relation(atom.relation).annotation(atom.values)
        for atom, name in prov.edb_ids.items()
    }
    values = prov.evaluate(bag, valuation)
    direct = evaluate(figure6_program(), database)
    for atom, value in values.items():
        if atom.relation == prov.ground.program.output:
            assert value == direct.annotation(atom.values)


def test_figure7_datalog_program_agrees_on_convergent_atoms():
    database = figure7_database()
    prov = datalog_circuit_provenance(
        figure7_program(), database, edb_ids=figure7_edb_ids()
    )
    trees = all_trees(figure7_program(), database, edb_ids=figure7_edb_ids())
    assert prov.divergent == trees.infinite
    assert prov.to_polynomials() == dict(trees.polynomials)
    # The convergent Figure 7 provenance: Q(a,b) = m + n·p.
    assert str(to_polynomial(prov.provenance(("a", "b")))) == "m + n·p"
    with pytest.raises(DatalogError):
        prov.provenance(("b", "d"))  # passes through the cycle: series territory


@pytest.mark.parametrize("linear", [True, False], ids=["linear", "quadratic"])
def test_transitive_closure_on_random_graphs_agrees(linear):
    database = random_graph_database(
        NaturalsSemiring(), nodes=9, edge_probability=0.18, seed=3
    )
    program = transitive_closure_program(linear=linear)
    prov = datalog_circuit_provenance(program, database)
    trees = all_trees(program, database)
    assert prov.divergent == trees.infinite
    assert prov.to_polynomials() == dict(trees.polynomials)
    for target, valuation in _targets(
        {name: 1 for name in prov.edb_ids.values()}
    ):
        circuit_values = prov.evaluate(target, valuation)
        for atom, value in circuit_values.items():
            expected = trees.polynomials[atom].evaluate(target, valuation)
            assert value == expected


def test_algebraic_system_solve_honors_skip_mode():
    """solve() must match the fixpoint engine's on_divergence vocabulary."""
    from repro.datalog import build_algebraic_system
    from repro.relations.database import Database

    database = Database(NaturalsSemiring())
    database.create("E", ["x"], [("a",)])
    program = "P(x) :- E(x)\nP(x) :- P(x)\nOut(x) :- P(x)"
    from repro.datalog.syntax import Program

    system = build_algebraic_system(Program.parse(program, output="Out"), database)
    # N has no top: skip keeps nothing here (everything routes through the cycle)...
    solution = system.solve(NaturalsSemiring(), on_divergence="skip")
    assert solution == {}
    # ...and unknown modes are rejected instead of silently meaning "top".
    with pytest.raises(ValueError):
        system.solve(NaturalsSemiring(), on_divergence="meh")
    # Parity with the engine on Figure 7: same kept atoms, same values.
    from repro.datalog import evaluate_program

    n_db = figure7_database(NaturalsSemiring())
    engine = evaluate_program(figure7_program(), n_db, on_divergence="skip")
    fig7_system = build_algebraic_system(figure7_program(), n_db)
    fig7_solution = fig7_system.solve(NaturalsSemiring(), on_divergence="skip")
    assert fig7_solution == dict(engine.annotations)


def test_fixpoint_skip_mode_keeps_only_convergent_atoms():
    """on_divergence='skip' in the engine: exact values for the acyclic part."""
    from repro.datalog import evaluate_program

    database = figure7_database(NaturalsSemiring())
    program = figure7_program()
    result = evaluate_program(program, database, on_divergence="skip")
    assert result.divergent_atoms  # the cycle through d
    assert all(atom not in result.annotations for atom in result.divergent_atoms)
    # Convergent multiplicities match the N∞ run (which uses top for the rest).
    from repro.semirings import CompletedNaturalsSemiring

    natinf_result = evaluate_program(
        program, figure7_database(CompletedNaturalsSemiring())
    )
    for atom, value in result.annotations.items():
        assert natinf_result.annotations[atom].finite_value() == value
