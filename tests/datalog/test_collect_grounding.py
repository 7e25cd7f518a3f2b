"""The collect-run grounder against the paper-literal one, and what it costs.

:func:`repro.datalog.ground_program` is the semi-naive engine's collect run
over the Boolean support, int-coded; ``grounding_reference.py`` re-matches
every rule against whole relations each round.  On random programs from
``tests/strategies.py`` both must list the same ground rules, the same
derivable atoms and the same EDB facts.  The int-coded solver must do the
semiring arithmetic the object-keyed one did (Definition 3.2 counts it),
and atom ids -- discovery order -- must not depend on the hash seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import programs_with_databases

from repro import CompletedNaturalsSemiring, NaturalsSemiring, OpCounter, instrument
from repro.datalog import Program, evaluate_program, ground_program
from repro.relations import Database
from repro.workloads.generators import chain_graph_database
from repro.workloads.paper_instances import transitive_closure_program

from tests.datalog.grounding_reference import reference_ground_program

REPO = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("recursive", (False, True))
@pytest.mark.parametrize("semiring_name", ("bag", "nx"))
@given(data=st.data())
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_collect_run_grounds_like_the_reference(semiring_name, recursive, data):
    program, database = data.draw(programs_with_databases(semiring_name, recursive=recursive))
    ground = ground_program(program, database)
    expected = reference_ground_program(program, database)
    assert Counter(ground.ground_rules) == Counter(expected.ground_rules)
    assert ground.derivable == expected.derivable
    assert ground.edb_annotations == expected.edb_annotations


def test_a_hundred_edge_chain_grounds_in_one_collect_run():
    """5,050 ground rules; ``grounding_reference.py`` needs about a minute for them."""
    database = chain_graph_database(NaturalsSemiring(), length=100)
    result = evaluate_program(transitive_closure_program(linear=True), database)
    assert len(result.ground.ground_rules) == 5050
    assert len(result.annotations) == 5050


def _tail_cycle_dag(semiring) -> Database:
    """``d_i -> d_{i+o}`` for ``o`` in (1, 2, 5) on 32 nodes, closed by ``d31 -> d30``."""
    edges = [((f"d{i}", f"d{i + o}"), 2) for i in range(32) for o in (1, 2, 5) if i + o < 32]
    edges.append((("d31", "d30"), 2))
    database = Database(semiring)
    database.create("R", ["x", "y"], edges)
    return database


def test_solver_arithmetic_is_pinned():
    """The int-coded solver does exactly the object-keyed solver's ``T_q``
    arithmetic: one ``+`` per rule, a ``*`` and an ``is_zero`` per body atom."""
    counter = OpCounter()
    database = _tail_cycle_dag(instrument(CompletedNaturalsSemiring(), counter))
    assert counter.snapshot() == {"plus": 0, "times": 0, "is_zero": 89}
    counter.reset()
    program = Program.parse("T(x, y) :- R(x, y)\nT(x, y) :- R(x, z), T(z, y)")
    result = evaluate_program(program, database)
    assert len(result.ground.ground_rules) == 1351
    assert len(result.annotations) == 499
    assert len(result.divergent_atoms) == 64
    assert counter.snapshot() == {"plus": 1166, "times": 2250, "is_zero": 2250}


_HASH_SEED_PROBE = textwrap.dedent(
    """
    import json
    from repro import Database, NaturalsSemiring
    from repro.circuits.nodes import node_count
    from repro.datalog import Program, datalog_circuit_provenance, ground_program

    program = Program.parse(
        "P(x, y) :- R(x, y)\\n"
        "Q(x, y) :- P(x, z), S(z, y)\\n"
        "P(x, y) :- Q(x, z), R(z, y)\\n"
        "Q(x, x) :- S(x, x)"
    )
    database = Database(NaturalsSemiring())
    names = ["ann", "bob", "cy", "dee", "eve", "fay"]
    database.create("R", ["a", "b"], [((u, v), 1) for u, v in zip(names, names[1:])])
    database.create("S", ["a", "b"], [((u, u), 2) for u in names[::2]] + [(("fay", "ann"), 1)])
    ground = ground_program(program, database)
    circuits = datalog_circuit_provenance(program, database).circuits
    print(json.dumps([
        [str(rule) for rule in ground.ground_rules],
        [[str(atom), node_count(circuit)] for atom, circuit in circuits.items()],
    ]))
    """
)


def test_grounding_does_not_depend_on_the_hash_seed():
    """Atom ids follow discovery order, so the rule order and the circuits
    built over it come out the same under any ``PYTHONHASHSEED``."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(json.loads(completed.stdout))
    assert outputs[0][0] and outputs[0][1]
    assert outputs[0] == outputs[1]
