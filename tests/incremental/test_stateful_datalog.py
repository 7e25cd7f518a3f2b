"""A stateful sweep of :class:`IncrementalDatalog` over its array state.

Hypothesis drives one maintained fixpoint through an interleaving of EDB
insertions, removals and annotation rewrites -- over B and Tropical, for
linear and quadratic transitive closure -- and after
every step checks that :meth:`IncrementalDatalog.check_consistency` holds
(which audits the array state against the stores), that the result equals a
fresh evaluation on the row loop, and that the maintained engine still runs
the array loop on the state object it built first: every update is mirrored
in place, none rebuilds it (the starting edges name every node, so no update
outgrows the radix).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from strategies import row_loop

from repro.datalog import evaluate_program
from repro.engine import vectorized
from repro.incremental import IncrementalDatalog
from repro.relations.database import Database
from repro.semirings import get_semiring

pytestmark = pytest.mark.skipif(
    not vectorized.numpy_available(),
    reason="the array path needs a numpy runtime",
)

PROGRAMS = {
    "linear": "T(x, y) :- R(x, y)\nT(x, z) :- R(x, y), T(y, z)",
    "quadratic": "T(x, y) :- R(x, y)\nT(x, z) :- T(x, y), T(y, z)",
}
NODES = ("a", "b", "c", "d", "e")
#: Dyadic costs: every path sum is exact, so results compare with ``==``.
COSTS = (0.5, 1.0, 2.0, 3.5)

EDGES = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))

STATEFUL_SETTINGS = settings(
    max_examples=10,
    stateful_step_count=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class MaintainedDatalog(RuleBasedStateMachine):
    def __init__(self, semiring_name: str, program: str):
        super().__init__()
        self.semiring = get_semiring(semiring_name)
        self.database = Database(self.semiring)
        chain = [((NODES[i], NODES[i + 1]), self.semiring.one()) for i in range(len(NODES) - 1)]
        self.database.create("R", ["x", "y"], chain)
        self.maintained = IncrementalDatalog(PROGRAMS[program], self.database)
        self.state = self.maintained._engine._arrays
        assert self.state is not None

    def _edges(self):
        return sorted(tup.values_for(("x", "y")) for tup in self.database.relation("R"))

    def _annotation(self, data):
        if self.semiring.name == "B":
            return True
        return data.draw(st.sampled_from(COSTS), label="cost")

    @rule(rows=st.lists(EDGES, min_size=1, max_size=3), data=st.data())
    def insert(self, rows, data):
        self.maintained.insert("R", [(row, self._annotation(data)) for row in rows])

    @precondition(lambda self: self._edges())
    @rule(data=st.data())
    def remove(self, data):
        doomed = data.draw(
            st.lists(st.sampled_from(self._edges()), min_size=1, max_size=2, unique=True),
            label="removed",
        )
        self.maintained.remove("R", doomed)

    @precondition(lambda self: self._edges())
    @rule(data=st.data())
    def rewrite(self, data):
        # An existing fact with a better annotation: Tropical halves its cost
        # (the merge rewrites the stored value); B has nothing better than
        # true, so the insertion must change nothing.
        edge = data.draw(st.sampled_from(self._edges()), label="rewritten")
        current = self.database.relation("R").annotation(edge)
        better = True if self.semiring.name == "B" else current / 2
        self.maintained.insert("R", [(edge, better)])
        assert self.database.relation("R").annotation(edge) == better

    @invariant()
    def equals_a_fresh_row_loop_evaluation(self):
        self.maintained.check_consistency()
        with row_loop():
            fresh = evaluate_program(self.maintained.program, self.database)
        result = self.maintained.result
        assert result.annotations == fresh.annotations
        assert result.ground.derivable == fresh.ground.derivable
        engine = self.maintained._engine
        assert engine.round_path == "array" and engine._arrays is self.state


@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("semiring_name", ("bool", "tropical"))
def test_update_interleavings_keep_the_array_state_exact(semiring_name, program):
    run_state_machine_as_test(
        lambda: MaintainedDatalog(semiring_name, program),
        settings=STATEFUL_SETTINGS,
    )
