"""The explicit world space behind the event-returning probabilistic APIs.

``IndependentEventSpace`` builds its ``2^n`` worlds lazily and memoizes
event probabilities; the compiled path never touches it.
"""

from __future__ import annotations

import pytest


class TestEventSpaceMemo:
    """``IndependentEventSpace.probability`` memoizes per distinct event.

    The space is immutable after ``_build`` -- marginals are fixed at
    construction and the 2^n world set never changes -- so the memo is never
    invalidated.  It is also lazy: nothing is built until first use.
    """

    def test_space_is_lazy_until_first_use(self):
        from repro.probabilistic import IndependentEventSpace

        space = IndependentEventSpace({"e1": 0.5, "e2": 0.25})
        assert not space.is_built
        space.probability(space.event("e1"))
        assert space.is_built

    def test_memo_grows_and_hits(self):
        from repro.probabilistic import IndependentEventSpace

        space = IndependentEventSpace({"e1": 0.5, "e2": 0.25})
        e1 = space.event("e1")
        first = space.probability(e1)
        assert len(space._probability_memo) == 1
        # The memoized value is returned (same float object, no recompute).
        assert space.probability(frozenset(e1)) is first
        assert len(space._probability_memo) == 1
        space.probability(space.event("e2"))
        assert len(space._probability_memo) == 2
        assert first == pytest.approx(0.5)
