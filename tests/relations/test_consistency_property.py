"""Property test: the stored-zero invariant survives arbitrary mutations.

Definition 3.1 requires a K-relation to store exactly its support -- no
tuple may carry a zero annotation, and every stored value must be a carrier
element.  ``add``, ``set``, ``discard`` and ``merge_delta`` each maintain
the invariant individually (the PR 3 cancellation regressions check
``merge_delta`` in isolation); this suite extends that to *arbitrary
interleavings* of all four mutators, with annotations drawn from the full
element strategy (zeros, ones, sums, products, and -- over rings --
negations, so exact cancellations occur regularly).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import DOMAIN, semiring_elements

from repro.relations.krelation import KRelation
from repro.semirings import get_semiring

#: Semirings whose mutation behaviour differs structurally: plain numeric,
#: idempotent lattice, symbolic, and the rings where cancellation to zero
#: is reachable through ordinary additions.
MUTATION_SEMIRING_NAMES = ("bag", "tropical", "posbool", "z", "zx")

ATTRIBUTES = ("a", "b")

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _rows(draw):
    return tuple(draw(st.sampled_from(DOMAIN)) for _ in ATTRIBUTES)


@st.composite
def _operations(draw, semiring):
    """A random interleaving of add/set/discard/merge_delta operations."""
    operations = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(("add", "set", "discard", "merge_delta")))
        if kind == "discard":
            operations.append(("discard", draw(_rows()), None))
        elif kind == "merge_delta":
            updates = [
                (draw(_rows()), draw(semiring_elements(semiring)))
                for _ in range(draw(st.integers(min_value=0, max_value=4)))
            ]
            operations.append(("merge_delta", None, updates))
        else:
            operations.append(
                (kind, draw(_rows()), draw(semiring_elements(semiring)))
            )
    return operations


@pytest.mark.parametrize("semiring_name", MUTATION_SEMIRING_NAMES)
@given(data=st.data())
@SETTINGS
def test_check_consistency_after_arbitrary_interleavings(semiring_name, data):
    semiring = get_semiring(semiring_name)
    relation = KRelation(semiring, ATTRIBUTES)
    for kind, row, payload in data.draw(_operations(semiring), label="operations"):
        if kind == "add":
            relation.add(row, payload)
        elif kind == "set":
            relation.set(row, payload)
        elif kind == "discard":
            relation.discard(row)
        else:
            # merge_delta takes any row form but does not coerce values:
            # carrier values, exactly what the coercing mutators produce.
            updates = [(r, semiring.coerce(v)) for r, v in payload]
            delta = relation.merge_delta(updates)
            delta.check_consistency()
        relation.check_consistency()


@pytest.mark.parametrize("semiring_name", ("z", "zx"))
@given(data=st.data())
@SETTINGS
def test_cancelling_additions_never_store_zero(semiring_name, data):
    """Over rings, a value and its negation must cancel cleanly everywhere."""
    semiring = get_semiring(semiring_name)
    relation = KRelation(semiring, ATTRIBUTES)
    row = data.draw(_rows(), label="row")
    value = data.draw(semiring_elements(semiring), label="value")
    relation.add(row, value)
    relation.add(row, semiring.negate(value))
    relation.check_consistency()
    assert row not in relation or not semiring.is_zero(relation.annotation(row))
    assert semiring.is_zero(relation.annotation(row))
