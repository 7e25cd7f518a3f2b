"""Semiring (and ring) axioms for every registered semiring.

Proposition 3.4's algebraic side, upgraded from fixed sample pools to a
hypothesis-driven property suite: elements are random ``+``/``.``
combinations of each semiring's generators (``tests/strategies.py``), and
the laws are checked over *every* structure in the registry -- including the
ring axioms (additive inverses) for the structures that declare
``has_negation``.  The fixed-pool checks of
:func:`repro.semirings.check_semiring_axioms` are kept as a cheap exhaustive
pass plus a negative control.  Every declared array carrier
(:mod:`repro.semirings.carriers`) must agree with its semiring's scalar
operations element for element, or decline.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import semiring_elements

from repro.circuits import to_polynomial
from repro.engine import vectorized
from repro.semirings import (
    available_semirings,
    check_distributive_lattice,
    check_semiring_axioms,
    get_semiring,
)
from repro.semirings import PosBoolSemiring, TropicalSemiring
from repro.semirings.base import Semiring
from repro.semirings.carriers import _Fallback
from repro.semirings.properties import natural_order_is_partial_order

from tests.conftest import ALL_SEMIRINGS, LATTICE_SEMIRINGS, sample_elements

AXIOM_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _registry_semirings() -> list[Semiring]:
    """One instance per distinct registered semiring (names are aliases)."""
    by_name: dict[str, Semiring] = {}
    for registry_name in available_semirings():
        semiring = get_semiring(registry_name)
        by_name.setdefault(semiring.name, semiring)
    return [by_name[name] for name in sorted(by_name)]


REGISTRY_SEMIRINGS = _registry_semirings()
RING_SEMIRINGS = [s for s in REGISTRY_SEMIRINGS if s.has_negation]


def _eq(semiring: Semiring, left, right) -> bool:
    """Semantic equality: circuits compare by the polynomial they denote.

    Hash-consed circuit DAGs are canonical up to associativity and
    commutativity but not distributivity, so the distributive law (and any
    law whose two sides multiply differently) must be compared semantically.
    """
    if semiring.name == "Circ[X]":
        return to_polynomial(left) == to_polynomial(right)
    return left == right


@pytest.mark.parametrize("semiring", REGISTRY_SEMIRINGS, ids=lambda s: s.name)
@AXIOM_SETTINGS
@given(data=st.data())
def test_semiring_axioms_on_random_elements(semiring, data):
    a = data.draw(semiring_elements(semiring), label="a")
    b = data.draw(semiring_elements(semiring), label="b")
    c = data.draw(semiring_elements(semiring), label="c")
    zero, one = semiring.zero(), semiring.one()
    add, mul = semiring.add, semiring.mul

    # (K, +, 0) commutative monoid
    assert _eq(semiring, add(a, zero), a)
    assert _eq(semiring, add(a, b), add(b, a))
    assert _eq(semiring, add(add(a, b), c), add(a, add(b, c)))
    # (K, ., 1) commutative monoid, 0 annihilates
    assert _eq(semiring, mul(a, one), a)
    assert _eq(semiring, mul(a, b), mul(b, a))
    assert _eq(semiring, mul(mul(a, b), c), mul(a, mul(b, c)))
    assert _eq(semiring, mul(a, zero), zero)
    # distributivity
    assert _eq(semiring, mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
    # declared idempotence
    if semiring.idempotent_add:
        assert _eq(semiring, add(a, a), a)
    if semiring.idempotent_mul:
        assert _eq(semiring, mul(a, a), a)
    # declared selectivity: + returns a summand, and the hook accepts it
    if semiring.selective_add:
        total = add(a, b)
        assert total == a or total == b
        assert semiring.idempotent_add
        assert semiring.may_attain(total, a if total == a else b)


@pytest.mark.parametrize("semiring", RING_SEMIRINGS, ids=lambda s: s.name)
@AXIOM_SETTINGS
@given(data=st.data())
def test_ring_axioms_on_random_elements(semiring, data):
    a = data.draw(semiring_elements(semiring), label="a")
    b = data.draw(semiring_elements(semiring), label="b")
    zero = semiring.zero()

    assert semiring.add(a, semiring.negate(a)) == zero
    assert semiring.negate(semiring.negate(a)) == a
    assert semiring.negate(zero) == zero
    # negation is the additive inverse homomorphically
    assert semiring.negate(semiring.add(a, b)) == semiring.add(
        semiring.negate(a), semiring.negate(b)
    )
    assert semiring.mul(semiring.negate(a), b) == semiring.negate(semiring.mul(a, b))
    # derived operations
    assert semiring.subtract(a, b) == semiring.add(a, semiring.negate(b))
    assert semiring.subtract(a, a) == zero
    assert semiring.scale(-1, a) == semiring.negate(a)
    assert semiring.from_int(-2) == semiring.negate(
        semiring.add(semiring.one(), semiring.one())
    )


CARRIER_SEMIRINGS = [s for s in REGISTRY_SEMIRINGS if s.carrier is not None]

#: Where ``int64`` / IEEE arithmetic could part from Python's: each carrier
#: is fed the ones its semiring contains.
CARRIER_EDGES = (2**62, -(2**62), 2**63 - 1, -(2**63), math.inf, 0.0, -0.0)


def _exactly(expected, run):
    """``run()`` equals ``expected`` by value and Python type, or declines."""
    try:
        got = run().tolist()  # how the engines lower arrays to annotations
    except _Fallback:
        return  # a decline is always allowed: the row engines redo the work
    assert got == expected
    assert [type(value) for value in got] == [type(value) for value in expected]


def _check_carrier(semiring, left, right, groups, n_groups):
    """Each carrier op against the scalar op it batches, element for element."""
    import numpy as np

    carrier = semiring.carrier
    lifted = lambda: (carrier.to_array(left), carrier.to_array(right))  # noqa: E731
    _exactly(left, lambda: carrier.to_array(left))
    expected = [semiring.mul(a, b) for a, b in zip(left, right)]
    _exactly(expected, lambda: carrier.mul(*lifted()))
    expected = [semiring.add(a, b) for a, b in zip(left, right)]
    _exactly(expected, lambda: carrier.add(*lifted()))
    folds = [semiring.zero()] * n_groups
    for group, value in zip(groups, left):
        folds[group] = semiring.add(folds[group], value)
    group_ids = np.array(groups, dtype=np.int64)
    _exactly(folds, lambda: carrier.accumulate(carrier.to_array(left), group_ids, n_groups))
    try:
        mask = carrier.zero_mask(carrier.to_array(left)).tolist()
    except _Fallback:
        return
    assert mask == [semiring.is_zero(value) for value in left]


def _edges(semiring) -> list:
    return [edge for edge in CARRIER_EDGES if semiring.contains(edge)]


requires_numpy = pytest.mark.skipif(
    not vectorized.numpy_available(), reason="carriers need numpy"
)


@requires_numpy
@pytest.mark.parametrize("semiring", CARRIER_SEMIRINGS, ids=lambda s: s.name)
@AXIOM_SETTINGS
@given(data=st.data())
def test_carrier_agrees_with_the_scalar_operations(semiring, data):
    element = st.one_of(semiring_elements(semiring), *map(st.just, _edges(semiring)))
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=6), label="pairs")
    n_groups = data.draw(st.integers(min_value=1, max_value=3), label="groups")
    groups = data.draw(
        st.lists(st.integers(0, n_groups - 1), min_size=len(pairs), max_size=len(pairs)),
        label="group ids",
    )
    left = [semiring.coerce(a) for a, _ in pairs]
    right = [semiring.coerce(b) for _, b in pairs]
    _check_carrier(semiring, left, right, groups, n_groups)


@requires_numpy
@pytest.mark.parametrize("semiring", CARRIER_SEMIRINGS, ids=lambda s: s.name)
def test_carrier_agrees_at_the_edges(semiring):
    # Every pair of edges and small values, as a two-row batch in one group:
    # a guard must see the edge even when the other row is small.
    small = [semiring.zero(), semiring.one(), semiring.from_int(2)]
    if semiring.has_negation:
        small.append(semiring.negate(semiring.one()))
    values = [semiring.coerce(value) for value in small + _edges(semiring)]
    for a in values:
        for b in values:
            _check_carrier(semiring, [a, b], [b, a], [0, 0], 1)


@pytest.mark.parametrize("semiring", REGISTRY_SEMIRINGS, ids=lambda s: s.name)
def test_semirings_without_negation_refuse_negate(semiring):
    if semiring.has_negation:
        pytest.skip(f"{semiring.name} is a ring")
    from repro.errors import SemiringError

    with pytest.raises(SemiringError):
        semiring.negate(semiring.one())
    with pytest.raises(SemiringError):
        semiring.scale(-1, semiring.one())


# ---------------------------------------------------------------------------
# Fixed-pool exhaustive checks (cheap, kept from the original suite)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_commutative_semiring_axioms(semiring):
    report = check_semiring_axioms(semiring, sample_elements(semiring))
    assert report.ok, report.violations


#: The semirings whose ``+`` selects a summand.  Lattices with incomparable
#: elements (PosBool, Why), products and everything non-idempotent must not
#: claim it: ``a + b`` there can differ from both summands.
SELECTIVE_NAMES = {"B", "Tropical", "Fuzzy", "Viterbi"}


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_selective_add_is_declared_exactly_where_it_holds(semiring):
    assert len(ALL_SEMIRINGS) == 13
    assert semiring.selective_add == (semiring.name in SELECTIVE_NAMES)
    pool = [semiring.coerce(a) for a in sample_elements(semiring)]
    if semiring.selective_add:
        assert all(semiring.add(a, b) in (a, b) for a in pool for b in pool)
    # The hook discriminates only where products can differ; B's (the
    # default) accepts everything, so DRed over-deletes all it supports.
    discriminates = not semiring.may_attain(semiring.one(), semiring.zero())
    assert discriminates == (semiring.name in SELECTIVE_NAMES - {"B"})


def test_may_attain_tolerates_reassociated_float_products():
    tropical, viterbi = get_semiring("tropical"), get_semiring("viterbi")
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    assert tropical.may_attain((0.1 + 0.2) + 0.3, 0.1 + (0.2 + 0.3))
    assert tropical.may_attain(0.1 + (0.2 + 0.3), (0.1 + 0.2) + 0.3)
    assert not tropical.may_attain(0.6, 0.6 + 1e-6)
    assert tropical.may_attain(0.0, 0.0) and not tropical.may_attain(0.0, 1e-300)
    assert (0.1 * 0.1) * 0.3 != 0.1 * (0.1 * 0.3)
    assert viterbi.may_attain((0.1 * 0.1) * 0.3, 0.1 * (0.1 * 0.3))
    assert viterbi.may_attain(0.1 * (0.1 * 0.3), (0.1 * 0.1) * 0.3)
    assert not viterbi.may_attain(0.5, 0.5 - 1e-6)


def test_wrongly_declared_selective_add_fails_axiom_check():
    class ClaimsSelective(PosBoolSemiring):
        selective_add = True

    report = check_semiring_axioms(ClaimsSelective(), sample_elements(PosBoolSemiring()))
    assert any("declared selective +" in v for v in report.violations)

    class StrictHook(TropicalSemiring):
        def may_attain(self, total, contribution):
            return contribution < total  # rejects the attained summand itself

    report = check_semiring_axioms(StrictHook(), [1.0, 2.5])
    assert any("may_attain" in v for v in report.violations)


@pytest.mark.parametrize("semiring", LATTICE_SEMIRINGS, ids=lambda s: s.name)
def test_declared_lattices_satisfy_absorption(semiring):
    report = check_distributive_lattice(semiring, sample_elements(semiring))
    assert report.ok, report.violations


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_zero_is_distinct_from_one(semiring):
    # Definition 3.2 requires two distinct distinguished values 0 != 1.  For
    # why-provenance this holds thanks to the Lin(X) bottom element ⊥.
    assert semiring.zero() != semiring.one()


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_natural_order_is_partial_order_on_samples(semiring):
    try:
        report = natural_order_is_partial_order(semiring, sample_elements(semiring))
    except NotImplementedError:
        pytest.skip(f"{semiring.name} does not expose a natural-order decision procedure")
    assert report.ok, report.violations


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_from_int_embeds_naturals(semiring):
    zero = semiring.from_int(0)
    one = semiring.from_int(1)
    assert zero == semiring.zero()
    assert one == semiring.one()
    three = semiring.from_int(3)
    # n -> sum of n ones; for idempotent semirings every positive n collapses to 1.
    if semiring.idempotent_add:
        assert three == semiring.one()
    else:
        assert three == semiring.add(semiring.add(one, one), one)


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_sum_and_product_of_empty_iterables(semiring):
    assert semiring.sum([]) == semiring.zero()
    assert semiring.product([]) == semiring.one()


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_power_and_scale(semiring):
    for value in sample_elements(semiring)[:3]:
        value = semiring.coerce(value)
        assert semiring.power(value, 0) == semiring.one()
        assert semiring.power(value, 1) == value
        assert semiring.scale(0, value) == semiring.zero()
        assert semiring.scale(1, value) == value


def test_broken_structure_fails_axiom_check():
    class BrokenSemiring(Semiring):
        """Subtraction-flavoured structure: not associative/commutative-compatible."""

        name = "broken"

        def zero(self):
            return 0

        def one(self):
            return 1

        def add(self, a, b):
            return a - b  # not commutative, wrong identity behaviour

        def mul(self, a, b):
            return a * b

        def contains(self, value):
            return isinstance(value, int)

    report = check_semiring_axioms(BrokenSemiring(), [1, 2, 3])
    assert not report.ok
    assert any("commutativity of +" in v for v in report.violations)
