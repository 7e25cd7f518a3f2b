"""Differential + invariant suite for the canonical sparse-term kernel.

``N[X]``, ``Z[X]`` and ``N-inf[[X]]`` share one kernel
(:mod:`repro.semirings.terms`) whose arithmetic results skip the validating
constructors.  Every result is checked here against a paper-literal reference
that shares no code with it -- a polynomial is a bag of monomials, a monomial
a bag of variable occurrences, ``+`` is bag union, ``.`` pairs everything with
everything -- and against the canonical-form invariants the rest of the
library relies on (sorted terms, no stored zero, ``==`` / ``hash`` / ``str`` /
pickle agreeing with objects built through the public constructors).
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAnnotationError
from repro.semirings import (
    CompletedNaturalsSemiring,
    FormalPowerSeries,
    IntegerPolynomialRing,
    Monomial,
    Polynomial,
    PolynomialSemiring,
    PowerSeriesSemiring,
    ZPolynomial,
)
from repro.semirings.numeric import INFINITY, NatInf
from strategies import semiring_elements

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

NX = PolynomialSemiring()
ZX = IntegerPolynomialRing()


# -- the reference: {sorted tuple of variable occurrences: coefficient} ---------------


def plain(coefficient):
    """A coefficient as a plain number (``math.inf`` for the infinite ``NatInf``)."""
    if isinstance(coefficient, NatInf):
        return math.inf if coefficient.is_infinite else coefficient.finite_value()
    return coefficient


def expand(value):
    """A kernel value as a reference bag of monomials."""
    return {
        tuple(v for v, e in monomial.powers for _ in range(e)): plain(coefficient)
        for monomial, coefficient in value.terms
    }


def combined(a, b):
    """The truncation of a result: the smaller of the operands' (None = exact)."""
    degrees = [d for d in (a, b) if d is not None]
    return min(degrees) if degrees else None


def ref_add(a, b, cut=None):
    out = dict(a)
    for bag, coefficient in b.items():
        out[bag] = out.get(bag, 0) + coefficient
    return {
        bag: c for bag, c in out.items() if c != 0 and (cut is None or len(bag) <= cut)
    }


def ref_mul(a, b, cut=None):
    out = {}
    for bag1, c1 in a.items():
        for bag2, c2 in b.items():
            bag = tuple(sorted(bag1 + bag2))
            out[bag] = out.get(bag, 0) + c1 * c2
    return {
        bag: c for bag, c in out.items() if c != 0 and (cut is None or len(bag) <= cut)
    }


# -- the invariants ---------------------------------------------------------------------


def rebuilt(value):
    """``value`` again, through the public validating constructors only."""
    terms = {Monomial(dict(m.powers)): c for m, c in value.terms}
    if isinstance(value, FormalPowerSeries):
        return FormalPowerSeries(terms, value.truncation_degree)
    return type(value)(terms)


def assert_canonical(value):
    keys = []
    for monomial, coefficient in value.terms:
        names = [v for v, _ in monomial.powers]
        assert names == sorted(set(names))
        assert all(type(e) is int and e > 0 for _, e in monomial.powers)
        assert monomial.degree == sum(e for _, e in monomial.powers)
        assert plain(coefficient) != 0
        keys.append((monomial.degree, monomial.powers))
    assert all(a < b for a, b in zip(keys, keys[1:])), keys
    if isinstance(value, FormalPowerSeries) and value.truncation_degree is not None:
        assert all(degree <= value.truncation_degree for degree, _ in keys)
    twin = rebuilt(value)
    assert twin == value and value == twin
    assert twin.terms == value.terms
    assert hash(twin) == hash(value)
    assert [hash(m) for m, _ in twin.terms] == [hash(m) for m, _ in value.terms]
    assert str(twin) == str(value)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value) and str(copy) == str(value)
    assert type(copy) is type(value)


def check_binary(a, b, cut=None):
    for result, reference in (
        (a + b, ref_add(expand(a), expand(b), cut)),
        (a * b, ref_mul(expand(a), expand(b), cut)),
        ((a + b) * a, ref_mul(ref_add(expand(a), expand(b), cut), expand(a), cut)),
    ):
        assert expand(result) == reference
        assert_canonical(result)


# -- N[X] ---------------------------------------------------------------------------------


@SETTINGS
@given(semiring_elements(NX), semiring_elements(NX), semiring_elements(NX))
def test_nx_matches_the_bag_reference(a, b, c):
    check_binary(a * c + b, b * b + c)
    check_binary(a, NX.one())
    check_binary(a, NX.zero())
    assert_canonical((a + b) ** 3)
    assert_canonical((a * b + c).truncate(2))
    assert_canonical((a * b + c).drop_variables({"t1", "t3"}))
    assert expand((a * b + c).drop_variables({"t1"})) == {
        bag: n for bag, n in expand(a * b + c).items() if "t1" not in bag
    }


def test_nx_keeps_infinite_coefficients_canonical():
    p = Polynomial({Monomial.var("x"): INFINITY, Monomial.unit(): 2})
    q = Polynomial.parse("x + 3*y")
    check_binary(p, q)
    assert (p * q).coefficient("x^2") == INFINITY


# -- Z[X]: exact cancellation drops the term ----------------------------------------------


@SETTINGS
@given(semiring_elements(ZX), semiring_elements(ZX), semiring_elements(ZX))
def test_zx_matches_the_bag_reference(a, b, c):
    check_binary(a * c - b, b * b + c)
    difference = (a * b + c) - (a * b + c)
    assert difference.terms == () and ZX.is_zero(difference)
    assert_canonical(difference)
    assert_canonical(-(a * b) + a * b + c)
    assert expand(-(a * b) + a * b + c) == expand(c)


def test_zx_cancellation_inside_a_product():
    x = ZPolynomial.var("x")
    product = (x + 1) * (x - 1)
    assert product.terms == ((Monomial.unit(), -1), (Monomial.var("x", 2), 1))
    assert_canonical(product)


# -- N-inf[[X]]: infinite coefficients, truncation, mixed truncation degrees --------------


@st.composite
def series(draw):
    degree = draw(st.sampled_from([None, 1, 2, 4]))
    semiring = PowerSeriesSemiring(4 if degree is None else degree)
    value = draw(semiring_elements(semiring)) * draw(semiring_elements(semiring))
    if degree is None:
        value = FormalPowerSeries(dict(value.terms))  # the same terms, held exactly
    if draw(st.booleans()):
        value = value + FormalPowerSeries({Monomial.var("t2"): INFINITY})
    if draw(st.booleans()):
        value = value * FormalPowerSeries({Monomial.unit(): INFINITY, Monomial.var("t1"): 2})
    return value


@SETTINGS
@given(series(), series())
def test_power_series_match_the_bag_reference(a, b):
    cut = combined(a.truncation_degree, b.truncation_degree)
    assert (a + b).truncation_degree == cut == (a * b).truncation_degree
    check_binary(a, b, cut)
    shorter = a.truncate(1)
    assert shorter.truncation_degree == combined(a.truncation_degree, 1)
    assert expand(shorter) == {bag: c for bag, c in expand(a).items() if len(bag) <= 1}
    assert_canonical(shorter)


@pytest.mark.parametrize("degree", [0, 3, 5])
def test_power_series_zero_is_structural(degree):
    """Regression: an exact empty series is zero in every truncated semiring."""
    semiring = PowerSeriesSemiring(degree)
    assert semiring.is_zero(FormalPowerSeries.zero())
    assert semiring.is_zero(FormalPowerSeries.zero(degree + 1))
    assert semiring.is_zero(semiring.zero())
    assert not semiring.is_zero(semiring.one())
    assert semiring.is_one(FormalPowerSeries.one()) and semiring.is_one(semiring.one())
    assert not semiring.is_one(semiring.var("x"))


@pytest.mark.parametrize(
    "semiring",
    [NX, ZX, PowerSeriesSemiring(3), CompletedNaturalsSemiring()],
    ids=lambda s: s.name,
)
def test_identities_are_shared_constants(semiring):
    assert semiring.zero() is semiring.zero() and semiring.one() is semiring.one()
    assert semiring.is_zero(semiring.zero()) and not semiring.is_zero(semiring.one())
    assert semiring.is_one(semiring.one()) and not semiring.is_one(semiring.zero())
    assert semiring.is_zero(semiring.coerce(0)) and semiring.is_one(semiring.coerce(1))


# -- the public constructors stay the validating boundary ---------------------------------

X = Monomial.var("x")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Monomial({"x": -1}),
        lambda: Monomial({"x": 1.5}),
        lambda: Monomial([("x", "2")]),
        lambda: Monomial.var("x", -2),
        lambda: Polynomial({X: -1}),
        lambda: Polynomial({X: 1.5}),
        lambda: Polynomial({"x": 1}),
        lambda: Polynomial.constant(-3),
        lambda: Polynomial.of(2.5),
        lambda: NX.coerce(-1),
        lambda: ZPolynomial({X: 1.5}),
        lambda: ZPolynomial({X: True}),
        lambda: ZPolynomial({("x",): 1}),
        lambda: FormalPowerSeries({X: -1}),
        lambda: FormalPowerSeries({X: 2.5}, 3),
        lambda: FormalPowerSeries([("x", 1)]),
    ],
)
def test_public_constructors_reject_invalid_terms(build):
    with pytest.raises(InvalidAnnotationError):
        build()


def test_public_constructors_canonicalise_outside_input():
    y = Monomial.var("y")
    assert Polynomial([(y, 1), (X, 2), (y, 0), (X, True)]).terms == ((X, 3), (y, 1))
    assert ZPolynomial([(y, 1), (X, 2), (X, -2)]).terms == ((y, 1),)
    assert FormalPowerSeries({X * y: 1, X: INFINITY}, 1).terms == ((X, INFINITY),)
    assert Monomial([("y", 1), ("x", 2), ("y", 2)]).powers == (("x", 2), ("y", 3))


def test_rename_merges_colliding_variables():
    p = Polynomial.parse("x*y + 2*z^2 + x")
    assert p.rename({"x": "z", "y": "z"}) == Polynomial.parse("3*z^2 + z")
    assert_canonical(p.rename({"x": "z", "y": "z"}))
