"""The ring of integers ``Z`` and the provenance-polynomial ring ``Z[X]``.

The paper's semirings have no additive inverses, which is fine for one-shot
query evaluation but not for *maintenance*: a deletion from a base relation
must subtract its contributions from every view annotation.  The Z-relations
follow-on line (Green, Ives & Tannen) observes that moving from ``N`` to the
ring ``Z`` (and from ``N[X]`` to ``Z[X]``) makes every update -- insertion
or deletion -- expressible as a *delta relation* whose annotations may be
negative, so the classic bilinear delta rules maintain any positive-algebra
view incrementally (:mod:`repro.incremental`).

``Z`` annotations are plain Python ``int`` values (signed multiplicities);
``Z[X]`` annotations are :class:`ZPolynomial` -- polynomials over the tuple
identifiers with integer coefficients, i.e. formal differences of the
``N[X]`` provenance polynomials of Definition 4.1.  Both structures set
``has_negation`` and implement :meth:`~repro.semirings.base.Semiring.negate`,
the ring capability the incremental layer keys on.

Neither ring is naturally ordered (``a <= b`` always has a witness
``x = b - a``, so the preorder collapses), and neither is omega-continuous:
datalog over ``Z`` is defined only through the finite-derivation fragment.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.errors import InvalidAnnotationError, ParseError, SemiringError
from repro.semirings.base import Semiring
from repro.semirings.carriers import Int64Carrier
from repro.semirings.numeric import NatInf
from repro.semirings.polynomial import Polynomial
from repro.semirings.terms import Monomial, SparseTerms, SparseTermSemiring, collect_terms

__all__ = ["IntegerRing", "ZPolynomial", "IntegerPolynomialRing"]


class IntegerRing(Semiring):
    """``(Z, +, ., 0, 1)`` -- signed bag semantics (Z-relations).

    The universal example of a commutative semiring *with* negation: a
    tuple's annotation is a signed multiplicity, and a deletion is just an
    insertion with the negated annotation.
    """

    name = "Z"
    idempotent_add = False
    is_omega_continuous = False
    has_negation = True
    naturally_ordered = False
    carrier = Int64Carrier()

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def negate(self, value: int) -> int:
        return -value

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def coerce(self, value: Any) -> int:
        if isinstance(value, bool):
            return 1 if value else 0
        if isinstance(value, NatInf):
            return value.finite_value()
        return self.check(value)

    def from_int(self, n: int) -> int:
        return n


class ZPolynomial(SparseTerms):
    """A polynomial over tuple-id variables with integer coefficients.

    The ``Z[X]`` counterpart of :class:`~repro.semirings.polynomial.Polynomial`
    (which carries ``N``/``N-inf`` coefficients and therefore cannot express
    the *differences* deletion propagation needs).  Instances are immutable,
    hashable, and reuse :class:`~repro.semirings.polynomial.Monomial` for the
    variable parts, so conversions to and from ``N[X]`` are term-wise.
    """

    __slots__ = ()

    def __init__(
        self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()
    ):
        self._terms = collect_terms(terms, _check_coefficient)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls) -> "ZPolynomial":
        """The zero polynomial."""
        return _ZERO

    @classmethod
    def one(cls) -> "ZPolynomial":
        """The unit polynomial ``1``."""
        return _ONE

    @classmethod
    def of(cls, value: "ZPolynomial | Polynomial | Monomial | str | int") -> "ZPolynomial":
        """Coerce a variable name, integer, monomial or (N[X]) polynomial."""
        if isinstance(value, ZPolynomial):
            return value
        if isinstance(value, Polynomial):  # term-wise: canonical order carries over
            terms = ((m, c.finite_value() if isinstance(c, NatInf) else c) for m, c in value.terms)
            return cls._of_terms(tuple(terms))
        if isinstance(value, Monomial):
            return cls.monomial(value)
        if isinstance(value, str):
            return cls.of(Polynomial.parse(value))
        if isinstance(value, bool):
            return cls.one() if value else cls.zero()
        if isinstance(value, int):
            return cls.constant(value)
        raise InvalidAnnotationError(f"{value!r} cannot be read as a Z[X] polynomial")

    # -- structure ------------------------------------------------------------
    def coefficient(self, monomial: Monomial) -> int:
        """Coefficient of ``monomial`` (0 when absent)."""
        return self._lookup(monomial, 0)

    def to_polynomial(self) -> Polynomial:
        """The ``N[X]`` image, defined only when no coefficient is negative."""
        if any(c < 0 for _, c in self._terms):
            raise SemiringError(
                f"{self} has negative coefficients and is not an N[X] polynomial"
            )
        return Polynomial._of_terms(self._terms)

    # -- algebra ---------------------------------------------------------------
    def __neg__(self) -> "ZPolynomial":
        return ZPolynomial._of_terms(tuple((m, -c) for m, c in self._terms))

    def __sub__(self, other: "ZPolynomial | str | int") -> "ZPolynomial":
        return self + (-ZPolynomial.of(other))

    def __rsub__(self, other: "ZPolynomial | str | int") -> "ZPolynomial":
        return ZPolynomial.of(other) + (-self)

    def evaluate(self, semiring: Semiring, valuation: Mapping[str, Any]) -> Any:
        """Evaluate in ``semiring`` under ``valuation``.

        The ``Eval_v`` homomorphism extends from ``N[X]`` to ``Z[X]`` exactly
        when the target has negation, since negative coefficients become
        negated scaled sums; non-negative polynomials evaluate anywhere.
        """
        result = semiring.zero()
        for monomial, coefficient in self._terms:
            value = monomial.evaluate(semiring, valuation)
            result = semiring.add(result, semiring.scale(coefficient, value))
        return result

    # -- protocol --------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, str, Monomial, Polynomial)):
            try:
                other = ZPolynomial.of(other)
            except (InvalidAnnotationError, ParseError, SemiringError):
                return NotImplemented
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(("ZPolynomial", self._terms))

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = ""
        for monomial, coefficient in self._terms:
            sign = "-" if coefficient < 0 else "+"
            magnitude = abs(coefficient)
            if monomial.is_unit():
                part = str(magnitude)
            elif magnitude == 1:
                part = str(monomial)
            else:
                part = f"{magnitude}·{monomial}"
            if not rendered:
                rendered = f"-{part}" if sign == "-" else part
            else:
                rendered += f" {sign} {part}"
        return rendered


def _check_coefficient(coefficient: Any) -> int:
    if isinstance(coefficient, bool) or not isinstance(coefficient, int):
        raise InvalidAnnotationError(
            f"{coefficient!r} is not a valid Z[X] coefficient (need int)"
        )
    return coefficient


_ZERO = ZPolynomial()
_ONE = ZPolynomial({Monomial.unit(): 1})


class IntegerPolynomialRing(SparseTermSemiring):
    """``(Z[X], +, ., 0, 1)`` -- provenance polynomials with integer coefficients.

    The most general commutative *ring* generated by the tuple ids: every
    annotation computation in a ring factors through ``Z[X]`` the way every
    semiring computation factors through ``N[X]`` (Proposition 4.2).  This is
    the provenance structure under which deletion propagation is itself an
    annotation computation.
    """

    name = "Z[X]"
    idempotent_add = False
    is_omega_continuous = False
    has_negation = True
    naturally_ordered = False
    _element, _zero, _one = ZPolynomial, _ZERO, _ONE

    def negate(self, value: ZPolynomial) -> ZPolynomial:
        return -ZPolynomial.of(value)

    def contains(self, value: Any) -> bool:
        return isinstance(value, ZPolynomial)

    def coerce(self, value: Any) -> ZPolynomial:
        return ZPolynomial.of(value)

    def var(self, name: str) -> ZPolynomial:
        """Convenience: the polynomial for a single tuple id / variable."""
        return ZPolynomial.var(name)

    def from_int(self, n: int) -> ZPolynomial:
        return ZPolynomial.constant(n)

    def format_value(self, value: Any) -> str:
        return str(ZPolynomial.of(value))
