"""Provenance polynomials: the semiring ``N[X]`` (and ``K[X]`` generally).

Section 4 of the paper proposes annotating output tuples with *polynomials*
over the input tuple identifiers: the provenance semiring of a database
instance with tuple ids ``X`` is ``(N[X], +, ., 0, 1)``, polynomials in
commuting variables ``X`` with natural-number coefficients.  Such a
polynomial fully documents *how* an output tuple was produced: each monomial
is one derivation (which input tuples were joined, with multiplicity), and
the coefficient counts how many derivations use exactly that combination
(Figure 5(c)).

Universality (Proposition 4.2): for every commutative semiring ``K`` and
valuation ``v : X -> K`` there is a unique homomorphism
``Eval_v : N[X] -> K`` with ``Eval_v(x) = v(x)``; hence every K-annotation
computation factors through the provenance computation (Theorem 4.3).  The
evaluation homomorphism is implemented by :meth:`Polynomial.evaluate` and
wrapped as a proper homomorphism object in
:mod:`repro.semirings.homomorphism`.

Coefficients are, by default, Python non-negative ``int`` values (the
semiring ``N``); :class:`~repro.semirings.numeric.NatInf` coefficients are
also supported so the same class doubles as ``N-inf[X]``, the polynomial
fragment of the datalog provenance semiring of Section 6.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, Mapping

from repro.errors import InvalidAnnotationError, ParseError, SemiringError
from repro.semirings.base import Semiring
from repro.semirings.numeric import INFINITY, NatInf
from repro.semirings.terms import (
    Monomial,
    SparseTerms,
    SparseTermSemiring,
    collect_terms,
    cut_terms,
)

__all__ = ["Monomial", "Polynomial", "PolynomialSemiring", "ProvenancePolynomialSemiring"]


_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$|^(\d+|∞)$")


class Polynomial(SparseTerms):
    """A polynomial: a finite map from :class:`Monomial` to a coefficient.

    Coefficients are non-negative integers or :class:`NatInf` values; zero
    coefficients are never stored.  Instances are immutable and hashable so
    they can serve directly as K-relation annotations.

    The arithmetic operators ``+`` and ``*`` implement the polynomial
    semiring operations; :meth:`evaluate` is the ``Eval_v`` homomorphism of
    Proposition 4.2.  The constructor validates its input; results of
    arithmetic are canonical by construction (:mod:`repro.semirings.terms`).
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, Any] | Iterable[tuple[Monomial, Any]] = ()):
        self._terms = collect_terms(terms, _check_coefficient)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        """The zero polynomial."""
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        """The unit polynomial ``1``."""
        return _ONE

    @classmethod
    def of(cls, value: "Polynomial | Monomial | str | int | NatInf") -> "Polynomial":
        """Coerce a variable name, number, monomial or polynomial."""
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, Monomial):
            return cls.monomial(value)
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, bool):
            return cls.one() if value else cls.zero()
        if isinstance(value, (int, NatInf)):
            return cls.constant(value)
        raise InvalidAnnotationError(f"{value!r} cannot be read as a polynomial")

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Parse ``"2*p^2 + r*s"``-style polynomial syntax.

        Supported syntax: terms joined by ``+``; each term is a ``*`` or
        ``·``-separated list of factors, where a factor is either a
        non-negative integer, the infinity symbol ``∞``, or ``var`` /
        ``var^k``.  A bare variable name parses as that variable.
        """
        text = text.strip()
        if not text:
            return cls.zero()
        terms = []
        for raw_term in text.split("+"):
            raw_term = raw_term.strip()
            if not raw_term:
                raise ParseError(f"empty term in polynomial {text!r}")
            coefficient: Any = 1
            powers: Dict[str, int] = {}
            for raw_factor in re.split(r"[*·]", raw_term):
                raw_factor = raw_factor.strip()
                if not raw_factor:
                    raise ParseError(f"empty factor in term {raw_term!r}")
                match = _FACTOR_RE.match(raw_factor)
                if not match:
                    raise ParseError(f"cannot parse factor {raw_factor!r}")
                if match.group(3) is not None:
                    value = INFINITY if match.group(3) == "∞" else int(match.group(3))
                    coefficient = coefficient * value
                else:
                    variable = match.group(1)
                    exponent = int(match.group(2)) if match.group(2) else 1
                    powers[variable] = powers.get(variable, 0) + exponent
            terms.append((Monomial(powers), coefficient))
        return cls(terms)

    # -- structure ------------------------------------------------------------
    def coefficient(self, monomial: Monomial | str) -> Any:
        """Coefficient of ``monomial`` (0 when absent)."""
        if isinstance(monomial, str):
            single = Polynomial.parse(monomial)
            if len(single._terms) != 1 or single._terms[0][1] != 1:
                raise ParseError(f"{monomial!r} does not denote a single monomial")
            monomial = single._terms[0][0]
        return self._lookup(monomial, 0)

    def is_constant(self) -> bool:
        """Whether the polynomial has no variables."""
        return all(m.is_unit() for m, _ in self._terms)

    def has_infinite_coefficient(self) -> bool:
        """Whether any coefficient is the infinite value of ``N-inf``."""
        return any(isinstance(c, NatInf) and c.is_infinite for _, c in self._terms)

    def number_of_derivations(self) -> Any:
        """Total number of derivations: the sum of all coefficients.

        Under the bag interpretation this is the multiplicity obtained by
        setting every variable to 1.
        """
        total: Any = 0
        for _, coefficient in self._terms:
            total = total + coefficient
        return total

    # -- algebra ---------------------------------------------------------------
    def truncate(self, max_degree: int) -> "Polynomial":
        """Drop every term of total degree greater than ``max_degree``."""
        return Polynomial._of_terms(cut_terms(self._terms, max_degree))

    def map_coefficients(self, function) -> "Polynomial":
        """Apply ``function`` to every coefficient (dropping resulting zeros)."""
        return Polynomial({m: function(c) for m, c in self._terms})

    def rename(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Rename variables according to ``mapping`` (missing names unchanged)."""
        return Polynomial(
            (Monomial((mapping.get(v, v), e) for v, e in monomial.powers), coefficient)
            for monomial, coefficient in self._terms
        )

    def evaluate(self, semiring: Semiring, valuation: Mapping[str, Any]) -> Any:
        """Evaluate in ``semiring`` under ``valuation`` (the ``Eval_v`` map).

        Integer coefficients ``n`` become the ``n``-fold sum of the monomial's
        value, per Proposition 4.2; infinite coefficients require the target
        to be omega-continuous and are evaluated as the supremum of the
        finite multiples.

        Each variable's value is looked up once and each ``v(x)^e`` power is
        computed once, then shared across all monomials -- on polynomials
        with many terms (deep joins, fixpoints) this avoids re-deriving the
        same powers monomial by monomial.
        """
        if not self._terms:
            return semiring.zero()
        values: Dict[str, Any] = {}
        for variable in self.variables:
            if variable not in valuation:
                raise SemiringError(f"valuation is missing variable {variable!r}")
            values[variable] = valuation[variable]
        power_cache: Dict[tuple[str, int], Any] = {}
        mul, power = semiring.mul, semiring.power
        result = semiring.zero()
        for monomial, coefficient in self._terms:
            value = semiring.one()
            for variable, exponent in monomial.powers:
                key = (variable, exponent)
                powered = power_cache.get(key)
                if powered is None:
                    powered = power(values[variable], exponent)
                    power_cache[key] = powered
                value = mul(value, powered)
            result = semiring.add(result, _scale_in(semiring, coefficient, value))
        return result

    # -- protocol --------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, str, Monomial, NatInf)):
            try:
                other = Polynomial.of(other)
            except (InvalidAnnotationError, ParseError):
                return NotImplemented
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(("Polynomial", self._terms))


def _check_coefficient(coefficient: Any) -> Any:
    if isinstance(coefficient, bool):
        return 1 if coefficient else 0
    if isinstance(coefficient, NatInf):
        return coefficient
    if isinstance(coefficient, int) and coefficient >= 0:
        return coefficient
    raise InvalidAnnotationError(
        f"{coefficient!r} is not a valid polynomial coefficient (need N or N-inf)"
    )


_ZERO = Polynomial()
_ONE = Polynomial({Monomial.unit(): 1})


def _scale_in(semiring: Semiring, coefficient: Any, value: Any) -> Any:
    """Compute ``coefficient . value`` in ``semiring`` (coefficient in N-inf)."""
    if isinstance(coefficient, NatInf) and coefficient.is_infinite:
        if semiring.is_zero(value):
            return semiring.zero()
        if semiring.idempotent_add:
            return value
        if semiring.has_top:
            return semiring.top()
        raise SemiringError(
            f"cannot evaluate an infinite coefficient in {semiring.name}: "
            "the semiring is neither idempotent nor topped"
        )
    count = coefficient.finite_value() if isinstance(coefficient, NatInf) else coefficient
    if semiring.idempotent_add:
        return value if count else semiring.zero()
    return semiring.scale(count, value)


class PolynomialSemiring(SparseTermSemiring):
    """The polynomial semiring ``K[X]`` with coefficients in ``N`` or ``N-inf``.

    The default instance (``allow_infinite_coefficients=False``) is ``N[X]``,
    the positive-algebra provenance semiring of Definition 4.1.  Allowing
    infinite coefficients gives the polynomial fragment of ``N-inf[[X]]``.
    """

    idempotent_add = False
    is_omega_continuous = False  # N[X] has no infinite sums; see power_series
    _element, _zero, _one = Polynomial, _ZERO, _ONE

    def __init__(self, *, allow_infinite_coefficients: bool = False, name: str | None = None):
        self.allow_infinite_coefficients = allow_infinite_coefficients
        if name is not None:
            self.name = name
        else:
            self.name = "N∞[X]" if allow_infinite_coefficients else "N[X]"

    def contains(self, value: Any) -> bool:
        if not isinstance(value, Polynomial):
            return False
        if self.allow_infinite_coefficients:
            return True
        return not value.has_infinite_coefficient()

    def coerce(self, value: Any) -> Polynomial:
        polynomial = Polynomial.of(value)
        return self.check(polynomial)

    def leq(self, a: Polynomial, b: Polynomial) -> bool:
        """Natural order: coefficient-wise <= (sufficient and necessary)."""
        a, b = Polynomial.of(a), Polynomial.of(b)
        monomials = set(a.monomials) | set(b.monomials)
        return all(
            NatInf.of(a.coefficient(m)) <= NatInf.of(b.coefficient(m))
            for m in monomials
        )

    def var(self, name: str) -> Polynomial:
        """Convenience: the polynomial for a single tuple id / variable."""
        return Polynomial.var(name)

    def format_value(self, value: Any) -> str:
        return str(Polynomial.of(value))


class ProvenancePolynomialSemiring(PolynomialSemiring):
    """Alias class for ``N[X]`` emphasising its provenance role (Definition 4.1)."""

    def __init__(self) -> None:
        super().__init__(allow_infinite_coefficients=False, name="N[X]")
