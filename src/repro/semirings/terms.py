"""Canonical sparse terms: the one kernel behind ``N[X]``, ``Z[X]`` and ``N-inf[[X]]``.

The three "monomial -> coefficient" algebras of the library -- provenance
polynomials (Definition 4.1), their ring of differences ``Z[X]`` and the
truncated power series of Definition 6.1 -- store the same thing: a tuple of
``(Monomial, coefficient)`` pairs in *canonical form*, i.e. no zero
coefficient, every monomial once, sorted by ``(total degree, powers)``.  This
module owns that form:

* :class:`Monomial` carries its sort key from construction (and caches its
  hash on first use) and multiplies by merging two sorted power tuples;
* :func:`collect_terms` is the **validating** entry for outside input (the
  public constructors): it checks every monomial and coefficient;
* :func:`add_terms` / :func:`mul_terms` take operands that are already
  canonical and return a canonical result *by construction* (a merge of two
  sorted runs; one dict, zeros dropped, one sort by the cached key) without
  re-validating;
* :class:`SparseTerms` is the shared value base class; its trusted
  constructor ``_of_terms`` is reserved for such results.

The coefficient domain is the only parameter: ``N`` / ``N-inf`` never cancel,
``Z`` does (the zero-drop removes the term), and power series pass the
truncation degree so a product term beyond it is cut before its coefficient
is multiplied.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterable, Iterator, Tuple

from repro.errors import InvalidAnnotationError, SemiringError
from repro.semirings.base import Semiring

__all__ = [
    "Monomial",
    "SparseTerms",
    "SparseTermSemiring",
    "Terms",
    "collect_terms",
    "cut_terms",
    "add_terms",
    "mul_terms",
]


class Monomial:
    """A commutative monomial: a map from variable name to positive exponent.

    The empty monomial (written ``1`` or epsilon in the paper) has no
    variables and acts as the multiplicative unit.  Instances are immutable
    and hashable and are ordered by (total degree, sorted variable powers),
    which gives deterministic printing of polynomials.
    """

    __slots__ = ("_powers", "_key", "_hash")

    def __init__(self, powers: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items: Dict[str, int] = {}
        pairs = powers.items() if isinstance(powers, Mapping) else powers
        for variable, exponent in pairs:
            if not isinstance(exponent, int) or exponent < 0:
                raise InvalidAnnotationError(
                    f"exponent of {variable!r} must be a non-negative int, got {exponent!r}"
                )
            if exponent:
                items[str(variable)] = items.get(str(variable), 0) + exponent
        self._powers = tuple(sorted(items.items()))
        self._key = (sum(items.values()), self._powers)

    @classmethod
    def _from_sorted(cls, powers: Tuple[tuple[str, int], ...], degree: int) -> "Monomial":
        """Trusted: ``powers`` is sorted, duplicate-free, with positive int exponents."""
        self = object.__new__(cls)
        self._powers = powers
        self._key = (degree, powers)
        return self

    def __reduce__(self):
        # A cached hash depends on the process's string hashing: rebuild.
        return (Monomial, (self._powers,))

    # -- constructors ---------------------------------------------------------
    @classmethod
    def unit(cls) -> "Monomial":
        """The empty monomial ``1``."""
        return _UNIT

    @classmethod
    def var(cls, name: str, exponent: int = 1) -> "Monomial":
        """The monomial ``name^exponent``."""
        return cls(((name, exponent),))

    @classmethod
    def from_bag(cls, variables: Iterable[str]) -> "Monomial":
        """Build a monomial from a multiset of variable occurrences.

        ``from_bag(["r", "s", "s"])`` is ``r . s^2`` -- this matches the
        paper's view of a derivation-tree fringe as a bag of leaf labels.
        """
        powers: Dict[str, int] = {}
        for variable in variables:
            powers[str(variable)] = powers.get(str(variable), 0) + 1
        return cls(powers)

    # -- structure ------------------------------------------------------------
    @property
    def powers(self) -> Tuple[tuple[str, int], ...]:
        """Sorted tuple of (variable, exponent) pairs."""
        return self._powers

    @property
    def variables(self) -> frozenset[str]:
        """The variables occurring with non-zero exponent."""
        return frozenset(v for v, _ in self._powers)

    @property
    def degree(self) -> int:
        """Total degree (sum of exponents)."""
        return self._key[0]

    def exponent(self, variable: str) -> int:
        """Exponent of ``variable`` (0 when absent)."""
        for v, e in self._powers:
            if v == variable:
                return e
        return 0

    def is_unit(self) -> bool:
        """Whether this is the empty monomial."""
        return not self._powers

    def divides(self, other: "Monomial") -> bool:
        """Whether this monomial divides ``other`` (component-wise <=)."""
        return all(other.exponent(v) >= e for v, e in self._powers)

    # -- algebra ---------------------------------------------------------------
    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        a, b = self._powers, other._powers
        if not a:
            return other
        if not b:
            return self
        if a[-1][0] < b[0][0]:
            return Monomial._from_sorted(a + b, self._key[0] + other._key[0])
        merged = []
        i, j, na, nb = 0, 0, len(a), len(b)
        while i < na and j < nb:
            pa, pb = a[i], b[j]
            if pa[0] < pb[0]:
                merged.append(pa)
                i += 1
            elif pb[0] < pa[0]:
                merged.append(pb)
                j += 1
            else:
                merged.append((pa[0], pa[1] + pb[1]))
                i += 1
                j += 1
        merged += a[i:] or b[j:]
        return Monomial._from_sorted(tuple(merged), self._key[0] + other._key[0])

    def __pow__(self, exponent: int) -> "Monomial":
        if exponent < 0:
            raise SemiringError("monomials cannot have negative powers")
        return Monomial({v: e * exponent for v, e in self._powers})

    def evaluate(self, semiring: Semiring, valuation: Mapping[str, Any]) -> Any:
        """Evaluate the monomial in ``semiring`` under ``valuation``."""
        result = semiring.one()
        for variable, exponent in self._powers:
            if variable not in valuation:
                raise SemiringError(f"valuation is missing variable {variable!r}")
            result = semiring.mul(
                result, semiring.power(valuation[variable], exponent)
            )
        return result

    # -- protocol --------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._powers == other._powers

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first use: merges and 1x1 products never hash
            self._hash = value = hash(("Monomial", self._powers))
            return value

    def __lt__(self, other: "Monomial") -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._key < other._key

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self._powers)

    def __repr__(self) -> str:
        return f"Monomial({self})"

    def __str__(self) -> str:
        if not self._powers:
            return "1"
        parts = []
        for variable, exponent in self._powers:
            parts.append(variable if exponent == 1 else f"{variable}^{exponent}")
        return "·".join(parts)


_UNIT = Monomial()

#: Canonical terms: ``(monomial, non-zero coefficient)`` pairs, each monomial
#: once, sorted by ``Monomial._key``.
Terms = Tuple[Tuple[Monomial, Any], ...]

_ONE_TERMS: Terms = ((_UNIT, 1),)


def _term_key(term: Tuple[Monomial, Any]) -> tuple:
    return term[0]._key


def _canonical(collected: Dict[Monomial, Any]) -> Terms:
    """Drop zero coefficients and sort once by the cached key."""
    terms = [term for term in collected.items() if term[1]]
    if len(terms) > 1:
        terms.sort(key=_term_key)
    return tuple(terms)


def collect_terms(
    terms: Mapping[Monomial, Any] | Iterable[tuple[Monomial, Any]],
    check_coefficient: Callable[[Any], Any],
    max_degree: int | None = None,
) -> Terms:
    """Validate outside input into canonical terms (the public constructors).

    ``check_coefficient`` returns the coefficient in its domain or raises
    :class:`InvalidAnnotationError`; repeated monomials are added up and
    monomials above ``max_degree`` are cut.
    """
    collected: Dict[Monomial, Any] = {}
    pairs = terms.items() if isinstance(terms, Mapping) else terms
    for monomial, coefficient in pairs:
        if not isinstance(monomial, Monomial):
            raise InvalidAnnotationError(f"{monomial!r} is not a Monomial")
        coefficient = check_coefficient(coefficient)
        if not coefficient or (max_degree is not None and monomial._key[0] > max_degree):
            continue
        if monomial in collected:
            collected[monomial] = collected[monomial] + coefficient
        else:
            collected[monomial] = coefficient
    return _canonical(collected)


def cut_terms(terms: Terms, max_degree: int | None) -> Terms:
    """The terms of degree at most ``max_degree`` (a prefix: terms sort by degree)."""
    if max_degree is None or not terms or terms[-1][0]._key[0] <= max_degree:
        return terms
    return tuple(t for t in terms if t[0]._key[0] <= max_degree)


def add_terms(a: Terms, b: Terms) -> Terms:
    """The sum of two canonical operands: one merge of the two sorted runs."""
    if not a:
        return b
    if not b:
        return a
    merged = []
    i, j, na, nb = 0, 0, len(a), len(b)
    while i < na and j < nb:
        ta, tb = a[i], b[j]
        ka, kb = ta[0]._key, tb[0]._key
        if ka < kb:
            merged.append(ta)
            i += 1
        elif kb < ka:
            merged.append(tb)
            j += 1
        else:
            coefficient = ta[1] + tb[1]
            if coefficient:  # Z[X]: exact cancellation drops the term
                merged.append((ta[0], coefficient))
            i += 1
            j += 1
    merged += a[i:] or b[j:]
    return tuple(merged)


def mul_terms(a: Terms, b: Terms, max_degree: int | None = None) -> Terms:
    """The product of two canonical operands, cut at ``max_degree`` if given.

    Operands are sorted by degree, so the inner loop stops at the first pair
    beyond the cut -- before the monomials or coefficients are multiplied.
    """
    if not a or not b:
        return ()
    if len(a) == 1 == len(b):
        (m1, c1), (m2, c2) = a[0], b[0]
        if max_degree is not None and m1._key[0] + m2._key[0] > max_degree:
            return ()
        return ((m1 * m2, c1 * c2),)
    if max_degree is None or a[-1][0]._key[0] + b[-1][0]._key[0] <= max_degree:
        max_degree = None  # nothing to cut
        if a == _ONE_TERMS:
            return b
        if b == _ONE_TERMS:
            return a
    collected: Dict[Monomial, Any] = {}
    for m1, c1 in a:
        room = None if max_degree is None else max_degree - m1._key[0]
        for m2, c2 in b:
            if room is not None and m2._key[0] > room:
                break
            monomial = m1 * m2
            if monomial in collected:
                collected[monomial] = collected[monomial] + c1 * c2
            else:
                collected[monomial] = c1 * c2
    return _canonical(collected)


class SparseTerms:
    """Value base class: an immutable, canonical ``monomial -> coefficient`` map.

    Subclasses validate outside input in ``__init__`` (through
    :func:`collect_terms`) and build arithmetic results with ``_of_terms``.
    """

    __slots__ = ("_terms",)

    @classmethod
    def _of_terms(cls, terms: Terms):
        """Trusted constructor: ``terms`` is canonical (see :data:`Terms`)."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    def _like(self, terms: Terms):
        """A value of this kind (same truncation, if any) with other canonical terms."""
        return type(self)._of_terms(terms)

    @classmethod
    def var(cls, name: str):
        """The single variable ``name``."""
        return cls({Monomial.var(name): 1})

    @classmethod
    def constant(cls, value: Any):
        """A constant."""
        return cls({_UNIT: value})

    @classmethod
    def monomial(cls, monomial: Monomial, coefficient: Any = 1):
        """The single term ``coefficient . monomial``."""
        return cls({monomial: coefficient})

    @property
    def terms(self) -> Terms:
        """Sorted tuple of (monomial, coefficient) pairs with non-zero coefficients."""
        return self._terms

    @property
    def monomials(self) -> tuple[Monomial, ...]:
        """The monomials with non-zero coefficient, in canonical order."""
        return tuple(m for m, _ in self._terms)

    @property
    def variables(self) -> frozenset[str]:
        """All variables occurring in the stored terms."""
        return frozenset(v for m, _ in self._terms for v, _ in m._powers)

    @property
    def degree(self) -> int:
        """Total degree of the stored terms (0 when there are none)."""
        return self._terms[-1][0]._key[0] if self._terms else 0

    def _lookup(self, monomial: Monomial, default: Any) -> Any:
        for m, c in self._terms:
            if m == monomial:
                return c
        return default

    def is_zero(self) -> bool:
        """Whether no term is stored."""
        return not self._terms

    def drop_variables(self, variables: "frozenset[str] | set[str]"):
        """Specialize ``variables`` to zero: drop every term mentioning one.

        This is the evaluation homomorphism at ``v -> 0`` for the named
        variables (identity elsewhere), computed without arithmetic.  It is
        what makes provenance-assisted deletion exact: when a deleted EDB
        fact is tagged with a fresh variable, its derivations are precisely
        the monomials the variable occurs in (Theorem 6.5's view of the
        annotation as a sum over derivation trees).
        """
        return self._like(
            tuple(t for t in self._terms if variables.isdisjoint(v for v, _ in t[0]._powers))
        )

    def __add__(self, other: Any):
        if type(other) is not type(self):
            other = self.of(other)
        return type(self)._of_terms(add_terms(self._terms, other._terms))

    __radd__ = __add__

    def __mul__(self, other: Any):
        if type(other) is not type(self):
            other = self.of(other)
        return type(self)._of_terms(mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise SemiringError("polynomials cannot be raised to negative powers")
        result = type(self).one()
        for _ in range(exponent):
            result = result * self
        return result

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def __str__(self) -> str:
        rendered = []
        for monomial, coefficient in self._terms:
            if not monomial._powers:
                rendered.append(str(coefficient))
            elif coefficient == 1:
                rendered.append(str(monomial))
            else:
                rendered.append(f"{coefficient}·{monomial}")
        return " + ".join(rendered) or "0"


class SparseTermSemiring(Semiring):
    """Semiring base over :class:`SparseTerms` values of class ``_element``:
    ``0`` and ``1`` are shared immutable constants (``_zero`` / ``_one``, set by
    the subclass) and are recognised structurally, without allocating anything
    to compare against; ``+`` / ``.`` coerce only an operand of another type."""

    _element: type
    _zero: SparseTerms
    _one: SparseTerms

    def zero(self) -> Any:
        return self._zero

    def one(self) -> Any:
        return self._one

    def add(self, a: Any, b: Any) -> Any:
        return (a if type(a) is self._element else self._element.of(a)) + b

    def mul(self, a: Any, b: Any) -> Any:
        return (a if type(a) is self._element else self._element.of(a)) * b

    def is_zero(self, value: Any) -> bool:
        if isinstance(value, SparseTerms):
            return not value._terms
        return value == self._zero

    def is_one(self, value: Any) -> bool:
        if isinstance(value, SparseTerms):
            return value._terms == _ONE_TERMS
        return value == self._one
