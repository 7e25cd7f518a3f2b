"""Formal power series: the datalog provenance semiring ``N-inf[[X]]``.

Recursive datalog queries can give a tuple infinitely many derivation trees,
so its provenance is in general not a polynomial but a *formal power series*:
a map from every monomial over the input tuple ids ``X`` to a coefficient in
``N-inf`` (Section 6, Definition 6.1).  For example, in Figure 7 the
provenance of the self-loop tuple is::

    v = s + s^2 + 2 s^3 + 5 s^4 + 14 s^5 + ...

with the Catalan numbers as coefficients.

A power series over an infinite monomial set cannot be materialized, so this
module represents series *truncated by total degree*: a
:class:`FormalPowerSeries` stores exact coefficients for every monomial of
total degree at most ``truncation_degree`` and records whether higher-degree
terms may exist.  The datalog provenance engine
(:mod:`repro.datalog.provenance`) computes such truncations by
degree-stratified fixpoint iteration, which is exact because a monomial of
degree ``d`` can only be produced by derivations using at most ``d`` leaves.
Series that are actually polynomials (decided by the All-Trees algorithm of
Figure 8) are stored exactly with ``truncation_degree=None``.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import SemiringError
from repro.semirings.base import Semiring
from repro.semirings.numeric import NatInf
from repro.semirings.polynomial import Polynomial
from repro.semirings.terms import (
    Monomial,
    SparseTerms,
    SparseTermSemiring,
    Terms,
    add_terms,
    collect_terms,
    cut_terms,
    mul_terms,
)

__all__ = ["FormalPowerSeries", "PowerSeriesSemiring"]


class FormalPowerSeries(SparseTerms):
    """A formal power series in ``N-inf[[X]]``, truncated by total degree.

    Attributes
    ----------
    terms:
        Mapping from :class:`Monomial` to a :class:`NatInf` coefficient, with
        zero coefficients omitted.  Every stored monomial has total degree at
        most ``truncation_degree`` when the series is truncated.
    truncation_degree:
        ``None`` when the series is exact (a polynomial); otherwise the total
        degree up to which coefficients are exact.
    """

    __slots__ = ("_truncation_degree",)

    def __init__(
        self,
        terms: Mapping[Monomial, Any] | Iterable[tuple[Monomial, Any]] = (),
        truncation_degree: int | None = None,
    ):
        self._terms = collect_terms(terms, NatInf.of, truncation_degree)
        self._truncation_degree = truncation_degree

    @classmethod
    def _of_terms(cls, terms: Terms, truncation_degree: int | None = None):
        """Trusted constructor: canonical ``terms`` already cut at the degree."""
        self = object.__new__(cls)
        self._terms = terms
        self._truncation_degree = truncation_degree
        return self

    def _like(self, terms: Terms) -> "FormalPowerSeries":
        return FormalPowerSeries._of_terms(terms, self._truncation_degree)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, truncation_degree: int | None = None) -> "FormalPowerSeries":
        """The zero series."""
        return cls((), truncation_degree)

    @classmethod
    def one(cls, truncation_degree: int | None = None) -> "FormalPowerSeries":
        """The unit series ``1``."""
        return cls({Monomial.unit(): NatInf(1)}, truncation_degree)

    @classmethod
    def var(cls, name: str, truncation_degree: int | None = None) -> "FormalPowerSeries":
        """The series for a single variable."""
        return cls({Monomial.var(name): NatInf(1)}, truncation_degree)

    @classmethod
    def from_polynomial(
        cls, polynomial: Polynomial, truncation_degree: int | None = None
    ) -> "FormalPowerSeries":
        """Embed a polynomial of ``N[X]`` / ``N-inf[X]`` into the series semiring.

        This is the embedding the paper uses in Proposition 6.2: a polynomial
        is a power series with finitely many non-zero coefficients.
        """
        terms = tuple((m, NatInf.of(c)) for m, c in polynomial.terms)
        return cls._of_terms(cut_terms(terms, truncation_degree), truncation_degree)

    @classmethod
    def of(
        cls, value: "FormalPowerSeries | Polynomial | str | int | NatInf"
    ) -> "FormalPowerSeries":
        """Coerce polynomials, variables and numbers into exact series."""
        if isinstance(value, FormalPowerSeries):
            return value
        return cls.from_polynomial(Polynomial.of(value))

    # -- structure ------------------------------------------------------------
    @property
    def truncation_degree(self) -> int | None:
        """Degree up to which coefficients are exact, ``None`` when exact everywhere."""
        return self._truncation_degree

    @property
    def is_exact(self) -> bool:
        """Whether the series is known exactly (i.e. is a polynomial)."""
        return self._truncation_degree is None

    def coefficient(self, monomial: Monomial) -> NatInf:
        """Coefficient of ``monomial``.

        Raises :class:`SemiringError` when the monomial's degree exceeds the
        truncation degree, since the coefficient is then unknown; use
        :mod:`repro.datalog.monomial_coefficient` to compute it exactly.
        """
        if (
            self._truncation_degree is not None
            and monomial.degree > self._truncation_degree
        ):
            raise SemiringError(
                f"coefficient of {monomial} is beyond the truncation degree "
                f"{self._truncation_degree}"
            )
        return self._lookup(monomial, NatInf(0))

    def to_polynomial(self) -> Polynomial:
        """Convert an exact series back into a polynomial.

        Raises :class:`SemiringError` when the series is truncated.
        """
        if not self.is_exact:
            raise SemiringError("a truncated power series is not a polynomial")
        return Polynomial._of_terms(self._terms)

    # -- algebra ---------------------------------------------------------------
    def _combined_truncation(self, other: "FormalPowerSeries") -> int | None:
        if self._truncation_degree is None:
            return other._truncation_degree
        if other._truncation_degree is None:
            return self._truncation_degree
        return min(self._truncation_degree, other._truncation_degree)

    def __add__(self, other: "FormalPowerSeries | Polynomial | str | int") -> "FormalPowerSeries":
        other = FormalPowerSeries.of(other)
        truncation = self._combined_truncation(other)
        return FormalPowerSeries._of_terms(
            add_terms(cut_terms(self._terms, truncation), cut_terms(other._terms, truncation)),
            truncation,
        )

    __radd__ = __add__

    def __mul__(self, other: "FormalPowerSeries | Polynomial | str | int") -> "FormalPowerSeries":
        other = FormalPowerSeries.of(other)
        truncation = self._combined_truncation(other)
        return FormalPowerSeries._of_terms(
            mul_terms(self._terms, other._terms, truncation), truncation
        )

    __rmul__ = __mul__

    def truncate(self, max_degree: int) -> "FormalPowerSeries":
        """Return the series truncated to total degree ``max_degree``."""
        if self._truncation_degree is not None:
            max_degree = min(max_degree, self._truncation_degree)
        return FormalPowerSeries._of_terms(cut_terms(self._terms, max_degree), max_degree)

    def evaluate(self, semiring: Semiring, valuation: Mapping[str, Any]) -> Any:
        """Evaluate in an omega-continuous semiring (Proposition 6.3).

        For truncated series this evaluates the known part only; callers
        needing exact evaluation should evaluate the algebraic system itself
        directly in the target semiring (Theorem 6.4), which is what
        :mod:`repro.datalog.fixpoint` does.
        """
        return Polynomial._of_terms(self._terms).evaluate(semiring, valuation)

    # -- protocol --------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Polynomial, str, int, NatInf)):
            other = FormalPowerSeries.of(other)
        if not isinstance(other, FormalPowerSeries):
            return NotImplemented
        return (
            self._terms == other._terms
            and self._truncation_degree == other._truncation_degree
        )

    def __hash__(self) -> int:
        return hash(("FormalPowerSeries", self._terms, self._truncation_degree))

    def __str__(self) -> str:
        if self._truncation_degree is None:
            return super().__str__()
        return f"{super().__str__()} + O(deg>{self._truncation_degree})"


class PowerSeriesSemiring(SparseTermSemiring):
    """``N-inf[[X]]`` truncated at a chosen total degree.

    The datalog provenance semiring of Definition 6.1.  Working with a fixed
    truncation degree keeps every operation finite while remaining exact for
    all coefficients of total degree up to the truncation; this is the
    representation used by the fixpoint-based provenance computation.
    """

    idempotent_add = False
    is_omega_continuous = True
    has_top = False

    def __init__(self, truncation_degree: int = 8, name: str | None = None):
        if truncation_degree < 0:
            raise SemiringError("truncation degree must be non-negative")
        self.truncation_degree = truncation_degree
        self.name = name or f"N∞[[X]] (deg ≤ {truncation_degree})"
        self._zero = FormalPowerSeries.zero(truncation_degree)
        self._one = FormalPowerSeries.one(truncation_degree)

    def var(self, name: str) -> FormalPowerSeries:
        """The series of a single tuple-id variable."""
        return FormalPowerSeries.var(name, self.truncation_degree)

    def add(self, a: FormalPowerSeries, b: FormalPowerSeries) -> FormalPowerSeries:
        return self.coerce(a) + self.coerce(b)

    def mul(self, a: FormalPowerSeries, b: FormalPowerSeries) -> FormalPowerSeries:
        return self.coerce(a) * self.coerce(b)

    def contains(self, value: Any) -> bool:
        return isinstance(value, FormalPowerSeries)

    def coerce(self, value: Any) -> FormalPowerSeries:
        series = FormalPowerSeries.of(value)
        if series._truncation_degree == self.truncation_degree:
            return series
        return series.truncate(self.truncation_degree)

    def leq(self, a: FormalPowerSeries, b: FormalPowerSeries) -> bool:
        """Coefficient-wise comparison on the stored (truncated) terms."""
        a, b = self.coerce(a), self.coerce(b)
        monomials = {m for m, _ in a.terms} | {m for m, _ in b.terms}
        return all(a.coefficient(m) <= b.coefficient(m) for m in monomials)

    def format_value(self, value: Any) -> str:
        return str(self.coerce(value))
