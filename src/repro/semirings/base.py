"""Commutative semirings as first-class objects.

The paper's central abstraction is the *commutative semiring*
``(K, +, ., 0, 1)``: a set ``K`` with two commutative, associative binary
operations such that ``.`` distributes over ``+``, ``0`` is the identity of
``+`` and annihilates ``.``, and ``1`` is the identity of ``.``
(Section 3 of Green, Karvounarakis & Tannen, PODS 2007).

This module defines the :class:`Semiring` base class.  A semiring instance
describes the carrier set and the operations; the *annotation values*
themselves are ordinary hashable Python objects (booleans, integers,
frozensets, polynomials, ...).  Keeping values plain makes K-relations simple
dictionaries and lets the same relational-algebra and datalog code run over
every semiring unchanged, which is exactly the point of the paper.

Beyond the plain semiring interface, subclasses can advertise extra
structure used by later sections of the paper:

* ``idempotent_add`` -- whether ``a + a == a`` (true for lattices, false for
  bag and provenance semirings).
* ``selective_add`` / :meth:`Semiring.may_attain` -- whether ``a + b`` is
  always one of ``a``, ``b`` (``B``, Tropical, Fuzzy, Viterbi; *not* lattices
  such as ``PosBool``, where ``a + b`` can differ from both).  A sum then
  equals one of its summands, so removing a summand that is not the attained
  one leaves the sum unchanged -- which lets incremental deletion
  (:mod:`repro.incremental.datalog`) over-delete only the atoms whose
  annotation is attained through a deleted fact.
* ``is_omega_continuous`` -- whether the semiring is omega-continuous
  (Section 5), i.e. naturally ordered, with least upper bounds of
  omega-chains and operations continuous in each argument.  Datalog
  semantics is defined only over omega-continuous semirings.
* ``is_distributive_lattice`` -- whether ``(K, +, .)`` is a (bounded)
  distributive lattice, the hypothesis of Section 8 (terminating datalog
  evaluation) and Theorem 9.2 (containment).
* :meth:`Semiring.star` -- the Kleene star ``a* = 1 + a + a.a + ...`` when it
  is defined, used to express solutions of algebraic systems such as
  ``x = a.x + b  =>  x = a*. b`` (Section 5).
* ``has_negation`` / :meth:`Semiring.negate` -- whether every element has an
  additive inverse, i.e. ``(K, +, ., 0, 1)`` is a commutative *ring*.  Rings
  (``Z``, ``Z[X]``) can represent deletions as negative deltas, which is what
  makes materialized views over K-relations maintainable under arbitrary
  update streams (:mod:`repro.incremental`); plain semirings support only
  insertions incrementally and fall back to recomputation for deletions.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.errors import InvalidAnnotationError, SemiringError

__all__ = ["Semiring", "ATTAINED_RTOL"]

#: Relative slack of the float ``may_attain`` overrides: a product of three or
#: more floats depends on its association order, so a contribution counts as
#: attained unless it is worse than the stored sum by more than this.
ATTAINED_RTOL = 1e-9


class Semiring:
    """Base class for commutative semirings ``(K, +, ., 0, 1)``.

    Subclasses must implement :meth:`zero`, :meth:`one`, :meth:`add`,
    :meth:`mul` and :meth:`contains`.  The remaining methods have sensible
    default implementations expressed in terms of those five.

    Instances are stateless and cheap; they may be shared freely and are
    compared by identity (or by ``name`` for the convenience registry in
    :mod:`repro.semirings.registry`).
    """

    #: Human-readable name, e.g. ``"N[X]"`` or ``"PosBool(B)"``.
    name: str = "abstract semiring"

    #: Whether ``a + a == a`` for all elements.
    idempotent_add: bool = False

    #: Whether ``a + b`` is ``a`` or ``b`` for all elements (``+`` *selects* a
    #: summand: min, max, or).  Implies ``idempotent_add``; see ``may_attain``.
    selective_add: bool = False

    #: Whether ``a . a == a`` for all elements (idempotent multiplication).
    idempotent_mul: bool = False

    #: Whether the semiring is omega-continuous (supports datalog semantics).
    is_omega_continuous: bool = False

    #: Whether ``(K, +, .)`` forms a bounded distributive lattice.
    is_distributive_lattice: bool = False

    #: Whether the semiring has a greatest element (returned by :meth:`top`).
    has_top: bool = False

    #: Whether the natural preorder ``a <= b  iff  exists x. a + x == b`` is a
    #: partial order (Section 5: "naturally ordered").
    naturally_ordered: bool = True

    #: Whether every element has an additive inverse (the structure is a
    #: commutative ring).  Ring semirings implement :meth:`negate`; they are
    #: the structures over which deletions propagate incrementally through
    #: materialized views (:mod:`repro.incremental`).
    has_negation: bool = False

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------
    def zero(self) -> Any:
        """Return the additive identity ``0`` (the "absent tuple" tag)."""
        raise NotImplementedError

    def one(self) -> Any:
        """Return the multiplicative identity ``1`` (the "present tuple" tag)."""
        raise NotImplementedError

    def add(self, a: Any, b: Any) -> Any:
        """Return ``a + b``; combines annotations under union/projection."""
        raise NotImplementedError

    def mul(self, a: Any, b: Any) -> Any:
        """Return ``a . b``; combines annotations under join/selection."""
        raise NotImplementedError

    def contains(self, value: Any) -> bool:
        """Return ``True`` when ``value`` belongs to the carrier set."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------
    def coerce(self, value: Any) -> Any:
        """Convert ``value`` into a carrier element, or raise.

        Subclasses override this to accept convenient surrogate inputs
        (e.g. Python ``int`` for the completed naturals, ``str`` variable
        names for provenance polynomials).  The default accepts only values
        already in the carrier.
        """
        if self.contains(value):
            return value
        raise InvalidAnnotationError(
            f"{value!r} is not an element of the semiring {self.name}"
        )

    def negate(self, value: Any) -> Any:
        """Return the additive inverse ``-value`` when ``has_negation``.

        Semirings proper have no additive inverses, so the default raises;
        ring subclasses (``Z``, ``Z[X]``) override this together with setting
        ``has_negation = True``.
        """
        raise SemiringError(
            f"{self.name} has no additive inverses (has_negation is False)"
        )

    def subtract(self, a: Any, b: Any) -> Any:
        """Return ``a - b = a + (-b)``; defined only when ``has_negation``."""
        return self.add(a, self.negate(b))

    def is_zero(self, value: Any) -> bool:
        """Return whether ``value`` equals the additive identity."""
        return value == self.zero()

    def is_one(self, value: Any) -> bool:
        """Return whether ``value`` equals the multiplicative identity."""
        return value == self.one()

    def sum(self, values: Iterable[Any]) -> Any:
        """Return the sum of ``values`` (``0`` for the empty iterable)."""
        total = self.zero()
        for value in values:
            total = self.add(total, value)
        return total

    def product(self, values: Iterable[Any]) -> Any:
        """Return the product of ``values`` (``1`` for the empty iterable)."""
        result = self.one()
        for value in values:
            result = self.mul(result, value)
        return result

    def from_int(self, n: int) -> Any:
        """Embed the integer ``n`` as ``1 + 1 + ... + 1`` (n times).

        The paper uses this embedding to evaluate polynomials with integer
        coefficients in an arbitrary semiring (Proposition 4.2): ``n . a``
        means the sum of ``n`` copies of ``a``.  Negative ``n`` is defined
        only for rings (``has_negation``), as ``-( (-n) . 1 )``.
        """
        if n < 0:
            if not self.has_negation:
                raise SemiringError(
                    "semirings have no additive inverses; n must be >= 0"
                )
            return self.negate(self.from_int(-n))
        result = self.zero()
        one = self.one()
        for _ in range(n):
            result = self.add(result, one)
        return result

    def scale(self, n: int, value: Any) -> Any:
        """Return the sum of ``n`` copies of ``value`` (``n . value``).

        Negative ``n`` is defined only for rings (``has_negation``), as
        ``-((-n) . value)``.
        """
        if n < 0:
            if not self.has_negation:
                raise SemiringError(
                    "semirings have no additive inverses; n must be >= 0"
                )
            return self.negate(self.scale(-n, value))
        result = self.zero()
        for _ in range(n):
            result = self.add(result, value)
        return result

    def power(self, value: Any, n: int) -> Any:
        """Return ``value`` raised to the ``n``-th multiplicative power."""
        if n < 0:
            raise SemiringError("semirings have no multiplicative inverses; n must be >= 0")
        result = self.one()
        for _ in range(n):
            result = self.mul(result, value)
        return result

    # ------------------------------------------------------------------
    # Order and omega-continuity
    # ------------------------------------------------------------------
    def leq(self, a: Any, b: Any) -> bool:
        """Natural order: ``a <= b`` iff there exists ``x`` with ``a + x == b``.

        Idempotent semirings get a cheap default (``a + b == b``); other
        semirings must override when they claim ``naturally_ordered``.
        """
        if self.idempotent_add:
            return self.add(a, b) == b
        raise NotImplementedError(
            f"{self.name} does not provide a decision procedure for its natural order"
        )

    def may_attain(self, total: Any, contribution: Any) -> bool:
        """May ``contribution`` be the summand a ``selective_add`` ``total`` selected?

        ``total`` is a stored sum and ``contribution`` one of its summands.
        ``False`` promises that ``total`` stays the same without that summand,
        so an override must err toward ``True`` (treating too many
        contributions as attained only costs work, too few loses updates) and
        belongs only where ``1`` is also the greatest element (``a . b <= a``),
        which the deletion argument of :mod:`repro.datalog.seminaive` uses.
        The default cannot tell contributions apart -- right for ``B``, whose
        only non-zero value always attains; accepting even ``(1, 0)`` is how
        callers learn that carrying products would be pointless.
        """
        return True

    def top(self) -> Any:
        """Return the greatest element, when ``has_top`` is ``True``."""
        raise SemiringError(f"{self.name} has no top element")

    def star(self, a: Any) -> Any:
        """Return the Kleene star ``a* = 1 + a + a.a + ...`` when defined.

        For omega-continuous semirings the star always exists as the least
        fixpoint of ``x = 1 + a.x``.  Idempotent-addition semirings in which
        ``1`` dominates (e.g. lattices) have ``a* == 1``; that default is
        provided here, everything else must override.
        """
        if self.is_distributive_lattice:
            return self.one()
        raise NotImplementedError(f"{self.name} does not implement a Kleene star")

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def normalize(self, value: Any) -> Any:
        """Return a canonical representative of ``value``.

        The default is the identity function; semirings whose values admit
        several syntactic representations of the same element (e.g. positive
        Boolean expressions) override this.
        """
        return value

    def format_value(self, value: Any) -> str:
        """Render ``value`` for display in tables and reports."""
        return str(value)

    def summarize_value(self, value: Any) -> str:
        """Render ``value`` compactly when the full form would be too wide.

        Used by :mod:`repro.relations.display` when a caller caps the
        annotation column width.  Semirings with potentially huge values
        (provenance circuits) override this with a size summary; the default
        is the ordinary rendering.
        """
        return self.format_value(value)

    def check(self, value: Any) -> Any:
        """Validate that ``value`` is a carrier element and return it."""
        if not self.contains(value):
            raise InvalidAnnotationError(
                f"{value!r} is not an element of the semiring {self.name}"
            )
        return value

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name}>"

    def __str__(self) -> str:
        return self.name

    # ------------------------------------------------------------------
    # Convenience constructors used by tests and examples
    # ------------------------------------------------------------------
    def sum_of_products(self, products: Iterable[Iterable[Any]]) -> Any:
        """Return ``sum(prod(p) for p in products)``.

        This is the shape of every annotation the positive algebra produces:
        a sum over alternative derivations of the product of the annotations
        used by each derivation (see Sections 3 and 5 of the paper).
        """
        return self.sum(self.product(p) for p in products)

    def iterate_closure(
        self,
        step: Callable[[Any], Any],
        start: Any | None = None,
        max_iterations: int = 10_000,
    ) -> Iterator[Any]:
        """Yield the Kleene chain ``start, step(start), step(step(start)), ...``.

        Helper used by fixpoint computations; iteration stops silently after
        ``max_iterations`` elements, callers detect convergence themselves.
        """
        current = self.zero() if start is None else start
        for _ in range(max_iterations):
            yield current
            current = step(current)
