"""The semiring ``PosBool(B)`` of positive Boolean expressions.

Tuples of a Boolean c-table are annotated with *conditions*: Boolean
expressions over a set ``B`` of variables built only from disjunction,
conjunction, ``true`` and ``false``, with expressions identified when they
agree on every truth assignment (Section 3 of the paper).  Applying the
generic positive-algebra of Definition 3.2 to
``(PosBool(B), or, and, false, true)`` reproduces the Imielinski-Lipski
algebra on c-tables, including the simplification from Figure 2(a) to
Figure 2(b).

Positive (monotone) Boolean functions have a unique minimal disjunctive
normal form: an *antichain* of clauses, where each clause is a set of
variables and no clause contains another.  :class:`BoolExpr` stores exactly
this normal form, so structural equality coincides with semantic equality --
precisely the identification the paper performs -- and the absorption law
``a or (a and b) == a`` is applied automatically.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, Mapping

from repro.errors import InvalidAnnotationError
from repro.semirings.base import Semiring

__all__ = ["BoolExpr", "PosBoolSemiring"]

Clause = FrozenSet[str]


def _minimize(clauses: Iterable[Clause]) -> frozenset[Clause]:
    """Drop clauses that are supersets of other clauses (absorption)."""
    unique = set(clauses)
    minimal = {
        clause
        for clause in unique
        if not any(other < clause for other in unique)
    }
    return frozenset(minimal)


class BoolExpr:
    """A positive Boolean expression in minimal disjunctive normal form.

    The expression is a disjunction of clauses; each clause is a conjunction
    of variables.  ``false`` is the empty disjunction and ``true`` is the
    disjunction containing the empty clause.  Instances are immutable and
    hashable, so they can be used directly as K-relation annotations.

    The constructor normalises what it is given.  ``|`` and ``&`` do not
    re-normalise: their operands are already minimal, so they minimise only
    the clauses they combine and wrap the result as it is.  ``false`` and
    ``true`` are shared instances and the identities of the two operators.
    """

    __slots__ = ("_clauses",)

    def __init__(self, clauses: Iterable[Iterable[str]] = ()):
        normalized = _minimize(frozenset(map(str, clause)) for clause in clauses)
        object.__setattr__(self, "_clauses", normalized)

    @classmethod
    def _wrap(cls, clauses: frozenset[Clause]) -> "BoolExpr":
        """An expression over ``clauses``, which must already be a minimal
        antichain of frozensets of names: nothing is copied or checked."""
        expr = object.__new__(cls)
        object.__setattr__(expr, "_clauses", clauses)
        return expr

    # -- constructors ---------------------------------------------------------
    @classmethod
    def false(cls) -> "BoolExpr":
        """The constantly-false expression (annotation of absent tuples); shared."""
        return _FALSE

    @classmethod
    def true(cls) -> "BoolExpr":
        """The constantly-true expression; shared."""
        return _TRUE

    @classmethod
    def var(cls, name: str) -> "BoolExpr":
        """A single Boolean variable, e.g. the condition of a maybe-tuple."""
        return cls(((name,),))

    @classmethod
    def of(cls, value: "BoolExpr | str | bool") -> "BoolExpr":
        """Coerce a variable name, Python bool, or expression into a BoolExpr."""
        if isinstance(value, BoolExpr):
            return value
        if isinstance(value, bool):
            return cls.true() if value else cls.false()
        if isinstance(value, str):
            return cls.var(value)
        raise InvalidAnnotationError(f"{value!r} cannot be read as a PosBool expression")

    # -- structure ------------------------------------------------------------
    @property
    def clauses(self) -> frozenset[Clause]:
        """The minimal set of clauses (each a frozenset of variable names)."""
        return self._clauses

    @property
    def variables(self) -> frozenset[str]:
        """All variables occurring in the expression."""
        return frozenset(v for clause in self._clauses for v in clause)

    @property
    def is_false(self) -> bool:
        return not self._clauses

    @property
    def is_true(self) -> bool:
        return frozenset() in self._clauses

    # -- Boolean algebra -------------------------------------------------------
    def __or__(self, other: "BoolExpr | str | bool") -> "BoolExpr":
        if type(other) is not BoolExpr:
            other = BoolExpr.of(other)
        a, b = self._clauses, other._clauses
        if not a or a is b:
            return other
        if not b:
            return self
        return BoolExpr._wrap(_minimize(a | b))

    def __and__(self, other: "BoolExpr | str | bool") -> "BoolExpr":
        if type(other) is not BoolExpr:
            other = BoolExpr.of(other)
        a, b = self._clauses, other._clauses
        if not a or not b:
            return _FALSE
        # A minimal form holding the empty clause is ``true`` itself.
        if _EMPTY in a or a is b:
            return other
        if _EMPTY in b:
            return self
        return BoolExpr._wrap(_minimize([x | y for x in a for y in b]))

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate under a truth assignment; missing variables default to False."""
        return any(
            all(assignment.get(v, False) for v in clause) for clause in self._clauses
        )

    def implies(self, other: "BoolExpr") -> bool:
        """Semantic implication: every clause of self entails some clause of other.

        For monotone functions in minimal DNF, ``self => other`` holds iff
        every clause of ``self`` is a superset of some clause of ``other``.
        """
        other = BoolExpr.of(other)
        return all(
            any(o_clause <= clause for o_clause in other._clauses)
            for clause in self._clauses
        )

    # -- protocol --------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, bool):
            other = BoolExpr.of(other)
        if not isinstance(other, BoolExpr):
            return NotImplemented
        return self._clauses == other._clauses

    def __hash__(self) -> int:
        return hash(("BoolExpr", self._clauses))

    def __bool__(self) -> bool:
        return not self.is_false

    def __repr__(self) -> str:
        return f"BoolExpr({self})"

    def __str__(self) -> str:
        if self.is_false:
            return "false"
        if self.is_true:
            return "true"
        rendered_clauses = []
        for clause in sorted(self._clauses, key=lambda c: (len(c), sorted(c))):
            term = " ∧ ".join(sorted(clause))
            rendered_clauses.append(term if len(self._clauses) == 1 else f"({term})")
        return " ∨ ".join(rendered_clauses)


_EMPTY: Clause = frozenset()
_FALSE = BoolExpr._wrap(frozenset())
_TRUE = BoolExpr._wrap(frozenset((_EMPTY,)))


class PosBoolSemiring(Semiring):
    """``(PosBool(B), or, and, false, true)`` -- conditions of Boolean c-tables.

    When the variable set ``B`` is finite this semiring is a finite bounded
    distributive lattice, hence omega-continuous, covered by Section 8
    (terminating datalog on c-tables) and Theorem 9.2 (containment).
    """

    name = "PosBool(B)"
    idempotent_add = True
    idempotent_mul = True
    is_omega_continuous = True
    is_distributive_lattice = True
    has_top = True

    def zero(self) -> BoolExpr:
        return _FALSE

    def one(self) -> BoolExpr:
        return _TRUE

    def add(self, a: BoolExpr, b: BoolExpr) -> BoolExpr:
        return BoolExpr.of(a) | b

    def mul(self, a: BoolExpr, b: BoolExpr) -> BoolExpr:
        return BoolExpr.of(a) & b

    def is_zero(self, value: Any) -> bool:
        """``false`` is the empty clause set; ``False`` reads as it."""
        if isinstance(value, BoolExpr):
            return not value._clauses
        return value is False

    def contains(self, value: Any) -> bool:
        return isinstance(value, BoolExpr)

    def coerce(self, value: Any) -> BoolExpr:
        return BoolExpr.of(value)

    def top(self) -> BoolExpr:
        return _TRUE

    def leq(self, a: BoolExpr, b: BoolExpr) -> bool:
        """Lattice order = semantic implication."""
        return BoolExpr.of(a).implies(BoolExpr.of(b))

    def star(self, a: BoolExpr) -> BoolExpr:
        """``e* = true`` for every expression ``e`` (noted in Section 5)."""
        return _TRUE

    def format_value(self, value: Any) -> str:
        return str(BoolExpr.of(value))
