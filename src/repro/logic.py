"""Shared first-order syntax: variables, constants and relational atoms.

Conjunctive queries (Section 9) and datalog rules (Section 5) both build
their bodies out of relational atoms over variables and constants.  This
module holds those syntactic objects so that :mod:`repro.algebra.conjunctive`
and :mod:`repro.datalog.syntax` can share them without depending on each
other.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Mapping, Tuple

from repro.errors import ParseError

__all__ = ["Variable", "Constant", "Term", "Atom", "parse_atom", "parse_rule", "parse_term"]


class Variable:
    """A first-order variable, written as a lower-case identifier (x, y, z1...)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = str(name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Variable", self.name))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Constant:
    """A constant value appearing in a query or rule."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Constant", self.value))

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)


#: A term is either a variable or a constant.
Term = Variable | Constant


class Atom:
    """A relational atom ``R(t1, ..., tn)`` with terms that are variables or constants."""

    __slots__ = ("relation", "terms")

    def __init__(self, relation: str, terms: Iterable[Term]):
        self.relation = str(relation)
        self.terms: Tuple[Term, ...] = tuple(terms)
        for term in self.terms:
            if not isinstance(term, (Variable, Constant)):
                raise ParseError(f"{term!r} is not a Variable or Constant")

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.terms)

    @property
    def variables(self) -> frozenset[Variable]:
        """The variables occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def substitute(self, assignment: Mapping[Variable, Any]) -> "Atom":
        """Replace variables by the terms/constants given in ``assignment``.

        Values in the assignment may be terms (for renamings/homomorphisms)
        or plain Python values (for groundings), which are wrapped as
        :class:`Constant`.
        """
        new_terms: list[Term] = []
        for term in self.terms:
            if isinstance(term, Variable) and term in assignment:
                value = assignment[term]
                if not isinstance(value, (Variable, Constant)):
                    value = Constant(value)
                new_terms.append(value)
            else:
                new_terms.append(term)
        return Atom(self.relation, new_terms)

    def is_ground(self) -> bool:
        """Whether the atom contains no variables."""
        return not self.variables

    def ground_values(self) -> tuple:
        """The constant values of a ground atom, in positional order."""
        if not self.is_ground():
            raise ParseError(f"atom {self} is not ground")
        return tuple(term.value for term in self.terms)  # type: ignore[union-attr]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self.relation == other.relation
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(("Atom", self.relation, self.terms))

    def __repr__(self) -> str:
        return f"Atom({self})"

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(str(t) for t in self.terms)})"


_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*\(([^()]*)\)\s*$")
_VARIABLE_RE = re.compile(r"^[a-z][A-Za-z_0-9]*$")
_NUMBER_RE = re.compile(r"^-?\d+$")


def parse_term(text: str) -> Term:
    """Parse a single term.

    Lower-case identifiers are variables; quoted strings, numbers and
    capitalized identifiers are constants (the usual datalog convention).
    """
    text = text.strip()
    if not text:
        raise ParseError("empty term")
    if (text.startswith('"') and text.endswith('"')) or (
        text.startswith("'") and text.endswith("'")
    ):
        return Constant(text[1:-1])
    if _NUMBER_RE.match(text):
        return Constant(int(text))
    if _VARIABLE_RE.match(text):
        return Variable(text)
    return Constant(text)


def parse_atom(text: str) -> Atom:
    """Parse ``"R(x, 'a', 3)"`` into an :class:`Atom`."""
    match = _ATOM_RE.match(text)
    if not match:
        raise ParseError(f"cannot parse atom {text!r}")
    relation, arguments = match.group(1), match.group(2).strip()
    if not arguments:
        return Atom(relation, ())
    terms = [parse_term(part) for part in arguments.split(",")]
    return Atom(relation, terms)


def parse_rule(text: str) -> Tuple[Atom, list[Atom]]:
    """Parse ``"Q(x, y) :- R(x, z), R(z, y)."`` into its head and body atoms.

    The one rule-text parser: datalog rules and conjunctive queries share it.
    """
    text = text.strip().rstrip(".")
    if ":-" not in text:
        raise ParseError(f"missing ':-' in rule {text!r}")
    head_text, body_text = text.split(":-", 1)
    parts: list[str] = []
    depth, start = 0, 0
    for index, char in enumerate(body_text):
        depth += (char == "(") - (char == ")")
        if char == "," and depth == 0:
            parts.append(body_text[start:index])
            start = index + 1
    parts.append(body_text[start:])
    body = [parse_atom(part) for part in parts if part.strip()]
    if not body:
        raise ParseError(f"empty body in rule {text!r}")
    return parse_atom(head_text), body


def fresh_variables(count: int, prefix: str = "v") -> list[Variable]:
    """Generate ``count`` distinct variables ``v0, v1, ...``."""
    return [Variable(f"{prefix}{i}") for i in range(count)]
