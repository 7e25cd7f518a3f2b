"""Datalog syntax: rules and programs (Section 5 of the paper).

The paper considers "pure" datalog: every subgoal of every rule is a
relational atom (no arithmetic, no negation).  A :class:`Program` is a finite
set of :class:`Rule` objects; relations that never appear in a rule head are
extensional (EDB), the others are intensional (IDB).

Textual syntax (one rule per line, ``%`` comments)::

    Q(x, y) :- R(x, y)
    Q(x, y) :- Q(x, z), Q(z, y)
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence

from repro.errors import DatalogError, ParseError
from repro.logic import Atom, Constant, Variable, parse_rule

__all__ = ["Rule", "Program"]


class Rule:
    """A datalog rule ``head :- body`` where every subgoal is a relational atom."""

    __slots__ = ("head", "body")

    def __init__(self, head: Atom, body: Sequence[Atom]):
        self.head = head
        self.body = tuple(body)
        if not self.body:
            raise DatalogError(f"rule for {head} has an empty body (facts belong in the EDB)")
        head_variables = head.variables
        body_variables = frozenset(v for atom in self.body for v in atom.variables)
        unsafe = head_variables - body_variables
        if unsafe:
            raise DatalogError(
                f"unsafe rule {self}: head variables {sorted(v.name for v in unsafe)} "
                "do not occur in the body"
            )

    @classmethod
    def parse(cls, text: str) -> "Rule":
        """Parse ``"Q(x, y) :- R(x, z), R(z, y)"`` into a rule."""
        return cls(*parse_rule(text))

    @property
    def variables(self) -> frozenset[Variable]:
        """All variables of the rule."""
        result = set(self.head.variables)
        for atom in self.body:
            result |= atom.variables
        return frozenset(result)

    def is_unit_rule(self) -> bool:
        """Whether the body consists of a single IDB-eligible atom.

        The paper's Theorem 6.5 singles out *unit rules*: rules whose body is
        a single atom.  (Whether that atom is actually an IDB atom depends on
        the program; :meth:`Program.unit_rules` applies that refinement.)
        """
        return len(self.body) == 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rule)
            and self.head == other.head
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return hash(("Rule", self.head, self.body))

    def __repr__(self) -> str:
        return f"Rule({self})"

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}"


class Program:
    """A datalog program: a finite list of rules plus an output predicate.

    The output predicate defaults to the head predicate of the first rule.
    EDB predicates are those that never occur in a rule head.
    """

    def __init__(self, rules: Iterable[Rule], *, output: str | None = None):
        self.rules = tuple(rules)
        if not self.rules:
            raise DatalogError("a datalog program needs at least one rule")
        # ``rules`` is immutable from here on, so the predicate sets are
        # computed once: ``GroundProgram.is_edb`` reads one per body atom.
        self._idb = frozenset(rule.head.relation for rule in self.rules)
        self._edb = (
            frozenset(atom.relation for rule in self.rules for atom in rule.body)
            - self._idb
        )
        self._predicates = self._idb | self._edb
        self.output = output or self.rules[0].head.relation
        if self.output not in self.idb_predicates:
            raise DatalogError(
                f"output predicate {self.output!r} is not defined by any rule"
            )
        self._check_arities()

    @classmethod
    def parse(cls, text: str, *, output: str | None = None) -> "Program":
        """Parse a multi-line rule listing (``%`` starts a comment)."""
        rules = []
        for raw_line in text.splitlines():
            line = raw_line.split("%", 1)[0].strip()
            if not line:
                continue
            rules.append(Rule.parse(line))
        if not rules:
            raise ParseError("no rules found in program text")
        return cls(rules, output=output)

    # -- structure ------------------------------------------------------------
    @property
    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by some rule head (intensional relations)."""
        return self._idb

    @property
    def edb_predicates(self) -> frozenset[str]:
        """Predicates that only occur in rule bodies (extensional relations)."""
        return self._edb

    @property
    def predicates(self) -> frozenset[str]:
        """All predicates mentioned by the program."""
        return self._predicates

    def arity(self, predicate: str) -> int:
        """Arity of a predicate as used by the program."""
        return self._arities()[predicate]

    def _arities(self) -> Dict[str, int]:
        arities: Dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                arities.setdefault(atom.relation, atom.arity)
        return arities

    def _check_arities(self) -> None:
        arities: Dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                existing = arities.setdefault(atom.relation, atom.arity)
                if existing != atom.arity:
                    raise DatalogError(
                        f"predicate {atom.relation} used with arities {existing} and {atom.arity}"
                    )

    def head_attributes(self, predicate: str) -> tuple[str, ...] | None:
        """Attribute names for an IDB predicate, taken from a rule head.

        When some rule for ``predicate`` has a head consisting of distinct
        variables (e.g. ``Q(x, y)``), those variable names make natural
        column names for the materialized result; otherwise ``None`` is
        returned and callers fall back to generated names.
        """
        for rule in self.rules_for(predicate):
            names = [term.name for term in rule.head.terms if isinstance(term, Variable)]
            if len(names) == rule.head.arity and len(set(names)) == len(names):
                return tuple(names)
        return None

    def rules_for(self, predicate: str) -> list[Rule]:
        """The rules whose head predicate is ``predicate``."""
        return [rule for rule in self.rules if rule.head.relation == predicate]

    def unit_rules(self) -> list[Rule]:
        """Rules whose body is a single IDB atom (Theorem 6.5's unit rules)."""
        return [
            rule
            for rule in self.rules
            if len(rule.body) == 1 and rule.body[0].relation in self.idb_predicates
        ]

    def is_recursive(self) -> bool:
        """Whether some IDB predicate (transitively) depends on itself."""
        dependencies: Dict[str, set[str]] = {p: set() for p in self.idb_predicates}
        for rule in self.rules:
            for atom in rule.body:
                if atom.relation in self.idb_predicates:
                    dependencies[rule.head.relation].add(atom.relation)
        # simple reachability check per predicate
        for start in dependencies:
            seen: set[str] = set()
            frontier = list(dependencies[start])
            while frontier:
                current = frontier.pop()
                if current == start:
                    return True
                if current in seen:
                    continue
                seen.add(current)
                frontier.extend(dependencies.get(current, ()))
        return False

    def constants(self) -> frozenset:
        """All constants mentioned by the program's rules."""
        values = set()
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                for term in atom.terms:
                    if isinstance(term, Constant):
                        values.add(term.value)
        return frozenset(values)

    # -- protocol --------------------------------------------------------------
    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"Program({len(self.rules)} rules, output={self.output!r})"

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)
