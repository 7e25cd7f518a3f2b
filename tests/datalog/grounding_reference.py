"""Paper-literal grounding: the oracle for the collect-run grounder.

The instantiation as the definition reads: a Boolean bottom-up fixpoint
finds the derivable atoms (Proposition 5.4 makes that the right support for
every omega-continuous semiring) by re-matching every rule against whole
relations each round, with no index and no delta; a final pass then lists
every rule instantiation whose body atoms are derivable.  It shares nothing
with :func:`repro.datalog.ground_program` but the EDB reader.

Slow by design -- keep inputs small.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Set, Tuple

from repro.datalog import GroundAtom, GroundProgram, GroundRule, Program, Rule
from repro.datalog.grounding import collect_edb_annotations
from repro.logic import Atom, Constant, Variable
from repro.relations.database import Database


def reference_ground_program(program: Program, database: Database) -> GroundProgram:
    """Instantiate ``program`` over ``database`` by naive Boolean rounds."""
    edb_annotations = collect_edb_annotations(program, database)
    known: Set[GroundAtom] = set(edb_annotations)
    by_relation: Dict[str, set[Tuple[Any, ...]]] = {}
    for atom in known:
        by_relation.setdefault(atom.relation, set()).add(atom.values)

    changed = True
    while changed:
        changed = False
        new_atoms: Set[GroundAtom] = set()
        for rule in program.rules:
            for assignment in _match_body(rule, by_relation):
                head_atom = GroundAtom(rule.head.relation, _instantiate(rule.head, assignment))
                if head_atom not in known:
                    new_atoms.add(head_atom)
        if new_atoms:
            changed = True
            for head_atom in new_atoms:
                known.add(head_atom)
                by_relation.setdefault(head_atom.relation, set()).add(head_atom.values)

    ground_rules: List[GroundRule] = []
    seen: Set[tuple] = set()
    for index, rule in enumerate(program.rules):
        for assignment in _match_body(rule, by_relation):
            head_atom = GroundAtom(rule.head.relation, _instantiate(rule.head, assignment))
            body_atoms = tuple(
                GroundAtom(atom.relation, _instantiate(atom, assignment)) for atom in rule.body
            )
            key = (index, head_atom, body_atoms)
            if key not in seen:
                seen.add(key)
                ground_rules.append(GroundRule(head_atom, body_atoms, index))

    return GroundProgram(program, database, ground_rules, edb_annotations, known)


def _instantiate(atom: Atom, assignment: Mapping[Variable, Any]) -> Tuple[Any, ...]:
    return tuple(
        term.value if isinstance(term, Constant) else assignment[term] for term in atom.terms
    )


def unify_ground(
    atom: Atom, values: Tuple[Any, ...], assignment: Mapping[Variable, Any]
) -> Dict[Variable, Any] | None:
    """Extend ``assignment`` so that ``atom`` matches the ground ``values``.

    Returns the extended assignment, or ``None`` when the match fails.
    """
    if len(values) != atom.arity:
        return None
    extended = dict(assignment)
    for term, value in zip(atom.terms, values):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        elif extended.setdefault(term, value) != value:
            return None
    return extended


def _match_body(
    rule: Rule, by_relation: Mapping[str, set[Tuple[Any, ...]]]
) -> Iterator[Dict[Variable, Any]]:
    """Enumerate variable assignments matching every body atom against known facts."""

    def extend(assignment: Dict[Variable, Any], index: int) -> Iterator[Dict[Variable, Any]]:
        if index == len(rule.body):
            yield assignment
            return
        atom = rule.body[index]
        for values in by_relation.get(atom.relation, ()):
            extended = unify_ground(atom, values, assignment)
            if extended is not None:
                yield from extend(extended, index + 1)

    yield from extend({}, 0)
