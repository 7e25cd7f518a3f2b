"""Paper-literal global Kleene iteration: the oracle for the ground solver.

Theorem 5.6's least fixpoint computed the literal way: every IDB atom starts
at zero and every round applies the immediate-consequence operator ``T_q``
to *all* atoms at once, until a round changes nothing.  The divergence
analysis is literal too and shares nothing with the solver's Tarjan pass:
the atoms derivable through rules whose EDB facts are non-zero are found by
repeated passes, then a depth-first search per atom asks whether it reaches
itself (O(V·E)), and everything downstream of such an atom diverges.

Truncated power series iterate globally up to the bound
``(d + 1) * (n + 1) + 1`` for ``n`` IDB atoms, then ``n`` more rounds; the
coefficients that move in those rounds are infinite.

Slow by design -- keep inputs small.
"""

from __future__ import annotations

from typing import Any, Dict, Set, Tuple

from repro.datalog import GroundAtom, GroundProgram, immediate_consequence
from repro.errors import DivergenceError
from repro.semirings import FormalPowerSeries, PowerSeriesSemiring
from repro.semirings.base import Semiring
from repro.semirings.numeric import INFINITY


def divergent_atoms(ground: GroundProgram, semiring: Semiring) -> Set[GroundAtom]:
    """IDB atoms with infinitely many derivations through non-zero facts."""
    facts = {a for a, v in ground.edb_annotations.items() if not semiring.is_zero(v)}
    rules = [
        rule
        for rule in ground.ground_rules
        if all(atom in facts for atom in rule.body if ground.is_edb(atom))
    ]
    derivable = set(facts)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.head not in derivable and all(atom in derivable for atom in rule.body):
                derivable.add(rule.head)
                changed = True
    forward: Dict[GroundAtom, Set[GroundAtom]] = {}
    for rule in rules:
        if all(atom in derivable for atom in rule.body):
            for atom in rule.body:
                forward.setdefault(atom, set()).add(rule.head)

    def reaches_itself(start: GroundAtom) -> bool:
        frontier, seen = list(forward.get(start, ())), set()
        while frontier:
            atom = frontier.pop()
            if atom == start:
                return True
            if atom not in seen:
                seen.add(atom)
                frontier.extend(forward.get(atom, ()))
        return False

    divergent: Set[GroundAtom] = set()
    frontier = [atom for atom in forward if reaches_itself(atom)]
    while frontier:
        atom = frontier.pop()
        if atom not in divergent:
            divergent.add(atom)
            frontier.extend(forward.get(atom, ()))
    return divergent & ground.idb_atoms


def kleene_solve(
    ground: GroundProgram,
    semiring: Semiring,
    *,
    on_divergence: str = "top",
    max_iterations: int = 10_000,
) -> Tuple[Dict[GroundAtom, Any], frozenset]:
    """``(annotations, divergent atoms)`` by global Kleene rounds.

    ``ground.edb_annotations`` may hold zero-valued facts: they kill the
    rules reading them, as a valuation of an algebraic system does.
    """
    if on_divergence not in ("top", "error", "skip"):
        raise ValueError(f"unknown on_divergence {on_divergence!r}")
    if isinstance(semiring, PowerSeriesSemiring):
        return _series_solve(ground, semiring), frozenset()
    divergent: Set[GroundAtom] = set()
    if not semiring.idempotent_add:
        divergent = divergent_atoms(ground, semiring)
        if divergent and (
            on_divergence == "error" or (on_divergence == "top" and not semiring.has_top)
        ):
            raise DivergenceError(f"{len(divergent)} divergent atom(s)")
    finite = ground.idb_atoms - divergent
    values: Dict[GroundAtom, Any] = dict.fromkeys(finite, semiring.zero())
    if divergent and on_divergence == "top":
        values.update(dict.fromkeys(divergent, semiring.top()))
    rounds = max_iterations if semiring.idempotent_add else len(finite) + 1
    for _ in range(rounds):
        updated = immediate_consequence(ground, semiring, values, atoms=finite)
        if all(updated[atom] == values[atom] for atom in finite):
            break
        values.update(updated)
    else:
        if semiring.idempotent_add:
            raise DivergenceError(f"no fixpoint within {max_iterations} rounds")
    return values, frozenset(divergent)


def _series_solve(
    ground: GroundProgram, semiring: PowerSeriesSemiring
) -> Dict[GroundAtom, FormalPowerSeries]:
    atoms = ground.idb_atoms
    values: Dict[GroundAtom, Any] = dict.fromkeys(atoms, semiring.zero())
    bound = (semiring.truncation_degree + 1) * (len(atoms) + 1) + 1
    for _ in range(bound):
        updated = immediate_consequence(ground, semiring, values)
        if updated == values:
            return values
        values = updated
    settled = values
    for _ in atoms:
        values = immediate_consequence(ground, semiring, values)
    marked = {}
    for atom in atoms:
        before, after = settled[atom], values[atom]
        monomials = {m for m, _ in before.terms} | {m for m, _ in after.terms}
        marked[atom] = FormalPowerSeries(
            {
                m: after.coefficient(m)
                if before.coefficient(m) == after.coefficient(m)
                else INFINITY
                for m in monomials
            },
            semiring.truncation_degree,
        )
    return marked
