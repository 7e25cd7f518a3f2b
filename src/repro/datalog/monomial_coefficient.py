"""Algorithm Monomial-Coefficient (Figure 9 of the paper).

Given a datalog query ``q``, an instance ``I``, an output tuple ``t`` and a
monomial ``mu`` over the tuple ids of ``I``, the algorithm computes the
coefficient of ``mu`` in the provenance power series ``q(I)(t)`` -- even when
the series itself is infinite, and even when that particular coefficient is
``infinity``.

The coefficient of ``mu`` is the number of derivation trees of ``t`` whose
fringe (bag of leaf tuple ids) is exactly ``mu``.  The implementation builds
a *bag-indexed* grounded program whose nodes are pairs ``(atom, bag)`` with
``bag`` a sub-monomial of ``mu``: a pair has one "rule" per way of splitting
its bag among the body atoms of a grounded rule for ``atom``.  Counting
derivations of ``(t, mu)`` in this finite graph is then the familiar
problem solved for All-Trees: pairs reachable from a cycle (necessarily a
cycle of unit rules, since any sibling of a cyclic split would have to
consume an empty bag and hence contributes nothing) have infinitely many
derivations, i.e. coefficient ``infinity``; the rest are counted exactly,
one strongly connected component at a time in dependency order (no
recursion, however deep the derivations).  This matches the termination
argument given for Figure 9 in the paper (cycles of unit rules are the only
source of ∞).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.errors import DatalogError
from repro.datalog.all_trees import default_edb_ids
from repro.datalog.grounding import (
    GroundAtom,
    GroundProgram,
    ground_program,
    is_cyclic,
    strongly_connected_components,
)
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.semirings.numeric import INFINITY, NatInf
from repro.semirings.polynomial import Monomial

__all__ = ["monomial_coefficient", "MonomialCoefficientResult"]

_Bag = Tuple[Tuple[str, int], ...]  # canonical monomial representation


@dataclass
class MonomialCoefficientResult:
    """The computed coefficient together with the ingredients used to compute it."""

    atom: GroundAtom
    monomial: Monomial
    coefficient: NatInf
    edb_ids: Dict[GroundAtom, str]

    @property
    def is_infinite(self) -> bool:
        """Whether the coefficient is ``infinity``."""
        return self.coefficient.is_infinite


def monomial_coefficient(
    program: Program | str,
    database: Database,
    atom: GroundAtom | tuple,
    monomial: Monomial | str,
    *,
    edb_ids: Mapping[GroundAtom, str] | None = None,
) -> MonomialCoefficientResult:
    """Coefficient of ``monomial`` in the provenance series of ``atom``.

    ``atom`` may be a :class:`GroundAtom` of the output predicate or a plain
    tuple of values (interpreted over the output predicate).  ``monomial``
    may be a :class:`Monomial` or a string such as ``"r·n·p·s^3"`` /
    ``"r*n*p*s^3"``.
    """
    if isinstance(program, str):
        program = Program.parse(program)
    ground = ground_program(program, database)
    ids = dict(edb_ids) if edb_ids is not None else default_edb_ids(ground)

    if not isinstance(atom, GroundAtom):
        atom = GroundAtom(program.output, tuple(atom))
    if isinstance(monomial, str):
        from repro.semirings.polynomial import Polynomial

        parsed = Polynomial.parse(monomial)
        if len(parsed.terms) != 1 or parsed.terms[0][1] != 1:
            raise DatalogError(f"{monomial!r} does not denote a single monomial")
        monomial = parsed.terms[0][0]

    known_ids = set(ids.values())
    unknown = monomial.variables - known_ids
    if unknown:
        raise DatalogError(f"monomial mentions unknown tuple ids {sorted(unknown)}")

    if atom not in ground.derivable:
        return MonomialCoefficientResult(atom, monomial, NatInf(0), ids)

    coefficient = _count_trees_with_fringe(ground, ids, atom, monomial)
    return MonomialCoefficientResult(atom, monomial, coefficient, ids)


def _count_trees_with_fringe(
    ground: GroundProgram,
    ids: Mapping[GroundAtom, str],
    root: GroundAtom,
    monomial: Monomial,
) -> NatInf:
    """Count derivation trees of ``root`` with fringe exactly ``monomial``."""
    target: _Bag = monomial.powers

    # ------------------------------------------------------------------
    # Step 1: build the bag-indexed dependency graph restricted to nodes
    # reachable (downward) from (root, target).
    # ------------------------------------------------------------------
    edges: Dict[tuple[GroundAtom, _Bag], List[List[tuple[GroundAtom, _Bag]]]] = {}
    leaf_nodes: set[tuple[GroundAtom, _Bag]] = set()
    stack = [(root, target)]
    visited: set[tuple[GroundAtom, _Bag]] = set()
    while stack:
        node = stack.pop()
        if node in visited:
            continue
        visited.add(node)
        atom, bag = node
        if ground.is_edb(atom):
            if _bag_is_single(bag, ids[atom]):
                leaf_nodes.add(node)
            continue
        alternatives: List[List[tuple[GroundAtom, _Bag]]] = []
        for rule in ground.rules_with_head(atom):
            for split in _splits(bag, len(rule.body)):
                children = list(zip(rule.body, split))
                alternatives.append(children)
                for child in children:
                    if child not in visited:
                        stack.append(child)
        edges[node] = alternatives

    # ------------------------------------------------------------------
    # Step 2: which nodes have at least one derivation? (bottom-up)
    # ------------------------------------------------------------------
    derivable: set[tuple[GroundAtom, _Bag]] = set(leaf_nodes)
    changed = True
    while changed:
        changed = False
        for node, alternatives in edges.items():
            if node in derivable:
                continue
            for children in alternatives:
                if all(child in derivable for child in children):
                    derivable.add(node)
                    changed = True
                    break
    if (root, target) not in derivable:
        return NatInf(0)

    # ------------------------------------------------------------------
    # Step 3: count in dependency order over the fully derivable
    # alternatives.  A node on a cycle of them, or using a node with
    # coefficient infinity, has coefficient infinity; every other node sums
    # its alternatives' products of counts computed before it.
    # ------------------------------------------------------------------
    alternatives_of = {
        node: [
            children
            for children in alternatives
            if all(child in derivable for child in children)
        ]
        for node, alternatives in edges.items()
        if node in derivable
    }
    nodes = list(derivable)
    number = {node: i for i, node in enumerate(nodes)}
    successors = [
        {number[child] for children in alternatives_of.get(node, ()) for child in children}
        for node in nodes
    ]
    counts: Dict[tuple[GroundAtom, _Bag], int] = dict.fromkeys(leaf_nodes, 1)
    infinite: set[int] = set()
    for component in strongly_connected_components(successors):
        if is_cyclic(component, successors) or any(
            child in infinite for index in component for child in successors[index]
        ):
            infinite.update(component)
            continue
        node = nodes[component[0]]
        if node in counts:
            continue
        total = 0
        for children in alternatives_of[node]:
            product = 1
            for child in children:
                product *= counts[child]
            total += product
        counts[node] = total

    if number[(root, target)] in infinite:
        return INFINITY
    return NatInf(counts[(root, target)])


# ----------------------------------------------------------------------
# Bag (monomial) helpers
# ----------------------------------------------------------------------

def _bag_is_single(bag: _Bag, variable: str) -> bool:
    return len(bag) == 1 and bag[0] == (variable, 1)


def _splits(bag: _Bag, parts: int) -> Iterator[tuple[_Bag, ...]]:
    """Enumerate all ordered splits of a bag into ``parts`` sub-bags."""
    if parts == 1:
        yield (bag,)
        return
    for first, rest in _sub_bags(bag):
        for remainder in _splits(rest, parts - 1):
            yield (first, *remainder)


def _sub_bags(bag: _Bag) -> Iterator[tuple[_Bag, _Bag]]:
    """Enumerate (sub-bag, complement) pairs of a bag of variable powers."""
    variables = [v for v, _ in bag]
    exponents = [e for _, e in bag]

    def recurse(index: int, chosen: list[int]) -> Iterator[tuple[_Bag, _Bag]]:
        if index == len(variables):
            sub = tuple(
                (v, c) for v, c in zip(variables, chosen) if c > 0
            )
            complement = tuple(
                (v, e - c)
                for v, e, c in zip(variables, exponents, chosen)
                if e - c > 0
            )
            yield sub, complement
            return
        for count in range(exponents[index] + 1):
            yield from recurse(index + 1, chosen + [count])

    yield from recurse(0, [])
