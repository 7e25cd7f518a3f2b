"""Pure-Python reference answers, written in the benchmark, for the untimed
verification pass on the last pass's results.

Nothing here imports ``repro``: a reference shares no code with the program
it checks.  Every function takes rows and returns plain dicts.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Set, Tuple

Edge = Tuple[str, str]
INF = float("inf")

# semiring name -> (plus, times); the references run on plain Python values
ARITHMETIC: Dict[str, Tuple[Callable[[Any, Any], Any], Callable[[Any, Any], Any]]] = {
    "N": (lambda a, b: a + b, lambda a, b: a * b),
    "Z": (lambda a, b: a + b, lambda a, b: a * b),
    "Tropical": (min, lambda a, b: a + b),
    "B": (lambda a, b: a or b, lambda a, b: a and b),
    "Why": (lambda a, b: a | b, lambda a, b: a | b),
}


def mismatches(label: str, got: Mapping[Any, Any], want: Mapping[Any, Any], tol: float = 0.0) -> List[str]:
    """Differences between two ``{key: value}`` maps, as failure lines."""
    out: List[str] = []
    if set(got) != set(want):
        extra, lacking = set(got) - set(want), set(want) - set(got)
        out.append(
            f"{label}: support differs ({len(extra)} extra, {len(lacking)} missing; "
            f"e.g. {sorted(extra or lacking, key=repr)[:2]})"
        )
        return out
    for key, value in want.items():
        have = got[key]
        bad = abs(have - value) > tol if tol else have != value
        if bad:
            out.append(f"{label}: {key} is {have!r}, reference says {value!r}")
            if len(out) >= 3:
                break
    return out


def two_hop(rows: Iterable[Tuple[Edge, Any]], semiring: str) -> Dict[Edge, Any]:
    """``π_{a,c}(E(a,b) ⋈ E(b,c))``: sum over b of E(a,b)·E(b,c)."""
    plus, times = ARITHMETIC[semiring]
    rows = list(rows)
    by_source: Dict[str, List[Tuple[str, Any]]] = {}
    for (source, target), value in rows:
        by_source.setdefault(source, []).append((target, value))
    out: Dict[Edge, Any] = {}
    for (a, b), left in rows:
        for c, right in by_source.get(b, ()):
            product = times(left, right)
            key = (a, c)
            out[key] = plus(out[key], product) if key in out else product
    return out


def star(
    facts: Iterable[Tuple[tuple, Any]],
    d1: Iterable[Tuple[tuple, Any]],
    d2: Iterable[Tuple[tuple, Any]],
    semiring: str,
    *,
    keep: Sequence[str],
    label: str | None = None,
) -> Dict[tuple, Any]:
    """``π_keep(σ_{x=label}(F(a,b,c) ⋈ D1(a,x) ⋈ D2(b,y)))`` (no filter when
    ``label`` is ``None``)."""
    plus, times = ARITHMETIC[semiring]
    by_a: Dict[str, List[Tuple[str, Any]]] = {}
    for (a, x), value in d1:
        if label is None or x == label:
            by_a.setdefault(a, []).append((x, value))
    by_b: Dict[str, List[Tuple[str, Any]]] = {}
    for (b, y), value in d2:
        by_b.setdefault(b, []).append((y, value))
    out: Dict[tuple, Any] = {}
    for (a, b, c), fact in facts:
        for x, left in by_a.get(a, ()):
            for y, right in by_b.get(b, ()):
                row = {"a": a, "b": b, "c": c, "x": x, "y": y}
                key = tuple(row[name] for name in keep)
                product = times(times(fact, left), right)
                out[key] = plus(out[key], product) if key in out else product
    # Over Z a sum can cancel to zero; a K-relation stores no zeros.
    return {key: value for key, value in out.items() if value != 0 or semiring != "Z"}


def reachability(edges: Iterable[Edge]) -> Set[Edge]:
    """Pairs joined by a path of length >= 1 (BFS from every node)."""
    successors: Dict[str, List[str]] = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
    out: Set[Edge] = set()
    for start in successors:
        seen: Set[str] = set()
        frontier = list(successors[start])
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(successors.get(node, ()))
        out.update((start, node) for node in seen)
    return out


def shortest_paths(weighted: Iterable[Tuple[Edge, float]]) -> Dict[Edge, float]:
    """Cheapest path of length >= 1 between every pair (Bellman-Ford from
    every source; weights are positive)."""
    incoming: List[Tuple[str, str, float]] = []
    sources: Set[str] = set()
    for (source, target), weight in weighted:
        incoming.append((source, target, weight))
        sources.add(source)
    out: Dict[Edge, float] = {}
    for start in sources:
        best: Dict[str, float] = {}
        for source, target, weight in incoming:
            if source == start and weight < best.get(target, INF):
                best[target] = weight
        changed = True
        while changed:
            changed = False
            for source, target, weight in incoming:
                through = best.get(source, INF) + weight
                if through < best.get(target, INF):
                    best[target] = through
                    changed = True
        out.update(((start, node), cost) for node, cost in best.items())
    return out


def walk_counts(weighted: Iterable[Tuple[Edge, int]]) -> Dict[Edge, Any]:
    """Bag-semantics linear transitive closure over N∞: for every pair, the
    sum over all walks of the product of edge multiplicities -- ``"inf"``
    when there are infinitely many walks (some node on a cycle lies on a
    walk between the pair)."""
    weight: Dict[Edge, int] = dict(weighted)
    successors: Dict[str, List[str]] = {}
    for source, target in weight:
        successors.setdefault(source, []).append(target)
    reach = reachability(weight)
    nodes = {node for edge in weight for node in edge}
    cyclic = {node for node in nodes if (node, node) in reach}
    memo: Dict[Edge, Any] = {}

    def count(x: str, y: str) -> Any:
        key = (x, y)
        if key in memo:
            return memo[key]
        # x ->* z ->* y through a cyclic z (->* includes the empty walk)
        for z in cyclic:
            if (x == z or (x, z) in reach) and (z == y or (z, y) in reach):
                memo[key] = "inf"
                return "inf"
        total = 0
        for z in successors.get(x, ()):
            w = weight[(x, z)]
            if z == y:
                total += w
            if (z, y) in reach:
                total += w * count(z, y)  # finite: z inherits x's acyclicity
        memo[key] = total
        return total

    return {(x, y): count(x, y) for x, y in reach}


def possible_world_probabilities(
    uncertain_edges: Sequence[Tuple[Edge, str, float]],
    answer: Callable[[List[Edge]], Set[Any]],
) -> Dict[Any, float]:
    """Brute force: enumerate all 2^n worlds of independent edges, run
    ``answer`` on each, and add up the world probabilities per answer."""
    out: Dict[Any, float] = {}
    for bits in itertools.product((False, True), repeat=len(uncertain_edges)):
        probability = 1.0
        present: List[Edge] = []
        for keep, (edge, _event, p) in zip(bits, uncertain_edges):
            probability *= p if keep else 1.0 - p
            if keep:
                present.append(edge)
        for item in answer(present):
            out[item] = out.get(item, 0.0) + probability
    return out


def evaluate_polynomial(terms: Mapping[Any, int], valuation: Mapping[str, int]) -> int:
    """``Eval_v`` of an N[X] polynomial given as ``{((var, exp), ...): coeff}``."""
    total = 0
    for monomial, coefficient in terms.items():
        product = coefficient
        for name, exponent in monomial:
            product *= valuation[name] ** exponent
        total += product
    return total


def ladder_reachability(
    columns: int, probability: Mapping[Tuple[Tuple[int, int], Tuple[int, int]], float]
) -> Dict[Tuple[Tuple[int, int], Tuple[int, int]], float]:
    """Exact ``P(target reachable from source)`` for every pair of the
    directed ladder of :func:`gen.ladder` with independent edges.

    A left-to-right sweep over the joint state (rail 0 reached?, rail 1
    reached?) touches every edge exactly once, so the state distribution is
    exact: no enumeration of the 2^(3c-2) worlds is needed.
    """
    out: Dict[Tuple[Tuple[int, int], Tuple[int, int]], float] = {}
    for start in range(columns):
        for rail in (0, 1):
            source = (start, rail)
            rung = probability[((start, 0), (start, 1))]
            # distribution over (reached rail 0, reached rail 1) in this column
            states = {(True, True): rung, (True, False): 1.0 - rung} if rail == 0 else {(False, True): 1.0}
            for column in range(start, columns):
                if column > start:
                    rail0 = probability[((column - 1, 0), (column, 0))]
                    rail1 = probability[((column - 1, 1), (column, 1))]
                    rung = probability[((column, 0), (column, 1))]
                    moved: Dict[Tuple[bool, bool], float] = {}
                    for (on0, on1), weight in states.items():
                        for keep0, p0 in ((True, rail0), (False, 1.0 - rail0)) if on0 else ((False, 1.0),):
                            for keep1, p1 in ((True, rail1), (False, 1.0 - rail1)) if on1 else ((False, 1.0),):
                                for cross, pr in ((True, rung), (False, 1.0 - rung)) if keep0 else ((False, 1.0),):
                                    key = (keep0, keep1 or cross)
                                    moved[key] = moved.get(key, 0.0) + weight * p0 * p1 * pr
                    states = moved
                for target_rail in (0, 1):
                    target = (column, target_rail)
                    if target == source:
                        continue
                    reached = sum(w for state, w in states.items() if state[target_rail])
                    if reached > 0.0:
                        out[(source, target)] = reached
    return out
