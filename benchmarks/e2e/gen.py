"""Seeded input generators: plain rows only, no ``repro`` import.

Every generator draws from the ``random.Random`` it is handed and returns
tuples of strings and numbers, so the program under test receives rows and
nothing else.  A different seed changes the instances but never the sizes.

The generators are *degree-regular* where the measured cost depends on
degrees: every node of a graph has the same out-degree, every dimension key
of a star schema has the same number of partners.  The size of each join is
then fixed by the parameters, not by the seed, which is what lets ten runs
on ten seeds agree to a few percent.  Where even that leaves the cost to the
draw (fixpoint rounds, compiled diagram sizes) the topology is fixed and the
seed draws labels, row order and annotations only.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

Row = Tuple[Any, ...]
Edge = Tuple[str, str]

DEFAULT_SEED = 20070611  # the paper's PODS'07 presentation date


def sub_rng(seed: int, label: str) -> random.Random:
    """An independent stream per (seed, label): adding a generator call in
    one workload never shifts the rows of another."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def digest_rows(rows: Iterable[Any]) -> str:
    """A stable digest of generated rows (used by the determinism tests)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def regular_edges(
    rng: random.Random, nodes: int, edges: int, *, loops: bool = True
) -> List[Edge]:
    """``edges`` distinct directed edges over ``nodes`` nodes, out-regular.

    Node ``i`` gets ``edges // nodes`` distinct random targets (the first
    ``edges % nodes`` nodes get one more), so ``|E ⋈ E|`` is the same for
    every seed.  The list is shuffled: row order carries no structure.
    """
    base, extra = divmod(edges, nodes)
    names = [f"v{i}" for i in range(nodes)]
    out: List[Edge] = []
    for i, source in enumerate(names):
        candidates = names if loops else names[:i] + names[i + 1 :]
        for target in rng.sample(candidates, base + (1 if i < extra else 0)):
            out.append((source, target))
    rng.shuffle(out)
    return out


def offset_edges(rng: random.Random, nodes: int, offsets: Sequence[int]) -> List[Edge]:
    """Edges ``i -> (i + o) mod nodes`` for every node ``i`` and offset ``o``.

    The topology is fixed by ``offsets``; the seed only permutes the node
    labels and the row order.  Work that depends on the graph's shape --
    fixpoint rounds, delta sizes -- is then the same for every seed, while
    hash orders and annotations still vary.
    """
    names = [f"v{i}" for i in range(nodes)]
    rng.shuffle(names)
    out = [(names[i], names[(i + o) % nodes]) for i in range(nodes) for o in offsets]
    rng.shuffle(out)
    return out


def annotate(
    rng: random.Random, rows: Sequence[Row], draw: Callable[[random.Random], Any]
) -> List[Tuple[Row, Any]]:
    """Pair every row with an annotation drawn from ``draw``."""
    return [(row, draw(rng)) for row in rows]


def small_int(rng: random.Random) -> int:
    return rng.randint(1, 5)


def small_cost(rng: random.Random) -> float:
    return float(rng.randint(1, 20))


def tag(rows: Sequence[Row], prefix: str = "x") -> List[Tuple[Row, str]]:
    """Abstract tagging: row ``i`` is annotated with the variable name
    ``x<i>`` (the caller turns names into ``N[X]`` / circuit / why values)."""
    return [(row, f"{prefix}{i}") for i, row in enumerate(rows, start=1)]


def star_schema(
    rng: random.Random,
    *,
    facts: int,
    domain: int,
    partners: int,
    labels: int,
) -> Dict[str, List[Row]]:
    """A star schema ``F(a,b,c)``, ``D1(a,x)``, ``D2(b,y)``, regular throughout.

    Every ``a`` value carries ``facts // domain`` fact rows, every ``a``
    (``b``) value has ``partners`` rows in ``D1`` (``D2``), and every ``x``
    (``y``) label is used equally often -- so the full star join has exactly
    ``facts * partners**2`` rows and a filter on one label keeps exactly
    ``1 / labels`` of ``D1``.
    """
    keys = [f"k{i}" for i in range(domain)]
    per_key = facts // domain
    fact_rows: List[Row] = []
    for a in keys:
        seen = set()
        while len(seen) < per_key:
            seen.add((rng.choice(keys), rng.choice(keys)))
        fact_rows.extend((a, b, c) for b, c in sorted(seen))
    rng.shuffle(fact_rows)

    def dimension(label_prefix: str) -> List[Row]:
        order = keys[:]
        rng.shuffle(order)
        offset = rng.randrange(labels)
        rows = [
            (key, f"{label_prefix}{(i * partners + j + offset) % labels}")
            for i, key in enumerate(order)
            for j in range(partners)
        ]
        rng.shuffle(rows)
        return rows

    return {"F": fact_rows, "D1": dimension("x"), "D2": dimension("y")}


def fresh_fact_rows(rng: random.Random, count: int, domain: int, taken: Any) -> List[Row]:
    """``count`` distinct fact rows of which none is ``in taken``."""
    out: Dict[Row, None] = {}
    while len(out) < count:
        row = tuple(f"k{rng.randrange(domain)}" for _ in range(3))
        if row not in taken:
            out[row] = None
    return list(out)


def chain_edges(length: int, prefix: str = "c") -> List[Edge]:
    """The path ``c0 -> c1 -> ... -> c<length>``."""
    return [(f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(length)]


def uncertain(
    rng: random.Random, rows: Sequence[Row], prefix: str = "e"
) -> List[Tuple[Row, str, float]]:
    """Tuple-independent rows ``(row, event name, probability)``; the
    probabilities are two-digit decimals in [0.30, 0.95]."""
    return [
        (row, f"{prefix}{i}", rng.randint(30, 95) / 100.0)
        for i, row in enumerate(rows, start=1)
    ]


def ladder(columns: int) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """The directed ladder on ``columns`` columns: two rails running left to
    right and a rung from rail 0 to rail 1 in every column.  Nodes are
    ``(column, rail)``; ``3 * columns - 2`` edges.  Bounded width, so exact
    inference on it stays polynomial, and the topology is the same for
    every seed -- only labels, row order and probabilities vary."""
    edges = []
    for column in range(columns - 1):
        edges.append(((column, 0), (column + 1, 0)))
        edges.append(((column, 1), (column + 1, 1)))
    edges.extend(((column, 0), (column, 1)) for column in range(columns))
    return edges
