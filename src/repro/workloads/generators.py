"""Synthetic workload generators for the scaling benchmarks.

The paper's own examples are tiny (they fit in a figure); these generators
produce larger instances that exercise the same code paths so the benchmark
suite can measure how provenance computation scales relative to plain
evaluation:

* random binary relations / star-join schemas for the positive algebra;
* random directed graphs, chains, cycles and DAGs for datalog transitive
  closure across semirings;
* tuple-independent probabilistic relations with controllable uncertainty;
* random update streams (batches of insertions and deletions against a
  database snapshot) for the incremental view-maintenance benchmarks and
  the differential update-stream harness.

All generators are deterministic given a seed, so benchmark runs are
reproducible.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.semirings.base import Semiring
from repro.semirings.boolean import BooleanSemiring
from repro.semirings.numeric import NaturalsSemiring
from repro.semirings.polynomial import Polynomial
from repro.semirings.posbool import BoolExpr
from repro.workloads.paper_instances import transitive_closure_program

__all__ = [
    "random_relation",
    "random_annotation",
    "star_join_database",
    "random_graph_database",
    "chain_graph_database",
    "dag_database",
    "triangle_query",
    "transitive_closure_program",
    "random_update_stream",
    "random_edge_insert_stream",
]


def random_annotation(semiring: Semiring, rng: random.Random, index: int) -> object:
    """A plausible non-zero annotation for the given semiring.

    Numeric semirings get small integers, lattice/line semirings get values
    drawn from their natural element pools, provenance semirings get a fresh
    variable per tuple (the abstract-tagging convention).
    """
    name = semiring.name
    if name == "B":
        return True
    if name.startswith("N∞") and "[[" in name:
        from repro.semirings.power_series import FormalPowerSeries

        return FormalPowerSeries.var(f"x{index}")
    if name in ("N", "N∞", "Z"):
        return semiring.coerce(rng.randint(1, 5))
    if name in ("Fuzzy", "Viterbi"):
        # dyadic values keep float products exact, so algebraic identities can
        # be checked with plain equality in the tests
        return rng.choice([0.0625, 0.125, 0.25, 0.5, 0.75, 1.0])
    if name == "Tropical":
        return float(rng.randint(1, 20))
    if name.startswith("PosBool"):
        return BoolExpr.var(f"x{index}")
    if name.startswith("Why"):
        return frozenset({f"x{index}"})
    if name in ("N[X]", "N∞[X]"):
        return Polynomial.var(f"x{index}")
    if name == "Z[X]":
        from repro.semirings.integers import ZPolynomial

        return ZPolynomial.var(f"x{index}")
    if name.startswith("P(Ω)"):
        # A random event over roughly half the space: unions and
        # intersections both stay informative.
        worlds = sorted(semiring.space.worlds, key=str)
        return frozenset(rng.sample(worlds, (len(worlds) + 1) // 2))
    return semiring.one()


def random_relation(
    semiring: Semiring,
    attributes: Sequence[str],
    *,
    num_tuples: int,
    domain_size: int,
    seed: int = 0,
    annotation_offset: int = 0,
) -> KRelation:
    """A random K-relation with ``num_tuples`` distinct tuples."""
    rng = random.Random(seed)
    relation = KRelation(semiring, attributes)
    seen = set()
    index = annotation_offset
    attempts = 0
    while len(seen) < num_tuples and attempts < num_tuples * 50:
        attempts += 1
        values = tuple(f"v{rng.randrange(domain_size)}" for _ in attributes)
        if values in seen:
            continue
        seen.add(values)
        index += 1
        relation._set(values, random_annotation(semiring, rng, index))
    return relation


def star_join_database(
    semiring: Semiring,
    *,
    fact_tuples: int = 200,
    dimension_tuples: int = 40,
    domain_size: int = 30,
    seed: int = 0,
) -> Database:
    """A small star schema: one fact table ``F(a, b, c)`` and dimensions ``D1(a, x)``, ``D2(b, y)``.

    Used by the RA⁺ scaling benchmark: the canonical provenance-vs-plain
    comparison query joins the fact table with both dimensions and projects.
    """
    database = Database(semiring)
    database.register(
        "F",
        random_relation(
            semiring,
            ["a", "b", "c"],
            num_tuples=fact_tuples,
            domain_size=domain_size,
            seed=seed,
        ),
    )
    database.register(
        "D1",
        random_relation(
            semiring,
            ["a", "x"],
            num_tuples=dimension_tuples,
            domain_size=domain_size,
            seed=seed + 1,
            annotation_offset=fact_tuples,
        ),
    )
    database.register(
        "D2",
        random_relation(
            semiring,
            ["b", "y"],
            num_tuples=dimension_tuples,
            domain_size=domain_size,
            seed=seed + 2,
            annotation_offset=fact_tuples + dimension_tuples,
        ),
    )
    return database


def _edge_relation(
    semiring: Semiring, edges: Iterable[tuple[str, str]], seed: int
) -> KRelation:
    rng = random.Random(seed)
    relation = KRelation(semiring, ["x", "y"])
    for index, (source, target) in enumerate(sorted(set(edges)), start=1):
        relation._set((source, target), random_annotation(semiring, rng, index))
    return relation


def random_graph_database(
    semiring: Semiring,
    *,
    nodes: int = 20,
    edge_probability: float = 0.15,
    seed: int = 0,
    relation_name: str = "R",
) -> Database:
    """A random directed graph as an edge relation (Erdos-Renyi style)."""
    rng = random.Random(seed)
    edges = [
        (f"n{i}", f"n{j}")
        for i in range(nodes)
        for j in range(nodes)
        if i != j and rng.random() < edge_probability
    ]
    database = Database(semiring)
    database.register(relation_name, _edge_relation(semiring, edges, seed + 1))
    return database


def chain_graph_database(
    semiring: Semiring, *, length: int = 30, seed: int = 0, relation_name: str = "R"
) -> Database:
    """A simple path ``n0 -> n1 -> ... -> n_length`` (acyclic, polynomial provenance)."""
    edges = [(f"n{i}", f"n{i + 1}") for i in range(length)]
    database = Database(semiring)
    database.register(relation_name, _edge_relation(semiring, edges, seed))
    return database


def dag_database(
    semiring: Semiring,
    *,
    layers: int = 5,
    width: int = 4,
    seed: int = 0,
    relation_name: str = "R",
) -> Database:
    """A layered DAG with all edges between consecutive layers.

    Transitive closure over a layered DAG has exponentially many derivation
    trees per layer distance but no cycles, so provenance stays polynomial --
    a useful contrast with cyclic graphs in the datalog benchmarks.
    """
    edges = []
    for layer in range(layers - 1):
        for i in range(width):
            for j in range(width):
                edges.append((f"l{layer}_{i}", f"l{layer + 1}_{j}"))
    database = Database(semiring)
    database.register(relation_name, _edge_relation(semiring, edges, seed))
    return database


def triangle_query() -> Program:
    """The triangle-counting conjunctive query ``T(x,y,z) :- R(x,y), R(y,z), R(z,x)``."""
    return Program.parse("T(x, y, z) :- R(x, y), R(y, z), R(z, x)")


def random_update_stream(
    database: Database,
    *,
    batches: int,
    inserts_per_batch: int = 4,
    deletes_per_batch: int = 0,
    domain_size: int = 30,
    seed: int = 0,
    relation_names: Sequence[str] | None = None,
):
    """A reproducible stream of :class:`~repro.incremental.UpdateBatch` objects.

    Each batch inserts ``inserts_per_batch`` random tuples (fresh annotations
    from :func:`random_annotation`, ``+``-combined on collision) and deletes
    ``deletes_per_batch`` tuples drawn from the relations' *live* supports,
    spread over ``relation_names`` (default: every relation of ``database``).
    The generator tracks the evolving supports itself, so the stream can be
    produced up front and replayed against any copy of ``database`` -- the
    database passed in is only read, never mutated.
    """
    from repro.incremental import UpdateBatch

    rng = random.Random(seed)
    names = list(relation_names or database.names())
    semiring = database.semiring
    live: dict[str, dict] = {}
    schemas: dict[str, Sequence[str]] = {}
    for name in names:
        relation = database.relation(name)
        schemas[name] = relation.schema.attributes
        live[name] = dict.fromkeys(map(relation.schema.values_of, relation._rows))
    index = sum(len(rows) for rows in live.values())
    stream = []
    for _ in range(batches):
        insertions: dict[str, list] = {}
        deletions: dict[str, list] = {}
        for _ in range(inserts_per_batch):
            name = rng.choice(names)
            values = tuple(
                f"v{rng.randrange(domain_size)}" for _ in schemas[name]
            )
            index += 1
            insertions.setdefault(name, []).append(
                (values, random_annotation(semiring, rng, index))
            )
            live[name][values] = None
        for _ in range(deletes_per_batch):
            name = rng.choice(names)
            if not live[name]:
                continue
            values = rng.choice(list(live[name]))
            deletions.setdefault(name, []).append(values)
            del live[name][values]
        stream.append(UpdateBatch(insertions=insertions, deletions=deletions))
    return stream


def random_edge_insert_stream(
    semiring: Semiring,
    *,
    nodes: int,
    batches: int,
    edges_per_batch: int = 2,
    seed: int = 0,
    relation_name: str = "R",
):
    """Batches of random edge insertions for the incremental datalog workloads.

    Returns a list of batches, each a list of ``((source, target),
    annotation)`` entries ready for
    :meth:`repro.incremental.IncrementalDatalog.insert` on ``relation_name``.
    """
    rng = random.Random(seed)
    stream = []
    index = 0
    for _ in range(batches):
        batch = []
        for _ in range(edges_per_batch):
            source = rng.randrange(nodes)
            target = rng.randrange(nodes)
            if source == target:
                target = (target + 1) % nodes
            index += 1
            batch.append(
                (
                    (f"n{source}", f"n{target}"),
                    random_annotation(semiring, rng, index),
                )
            )
        stream.append(batch)
    return stream


def boolean_copy(database: Database) -> Database:
    """Re-annotate a database in the Boolean semiring (same support)."""
    boolean = BooleanSemiring()
    return database.map_annotations(lambda _: True, boolean)


def bag_copy(database: Database, multiplicity: int = 1) -> Database:
    """Re-annotate a database in the bag semiring with a constant multiplicity."""
    bag = NaturalsSemiring()
    return database.map_annotations(lambda _: multiplicity, bag)
