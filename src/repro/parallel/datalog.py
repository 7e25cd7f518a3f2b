"""Partition-parallel semi-naive datalog rounds.

The parent process keeps the **authoritative** engine -- stores, indexes,
and the one place annotations are merged -- and uses the pool only to fire
join plans over partitions of each round's delta:

* the program and database are **broadcast** once; every worker builds an
  identical engine (plan compilation is deterministic in ``(program,
  database)``, so plans are addressed by index) whose stores hold only the
  broadcast EDB state;
* a plan is **remote-safe** when every non-driver body atom is extensional:
  its probes only touch the broadcast (immutable during the run) EDB
  stores.  Rules that probe IDB state -- the nonlinear transitive-closure
  rule, for instance -- fire locally in the parent against its live stores;
* per remote-safe plan and round, :func:`~repro.planner.cost.choose_partitions`
  decides between **repartitioning** the delta across the pool and firing
  locally against the broadcast state (small deltas never amortize the
  shipping);
* delta rows are shipped together with their annotations (the worker's
  engine never holds derived state -- see ``_fire``'s
  ``driver_annotations``); seed partitions ship row *indexes* into the
  broadcast EDB stores;
* workers return raw contribution maps; the parent folds them into the
  round's output and runs its ordinary ``_merge`` -- one ``+``-chain per
  head tuple, identical to the serial engine's accumulation discipline.

Collect mode (non-idempotent semirings record rule instantiations) and
semirings without a canonical, picklable carrier decline through the same
chokepoint as everything else (:func:`~repro.parallel.merge.parallel_merge_ops`)
and the caller falls back to :meth:`_SemiNaiveEngine.run`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import DivergenceError, SerializationError
from repro.obs import trace as _trace
from repro.parallel.executor import ParallelExecutor, shared_executor
from repro.parallel.merge import parallel_merge_ops
from repro.parallel.partition import partition_indexes, partition_rows
from repro.parallel.worker import run_datalog_tasks
from repro.planner.cost import choose_partitions

__all__ = ["run_engine_parallel"]


def _remote_safe(plan, edb: set) -> bool:
    """Whether ``plan`` may fire in a worker -- and whether it is worth it.

    Besides the EDB-only probe requirement, step-less plans (pure copies,
    ``Q(x) :- R(x)``) never fan out: they do no join work per row, so
    shipping the rows -- and their full annotations back -- costs strictly
    more than firing locally.
    """
    return (
        plan.driver is not None
        and bool(plan.steps)
        and all(step.predicate in edb for step in plan.steps)
    )


def _dispatch(executor: ParallelExecutor, token: str, blob: bytes, tasks: List[tuple], out) -> None:
    """Ship a round's task batch and fold the workers' contributions into ``out``.

    Tasks are dealt round-robin over at most ``executor.workers`` calls so
    partitions of the same plan land on different workers; results are
    folded in submission order (irrelevant for the order-insensitive
    carriers the chokepoint admits, but it keeps runs reproducible).
    """
    if not tasks:
        return
    fanout = min(executor.workers, len(tasks))
    buckets = [tasks[i::fanout] for i in range(fanout)]
    with _trace.span(
        "parallel.worker", kind="datalog", tasks=len(tasks), fanout=fanout
    ):
        results = executor.run_tasks(
            run_datalog_tasks, [(token, blob, bucket) for bucket in buckets]
        )
    for result in results:
        for predicate, emit in result.items():
            destination = out[predicate]
            for head, batch in emit.items():
                existing = destination.get(head)
                if existing is None:
                    destination[head] = batch
                else:
                    existing.extend(batch)


def run_engine_parallel(
    engine, *, max_iterations: int, parallel: Any
) -> Optional[int]:
    """Run ``engine``'s fixpoint with partition-parallel rounds.

    Drop-in for :meth:`_SemiNaiveEngine.run`: same store mutations, same
    round accounting, same divergence behaviour.  Returns the round count,
    or ``None`` to decline (collect mode, a semiring outside the parallel
    whitelist, a program with no remote-safe plan, an unshippable database)
    -- the caller then runs the ordinary serial loop on the same, still
    untouched, engine.
    """
    if engine.collect:
        return None
    if not parallel_merge_ops(engine.semiring):
        return None
    if isinstance(parallel, ParallelExecutor):
        executor = parallel
    else:
        workers = int(parallel)
        if workers < 1:
            return None
        executor = None

    edb = set(engine.program.edb_predicates)
    remote_seed = {
        i for i, plan in enumerate(engine.seed_plans) if _remote_safe(plan, edb)
    }
    remote_delta = {
        predicate: {i for i, plan in enumerate(plans) if _remote_safe(plan, edb)}
        for predicate, plans in engine.delta_plans.items()
    }
    if not remote_seed and not any(remote_delta.values()):
        return None  # nothing could ever fan out (e.g. all rules nonlinear)

    if executor is None:
        executor = shared_executor(workers)
    try:
        token, blob = executor.broadcast(
            (engine.program, engine.database, engine.maintain_edb, engine.storage_kind)
        )
    except SerializationError:
        return None

    pool = executor.workers

    # -- seed round --------------------------------------------------------------
    with _trace.span(
        "datalog.seed",
        mode="annotate",
        plans=len(engine.seed_plans),
        parallel=pool,
        path="rows",
    ) as sp:
        out = engine._fresh()
        tasks: List[tuple] = []
        with _trace.span("parallel.partition", round=1):
            for index, plan in enumerate(engine.seed_plans):
                rows = engine.stores[plan.driver.predicate].rows
                if index in remote_seed:
                    decision = choose_partitions(len(rows), pool)
                    if decision.partitions > 1:
                        for part in partition_indexes(
                            rows, decision.partitions, key=lambda row: row[0]
                        ):
                            if part:
                                tasks.append(("seed", index, part))
                        continue
                engine._fire(plan, rows, out)
        _dispatch(executor, token, blob, tasks, out)
        with _trace.span("parallel.merge"):
            delta = engine._merge(out)
        if _trace.enabled():
            sp.set(delta_rows=sum(len(rows) for rows in delta.values()))
    iterations = 1

    # -- delta rounds ------------------------------------------------------------
    while any(delta.values()):
        if iterations >= max_iterations:
            raise DivergenceError(
                f"datalog evaluation over {engine.database.semiring.name} did not "
                f"converge within {max_iterations} iterations"
            )
        iterations += 1
        with _trace.span("datalog.round", round=iterations, parallel=pool):
            out = engine._fresh()
            tasks = []
            with _trace.span("parallel.partition", round=iterations):
                for predicate, rows in delta.items():
                    if not rows:
                        continue
                    annotated: Optional[List[Tuple[tuple, Any]]] = None
                    for index, plan in enumerate(engine.delta_plans[predicate]):
                        if index in remote_delta.get(predicate, ()):
                            decision = choose_partitions(len(rows), pool)
                            if decision.partitions > 1:
                                if annotated is None:
                                    stored = engine.stores[
                                        predicate
                                    ].relation._annotations
                                    annotated = [
                                        (row, stored[row[1]]) for row in rows
                                    ]
                                for part in partition_rows(
                                    annotated,
                                    decision.partitions,
                                    key=lambda pair: pair[0][0],
                                ):
                                    if part:
                                        tasks.append(
                                            (
                                                "delta",
                                                predicate,
                                                index,
                                                [row for row, _ in part],
                                                [value for _, value in part],
                                            )
                                        )
                                continue
                        engine._fire(plan, rows, out)
            _dispatch(executor, token, blob, tasks, out)
            with _trace.span("parallel.merge"):
                delta = engine._merge(out)
    return iterations
