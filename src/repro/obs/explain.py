"""EXPLAIN ANALYZE: the route ``Query.evaluate`` takes, observed per node.

:func:`explain_analyze` makes ``Query.evaluate``'s planning decision and
calls what it calls -- :func:`repro.engine.compile.execute` (column kernels,
then rows) on the planned plan, or :func:`~repro.engine.compile.execute_rows`
on the query as written -- with an :class:`ExecutionObserver` threaded
through.  The :class:`ExplainAnalyzeReport` names the executor that answered
(and, when the column kernels declined, why) and shows its operator tree
annotated with **actual** output rows, inclusive wall time, join build/probe
sizes and semiring-operation counts -- the quantities the paper's cost
analysis is stated in (one ``+``/``x`` chain per derivation, Definition 3.2).

Attribution model:

* the row pipeline reports its physical operators, the column kernels the
  logical plan's nodes; each node's ``rows`` is its output size and its
  ``time`` is inclusive of its children, PostgreSQL-style;
* a join's ``build``/``probe`` sizes are the rows its two inputs produced;
* a node's ops are its own: on rows, the ``times`` of a join's probe loop
  and of semiring-valued filters; on columns, what the instrumented
  semiring counted while the node ran (through its counting carrier, or
  the object carrier calling its own operations), minus its children's;
* the global totals are counted independently by an
  :class:`~repro.obs.semiring.InstrumentedSemiring` wrapped around the
  database's semiring; the ``breaker`` line is the totals minus the
  per-node counts and minus what an abandoned column attempt spent (shown
  on the executor line): the root accumulation on rows, the final
  materialization on columns.  The ``tests/obs`` suite cross-checks this.
"""

from __future__ import annotations

import time
from itertools import takewhile
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.obs import trace as _trace
from repro.obs.metrics import OpCounter, compilation
from repro.obs.semiring import InstrumentedSemiring

__all__ = [
    "NodeStats",
    "ExecutionObserver",
    "ExplainAnalyzeReport",
    "explain_analyze",
]


class NodeStats:
    """Actuals collected for one operator during an observed run."""

    __slots__ = ("rows", "wall", "ops", "columns")

    def __init__(self, columns: Tuple[str, ...] = ()) -> None:
        self.rows = 0
        self.wall = 0.0
        self.ops = OpCounter()
        self.columns = columns


class ExecutionObserver:
    """Per-node actuals of one observed execution, on either executor.

    ``nodes`` lists ``(node, stats, depth)`` in preorder for the executor
    that answered.  The row pipeline calls :meth:`attach` on its compiled
    plan: every operator then times its output stream through
    :meth:`observe_rows` and charges its ``mul`` calls through
    :meth:`counted_mul`.  The column kernels call :meth:`enter` and
    :meth:`leave` around every logical node.  ``ops`` is the run's global
    counter; ``declined`` is its snapshot from when the row pipeline started
    (``None`` while it has not) -- an abandoned column attempt's share.
    Plans without an observer skip all of this.
    """

    __slots__ = ("ops", "nodes", "declined", "_stats", "_open")

    def __init__(self, ops: OpCounter) -> None:
        self.ops = ops
        self.nodes: List[Tuple[Any, NodeStats, int]] = []
        self.declined: Dict[str, int] | None = None
        self._stats: Dict[int, NodeStats] = {}
        self._open: List[Tuple[NodeStats, Dict[str, int], float]] = []

    def attach(self, root: Any) -> None:
        """Install this observer on every node of a compiled row plan."""
        self.declined, self.nodes, self._open = self.ops.snapshot(), [], []

        def walk(node: Any, depth: int) -> None:
            node.observer = self
            stats = self._stats[id(node)] = NodeStats(node.attrs)
            self.nodes.append((node, stats, depth))
            for child in (node.left, node.right) if hasattr(node, "right") else ():
                walk(child, depth + 1)

        walk(root, 0)

    def observe_rows(
        self, node: Any, iterator: Iterator[Tuple[tuple, Any]]
    ) -> Iterator[Tuple[tuple, Any]]:
        """Wrap a node's output stream, timing each ``next()`` (inclusive)."""
        stats = self._stats[id(node)]
        clock = time.perf_counter
        while True:
            started = clock()
            try:
                item = next(iterator)
            except StopIteration:
                stats.wall += clock() - started
                return
            stats.wall += clock() - started
            stats.rows += 1
            yield item

    def counted_mul(
        self, node: Any, mul: Callable[[Any, Any], Any]
    ) -> Callable[[Any, Any], Any]:
        """A ``mul`` that attributes its calls to ``node`` before delegating."""
        ops = self._stats[id(node)].ops

        def counted(a: Any, b: Any) -> Any:
            ops.times += 1
            return mul(a, b)

        return counted

    def enter(self, node: Any) -> None:
        """A column-kernel node starts; its children run before :meth:`leave`."""
        stats = NodeStats()
        self.nodes.append((node, stats, len(self._open)))
        self._open.append((stats, self.ops.snapshot(), time.perf_counter()))

    def leave(self, batch: Any) -> None:
        """The innermost open node produced ``batch``: rows, time, own ops."""
        stats, before, started = self._open.pop()
        stats.wall = time.perf_counter() - started
        stats.rows, stats.columns = len(batch), batch.display
        parent = self._open[-1][0].ops if self._open else OpCounter()
        for name, spent in self.ops.delta(before).items():
            setattr(stats.ops, name, getattr(stats.ops, name) + spent)
            setattr(parent, name, getattr(parent, name) - spent)


class _ObservedDatabase:
    """A database view whose semiring is the instrumented wrapper.

    Relations, catalog lookups and everything else delegate to the real
    database; only ``semiring`` differs.  Both executors take their
    arithmetic from it -- the row pipeline its ``add`` / ``mul`` /
    ``is_zero``, the column kernels its ``carrier`` (a counting wrapper
    around the delegate's) -- so every operation of the run is counted.
    """

    __slots__ = ("semiring", "_delegate")

    def __init__(self, delegate: Any, semiring: InstrumentedSemiring):
        self.semiring = semiring
        self._delegate = delegate

    def __getattr__(self, name: str) -> Any:
        return getattr(self._delegate, name)


def _node_label(node: Any, inputs: List[NodeStats], build_is_left: bool | None) -> str:
    kind = type(node).__name__.lstrip("_")
    if kind in ("Scan", "RelationRef"):
        return f"Scan {node.name}"
    if kind in ("HashJoin", "Join"):
        key = ", ".join(sorted(set(inputs[0].columns) & set(inputs[1].columns))) or "⨯"
        if build_is_left is None:
            return f"{kind} on ({key})"
        return f"{kind} on ({key}) build={'left' if build_is_left else 'right'}"
    return "Empty" if kind == "EmptyRelation" else kind


def _counts(ops: Dict[str, int]) -> str:
    return " ".join(f"{name}={count}" for name, count in ops.items())


def _decline_reason(plan: Any, semiring: Any) -> str:
    """Why :func:`~repro.engine.vectorized.try_execute` returned ``None``."""
    from repro.engine import vectorized

    if vectorized.vector_ops_for(semiring) is None:
        return "no numpy"
    if not vectorized._plan_supported(plan):
        return "unsupported plan shape"
    return "instance guard"


class ExplainAnalyzeReport:
    """The outcome of an observed execution: result, actuals, and rendering.

    Attributes
    ----------
    result:
        The query's K-relation (annotation-identical to an ordinary run).
    executor:
        ``"columns"`` or ``"rows"``: the executor that produced ``result``.
    declined:
        Why the column kernels declined the planned query (``"no numpy"``,
        ``"unsupported plan shape"`` or ``"instance guard"``),
        else ``None``; ``declined_ops`` is what the abandoned attempt spent.
    root:
        The root of the executed tree: a compiled row operator, or a node
        of the logical plan on the column path.
    observer:
        The :class:`ExecutionObserver` holding per-node actuals.
    totals:
        Global semiring-op counts of the entire run (independent of the
        per-node attribution).
    breaker_ops:
        The totals minus the per-node counts and ``declined_ops``: the
        root accumulation on rows, the materialization on columns.
    wall:
        End-to-end execution wall time in seconds (excludes planning).
    optimization:
        The planner's :class:`~repro.planner.optimizer.OptimizationReport`
        when the logical optimizer ran first, else ``None``.
    compile_stats:
        Knowledge-compilation counters accumulated during the observed run
        (batches, compiled roots, decision-memo hit rate, multi-rooted
        input/output DAG sizes): the cost of compiled probabilistic inference
        (probabilities, top-k and MAP), first-class next to the semiring-op
        counts.  All zero for runs that never compile.
    """

    def __init__(
        self,
        query: Any,
        plan: Any,
        observer: ExecutionObserver,
        result: Any,
        wall: float,
        declined: str | None,
        optimization: Any,
        compile_stats: Dict[str, float],
    ):
        self.query = query
        self.plan = plan
        self.root = observer.nodes[0][0]
        self.observer = observer
        self.result = result
        self.executor = "columns" if observer.declined is None else "rows"
        self.declined = declined
        self.declined_ops = observer.declined or OpCounter().snapshot()
        self.totals = observer.ops.snapshot()
        self.breaker_ops = {
            name: self.totals[name]
            - self.declined_ops[name]
            - sum(getattr(stats.ops, name) for _, stats, _ in observer.nodes)
            for name in self.totals
        }
        self.wall = wall
        self.optimization = optimization
        self.compile_stats = compile_stats

    # -- structured access -------------------------------------------------------
    def nodes(self) -> List[Tuple[Any, NodeStats, int]]:
        """All executed operators as ``(node, stats, depth)``, preorder."""
        return self.observer.nodes

    def table(self) -> List[Dict[str, Any]]:
        """JSON-friendly per-operator rows (used by tests and benchmarks)."""
        rows = []
        nodes = self.nodes()
        for i, (node, stats, depth) in enumerate(nodes):
            below = takewhile(lambda later: later[2] > depth, nodes[i + 1:])
            inputs = [child for _, child, child_depth in below if child_depth == depth + 1]
            # The row join's planned side, or the column join's smaller input;
            # a column join on no shared attribute (a cross product) has none.
            left = getattr(node, "build_is_left", None)
            shared = len(inputs) == 2 and set(inputs[0].columns) & set(inputs[1].columns)
            if left is None and shared:
                left = inputs[0].rows <= inputs[1].rows
            entry: Dict[str, Any] = {
                "operator": _node_label(node, inputs, left),
                "depth": depth,
                "columns": list(stats.columns),
                "estimate": getattr(node, "estimate", None),
                "rows": stats.rows,
                "wall": stats.wall,
                "ops": stats.ops.snapshot(),
            }
            filters = getattr(node, "filter_labels", [getattr(node, "description", "")])
            if any(filters):
                entry["filters"] = list(filters)
            if left is not None and entry["operator"].startswith(("HashJoin ", "Join ")):
                sizes = [child.rows for child in inputs]
                entry["build_size"], entry["probe_size"] = sizes if left else sizes[::-1]
            rows.append(entry)
        return rows

    # -- rendering ---------------------------------------------------------------
    def render(self, *, timings: bool = True) -> str:
        """The executor and the annotated operator tree (set ``timings=False``
        for golden tests: wall-clock values are the only nondeterministic
        field)."""
        executor = f"executor: {self.executor}"
        if self.declined is not None:
            spent = any(self.declined_ops.values())
            note = f"; spent {_counts(self.declined_ops)}" if spent else ""
            executor += f" (columns declined: {self.declined}{note})"
        lines: List[str] = [executor]
        if self.optimization is not None:
            rules = self.optimization.applied_rules
            lines.append(f"logical plan: {self.plan}")
            lines.append(
                "applied rules: " + (", ".join(rules) if rules else "(none)")
            )
        for entry in self.table():
            parts = [f"rows={entry['rows']}"]
            if entry["estimate"] is not None:
                parts.append(f"est={entry['estimate']:g}")
            if timings:
                parts.append(f"time={entry['wall'] * 1e3:.3f}ms")
            if "build_size" in entry:
                parts += [f"build={entry['build_size']}", f"probe={entry['probe_size']}"]
            ops = entry["ops"]
            parts += [f"{name}={ops[name]}" for name in ("times", "plus", "is_zero") if ops[name]]
            indent = "  " * entry["depth"]
            columns = ", ".join(entry["columns"])
            lines.append(f"{indent}{entry['operator']} -> ({columns})  [{' '.join(parts)}]")
            for filter_label in entry.get("filters", ()):
                lines.append(f"{indent}  filter: {filter_label}")
        breaker = self.breaker_ops
        lines.append(
            f"breaker: output rows={len(self.result)} "
            f"plus={breaker['plus']} is_zero={breaker['is_zero']}"
        )
        if self.compile_stats.get("compiles"):
            cs = self.compile_stats
            lines.append(
                f"compile: batches={int(cs['batches'])} roots={int(cs['compiles'])} "
                f"nodes_in={int(cs['input_nodes'])} nodes_out={int(cs['output_nodes'])} "
                f"cache_hit_rate={cs['hit_rate']:.3f}"
            )
        wall = f" wall={self.wall * 1e3:.3f}ms" if timings else ""
        lines.append(f"totals: {_counts(self.totals)}{wall}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return (
            f"<ExplainAnalyzeReport rows={len(self.result)} "
            f"ops={self.totals} wall={self.wall * 1e3:.3f}ms>"
        )


def explain_analyze(query: Any, database: Any) -> ExplainAnalyzeReport:
    """Run ``query`` the way ``Query.evaluate`` runs it, observed per node.

    The query is planned exactly when :meth:`~repro.algebra.ast.Query.evaluate`
    would plan it (:meth:`~repro.algebra.ast.Query.uses_planner`) and handed
    to the function ``evaluate`` calls -- :func:`repro.engine.compile.execute`
    or :func:`~repro.engine.compile.execute_rows` -- with an
    :class:`ExecutionObserver`.  ``report.optimization`` carries the
    planner's :class:`OptimizationReport` when it ran, else ``None``.  The
    result is annotation-identical to an ordinary run (the instrumented
    semiring is a counting pass-through) and is available as
    ``report.result``.
    """
    from repro.engine import compile as _engine
    from repro.planner import explain as _logical_explain

    planned = query.uses_planner(database)
    optimization = _logical_explain(query, database) if planned else None
    plan = optimization.optimized if planned else query

    ops = OpCounter()
    observed = _ObservedDatabase(database, InstrumentedSemiring(database.semiring, ops))
    observer = ExecutionObserver(ops)
    compile_before = compilation.snapshot()

    with _trace.span("explain.analyze", semiring=database.semiring.name):
        started = time.perf_counter()
        run = _engine.execute if planned else _engine.execute_rows
        accumulated = run(plan, observed, observer)
        wall = time.perf_counter() - started

    declined = None
    if planned and observer.declined is not None:
        declined = _decline_reason(plan, observed.semiring)
    return ExplainAnalyzeReport(
        query=query,
        plan=plan,
        observer=observer,
        # Hand back a result over the *plain* semiring so downstream code
        # never sees the instrumented wrapper.
        result=accumulated.to_semiring(database.semiring),
        wall=wall,
        declined=declined,
        optimization=optimization,
        compile_stats=compilation.delta(compile_before),
    )
