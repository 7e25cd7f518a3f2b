"""EXPLAIN ANALYZE for the pipelined execution engine.

:func:`explain_analyze` runs a query through the PR 4 logical planner (by
default), compiles the optimized plan with the PR 5 pipelined compiler,
executes it with an :class:`ExecutionObserver` attached to every physical
operator, and returns an :class:`ExplainAnalyzeReport`: the physical operator
tree annotated with **actual** output rows, cumulative wall time, hash-join
build/probe sizes and semiring-operation counts -- the quantities the
paper's cost analysis is stated in (one ``+``/``x`` chain per derivation,
Definition 3.2).

Attribution model (the pipelined engine has a single pipeline breaker):

* each operator's ``rows``/``time`` are measured on its *output* stream;
  time is inclusive of its children, PostgreSQL-style;
* ``times`` (semiring ``x``) is attributed to the join whose probe loop
  performed it, and to the envelope of operators with semiring-valued
  filters;
* ``plus``/``is_zero`` happen only at the breaker (batched accumulation)
  and are attributed to the report's ``breaker_ops``;
* the global totals are counted independently by an
  :class:`~repro.obs.semiring.InstrumentedSemiring` wrapped around the
  database's semiring, so per-node counts can be cross-checked against the
  totals (the ``tests/obs`` suite does exactly this).
"""

from __future__ import annotations

import time
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
    """Actuals collected for one physical operator during an observed run."""

    __slots__ = ("rows", "wall", "ops", "build_size", "probe_size")

    def __init__(self) -> None:
        self.rows = 0
        self.wall = 0.0
        self.ops = OpCounter()
        self.build_size = 0
        self.probe_size = 0

    def snapshot(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "rows": self.rows,
            "wall": self.wall,
            "ops": self.ops.snapshot(),
        }
        if self.build_size or self.probe_size:
            data["build_size"] = self.build_size
            data["probe_size"] = self.probe_size
        return data


class ExecutionObserver:
    """Per-node collection hooks for an observed execution.

    Attached to a compiled plan via :meth:`attach`, the observer wraps every
    operator's output stream (:meth:`observe_rows`: output cardinality and
    cumulative wall time, measured per ``next()``) and hands joins a counted
    ``mul`` plus a stats slot for build/probe sizes.  Plans without an
    observer skip all of this -- the ordinary execution path checks a single
    ``observer is None`` per operator.
    """

    __slots__ = ("_stats",)

    def __init__(self) -> None:
        self._stats: Dict[int, NodeStats] = {}

    def stats(self, node: Any) -> NodeStats:
        """The (created-on-first-use) stats slot of a physical operator."""
        found = self._stats.get(id(node))
        if found is None:
            found = self._stats[id(node)] = NodeStats()
        return found

    def attach(self, root: Any) -> None:
        """Install this observer on every node of a compiled plan."""
        root.observer = self
        self.stats(root)
        for child in _children(root):
            self.attach(child)

    def observe_rows(
        self, node: Any, iterator: Iterator[Tuple[tuple, Any]]
    ) -> Iterator[Tuple[tuple, Any]]:
        """Wrap a node's output stream, timing each ``next()`` (inclusive)."""
        stats = self.stats(node)
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
        ops = self.stats(node).ops

        def counted(a: Any, b: Any) -> Any:
            ops.times += 1
            return mul(a, b)

        return counted

    def join_stats(self, node: Any) -> NodeStats:
        """The stats slot a join passes to the kernel for build/probe sizes."""
        return self.stats(node)


class _ObservedDatabase:
    """A database view whose semiring is the instrumented wrapper.

    Relations, catalog lookups and everything else delegate to the real
    database; only ``semiring`` differs, which is all the compiled plan
    reads for annotation arithmetic.  Works because semirings interoperate
    by *name* across the system and the wrapper mirrors its delegate's name.
    """

    __slots__ = ("semiring", "_delegate")

    def __init__(self, delegate: Any, semiring: InstrumentedSemiring):
        self.semiring = semiring
        self._delegate = delegate

    def relation(self, name: str) -> Any:
        return self._delegate.relation(name)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._delegate, name)


def _children(node: Any) -> Tuple[Any, ...]:
    left = getattr(node, "left", None)
    right = getattr(node, "right", None)
    if left is not None and right is not None:
        return (left, right)
    return ()


def _node_label(node: Any) -> str:
    from repro.engine.compile import _Empty, _HashJoin, _Scan, _UnionAll

    if isinstance(node, _Scan):
        return f"Scan {node.name}"
    if isinstance(node, _Empty):
        return "Empty"
    if isinstance(node, _HashJoin):
        shared = tuple(node.left.attrs[i] for i in node.left_key)
        build = "left" if node.build_is_left else "right"
        key = ", ".join(shared) if shared else "⨯"
        return f"HashJoin on ({key}) build={build}"
    if isinstance(node, _UnionAll):
        return "UnionAll"
    return type(node).__name__.lstrip("_")


class ExplainAnalyzeReport:
    """The outcome of an observed execution: result, actuals, and rendering.

    Attributes
    ----------
    result:
        The query's K-relation (annotation-identical to an ordinary run).
    root:
        The compiled physical plan (tree of engine nodes).
    observer:
        The :class:`ExecutionObserver` holding per-node actuals.
    totals:
        Global semiring-op counts of the entire run (independent of the
        per-node attribution; includes the breaker).
    breaker_ops:
        The ``plus``/``is_zero`` (and any residual ``times``) spent in the
        final batched accumulation.
    wall:
        End-to-end execution wall time in seconds (excludes planning).
    optimization:
        The planner's :class:`~repro.planner.optimizer.OptimizationReport`
        when the logical optimizer ran first, else ``None``.
    compile_stats:
        Knowledge-compilation counters accumulated during the observed run
        (batches, compiled roots, decision-memo hit rate, multi-rooted
        input/output DAG sizes):
        the cost of ``method="compile"`` probabilistic inference, first-class
        next to the semiring-op counts.  All zero for runs that never
        compile.
    """

    def __init__(
        self,
        query: Any,
        plan: Any,
        root: Any,
        observer: ExecutionObserver,
        result: Any,
        totals: Dict[str, int],
        breaker_ops: Dict[str, int],
        wall: float,
        optimization: Any = None,
        compile_stats: Dict[str, float] | None = None,
    ):
        self.query = query
        self.plan = plan
        self.root = root
        self.observer = observer
        self.result = result
        self.totals = totals
        self.breaker_ops = breaker_ops
        self.wall = wall
        self.optimization = optimization
        self.compile_stats = compile_stats or {
            "batches": 0,
            "compiles": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "input_nodes": 0,
            "output_nodes": 0,
            "hit_rate": 0.0,
        }

    # -- structured access -------------------------------------------------------
    def nodes(self) -> List[Tuple[Any, NodeStats, int]]:
        """All physical operators as ``(node, stats, depth)``, preorder."""
        collected: List[Tuple[Any, NodeStats, int]] = []

        def walk(node: Any, depth: int) -> None:
            collected.append((node, self.observer.stats(node), depth))
            for child in _children(node):
                walk(child, depth + 1)

        walk(self.root, 0)
        return collected

    def table(self) -> List[Dict[str, Any]]:
        """JSON-friendly per-operator rows (used by tests and benchmarks)."""
        rows = []
        for node, stats, depth in self.nodes():
            entry: Dict[str, Any] = {
                "operator": _node_label(node),
                "depth": depth,
                "columns": list(node.attrs),
                "estimate": node.estimate,
            }
            if node.filter_labels:
                entry["filters"] = list(node.filter_labels)
            entry.update(stats.snapshot())
            rows.append(entry)
        return rows

    # -- rendering ---------------------------------------------------------------
    def render(self, *, timings: bool = True) -> str:
        """The annotated physical tree (set ``timings=False`` for golden tests:
        wall-clock values are the only nondeterministic field)."""
        lines: List[str] = []
        if self.optimization is not None:
            rules = self.optimization.applied_rules
            lines.append(f"logical plan: {self.plan}")
            lines.append(
                "applied rules: " + (", ".join(rules) if rules else "(none)")
            )
        for node, stats, depth in self.nodes():
            parts = [f"rows={stats.rows}", f"est={node.estimate:g}"]
            if timings:
                parts.append(f"time={stats.wall * 1e3:.3f}ms")
            if stats.build_size or stats.probe_size:
                parts.append(f"build={stats.build_size}")
                parts.append(f"probe={stats.probe_size}")
            ops = stats.ops
            if ops.total:
                parts.append(f"times={ops.times}")
                if ops.plus:
                    parts.append(f"plus={ops.plus}")
                if ops.is_zero:
                    parts.append(f"is_zero={ops.is_zero}")
            label = _node_label(node)
            columns = ", ".join(node.attrs)
            line = f"{'  ' * depth}{label} -> ({columns})  [{' '.join(parts)}]"
            lines.append(line)
            for filter_label in node.filter_labels:
                lines.append(f"{'  ' * (depth + 1)}filter: {filter_label}")
        breaker = [
            f"output rows={len(self.result)}",
            f"plus={self.breaker_ops['plus']}",
            f"is_zero={self.breaker_ops['is_zero']}",
        ]
        lines.append("breaker: " + " ".join(breaker))
        if self.compile_stats.get("compiles"):
            cs = self.compile_stats
            lines.append(
                "compile: "
                f"batches={int(cs['batches'])} "
                f"roots={int(cs['compiles'])} "
                f"nodes_in={int(cs['input_nodes'])} "
                f"nodes_out={int(cs['output_nodes'])} "
                f"cache_hit_rate={cs['hit_rate']:.3f}"
            )
        totals = [
            f"plus={self.totals['plus']}",
            f"times={self.totals['times']}",
            f"is_zero={self.totals['is_zero']}",
        ]
        if timings:
            totals.append(f"wall={self.wall * 1e3:.3f}ms")
        lines.append("totals: " + " ".join(totals))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return (
            f"<ExplainAnalyzeReport rows={len(self.result)} "
            f"ops={self.totals} wall={self.wall * 1e3:.3f}ms>"
        )


def explain_analyze(
    query: Any,
    database: Any,
    *,
    optimize: bool = True,
    **planner_options: Any,
) -> ExplainAnalyzeReport:
    """Execute ``query`` pipelined with full observation and report actuals.

    With ``optimize=True`` (default) the query first goes through the
    semiring-aware logical planner and the report carries the
    :class:`OptimizationReport` alongside the physical actuals --
    ``planner_options`` (``reorder=``, ``statistics=``, ...) are forwarded.
    The executed result is annotation-identical to an ordinary run (the
    instrumented semiring is a counting pass-through) and is available as
    ``report.result``.
    """
    from repro.engine.compile import compile_query
    from repro.engine.kernels import build_relation
    from repro.relations.krelation import KRelation

    optimization = None
    plan = query
    if optimize:
        from repro.planner import explain as _logical_explain

        optimization = _logical_explain(query, database, **planner_options)
        plan = optimization.optimized

    ops = OpCounter()
    instrumented = InstrumentedSemiring(database.semiring, ops)
    observed = _ObservedDatabase(database, instrumented)
    observer = ExecutionObserver()
    compile_before = compilation.snapshot()

    with _trace.span("explain.analyze", semiring=database.semiring.name):
        started = time.perf_counter()
        root = compile_query(plan, observed)
        observer.attach(root)
        groups: Dict[tuple, List[Any]] = {}
        for row, annotation in root.rows(observed):
            batch = groups.get(row)
            if batch is None:
                groups[row] = [annotation]
            else:
                batch.append(annotation)
        before_breaker = ops.snapshot()
        accumulated = build_relation(instrumented, root.attrs, groups)
        breaker_ops = ops.delta(before_breaker)
        wall = time.perf_counter() - started

    # Hand back a result over the *plain* semiring so downstream code never
    # sees the instrumented wrapper.
    result = KRelation(database.semiring, accumulated.schema)
    result._annotations.update(accumulated._annotations)

    return ExplainAnalyzeReport(
        query=query,
        plan=plan,
        root=root,
        observer=observer,
        result=result,
        totals=ops.snapshot(),
        breaker_ops=breaker_ops,
        wall=wall,
        optimization=optimization,
        compile_stats=compilation.delta(compile_before),
    )
