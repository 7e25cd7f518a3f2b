"""Knowledge compilation: provenance circuits -> ordered decision diagrams.

This is the bridge from provenance to *tractable* exact probabilistic
inference (the Jha-Suciu route): the lineage of an answer tuple -- an
``N[X]``/``Circ[X]`` circuit or a ``PosBool(X)`` condition over the
tuple-independent base facts -- is compiled by **Shannon expansion**

    f  =  x · f[x := 1]  +  ¬x · f[x := 0]

into a DAG of :class:`~repro.circuits.nodes.Decision` gates.  The result is
deterministic and decomposable *by construction* (each gate branches on
complementary literals of one variable and conditions that variable out of
both branches), i.e. a d-DNNF/OBDD-style form in the Darwiche-Marquis
knowledge-compilation map, on which weighted model counting, top-k model
enumeration and MAP are single linear passes
(:func:`repro.circuits.evaluate.wmc` and friends).

Three kinds of sharing keep compilation polynomial whenever a small diagram
exists:

* restricted circuits are built through the hash-consing factories, so
  syntactically equal cofactors are *identical* nodes;
* the compiler memoizes compiled results per restricted circuit
  (``self`` -- the compile cache), so equal cofactors compile once, which is
  exactly the OBDD node-merging rule;
* one :class:`CircuitCompiler` compiles all the annotations of a relation as
  one multi-rooted diagram (:meth:`CircuitCompiler.compile_many`, as the
  probabilistic layer does) and can be kept for later relations, extending
  both caches across answer tuples and queries whose lineages overlap.

The branching order is chosen by a small cost model
(:func:`choose_variable_order`): the default ``"dfs"`` model orders
variables by first touch in a depth-first walk of the circuit, keeping
co-occurring variables adjacent -- the right shape for the join/fixpoint
lineages this system produces (series-parallel-ish), where locality bounds
the live frontier of the expansion.  The ``"frequency"`` model (most shared
variables first) is available for comparison, and an explicit order always
wins.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Container, Dict, FrozenSet, List, Mapping, Sequence, Tuple

from repro.circuits.knowledge import check_ddnnf, smooth
from repro.circuits.nodes import (
    ONE,
    ZERO,
    Const,
    Decision,
    Node,
    Not,
    Prod,
    Sum,
    Var,
    decision_node,
    iter_nodes,
    node_count,
    prod_node,
    sum_node,
    var,
)
from repro.errors import SemiringError
from repro.obs.metrics import compilation as _compile_stats
from repro.obs.trace import span
from repro.semirings.posbool import BoolExpr

__all__ = [
    "choose_variable_order",
    "CircuitCompiler",
    "CompiledCircuit",
    "compile_circuit",
    "clear_compile_cache",
]

ORDER_MODELS = ("dfs", "frequency")


def as_circuit(value: Any) -> Node:
    """Read ``value`` as a circuit: a node, a PosBool condition, or anything
    :class:`~repro.circuits.semiring.CircuitSemiring` can coerce (polynomials,
    monomials, variable names, ints)."""
    if isinstance(value, Node):
        return value
    if isinstance(value, BoolExpr):
        return sum_node(
            *(prod_node(*(var(name) for name in sorted(clause))) for clause in value.clauses)
        ) if not value.is_true else ONE
    from repro.circuits.semiring import CircuitSemiring

    return CircuitSemiring().coerce(value)


def _dfs_first_touch(
    roots: Sequence[Node], done: Container[Node] = ()
) -> Dict[str, int]:
    """First-touch index of every variable in a deterministic DFS walk.

    Nodes in ``done`` are not entered: a caller that already knows their
    variables (the compiler's support table) only pays for new structure.
    """
    order: Dict[str, int] = {}
    seen: set[Node] = set()
    stack: List[Node] = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node in seen or node in done:
            continue
        seen.add(node)
        if isinstance(node, Var):
            order.setdefault(node.name, len(order))
        elif isinstance(node, Not):
            order.setdefault(node.child.name, len(order))
            stack.append(node.child)
        elif isinstance(node, Decision):
            order.setdefault(node.name, len(order))
            stack.append(node.lo)
            stack.append(node.hi)
        elif isinstance(node, (Sum, Prod)):
            stack.extend(reversed(node.children))
    return order


def choose_variable_order(*roots: Node, model: str = "dfs") -> Tuple[str, ...]:
    """Pick a branching order for Shannon expansion over ``roots``.

    ``model="dfs"`` (default): variables in order of first touch during a
    depth-first walk -- a locality heuristic that keeps variables which are
    multiplied together adjacent in the order, bounding the number of
    simultaneously "live" cofactors (the decision-diagram width).

    ``model="frequency"``: variables by descending reference count (gates
    pointing at the leaf), the classic most-constrained-first rule;
    first-touch order breaks ties so the result stays deterministic.
    """
    if model not in ORDER_MODELS:
        raise SemiringError(f"unknown order model {model!r} (have {ORDER_MODELS})")
    touch = _dfs_first_touch(roots)
    if model == "dfs":
        return tuple(sorted(touch, key=touch.__getitem__))
    counts: Dict[str, int] = {name: 0 for name in touch}
    for node in iter_nodes(*roots):
        if isinstance(node, (Sum, Prod)):
            for child in node.children:
                if isinstance(child, Var):
                    counts[child.name] += 1
                elif isinstance(child, Not):
                    counts[child.child.name] += 1
        elif isinstance(node, Decision):
            counts[node.name] += 1
    return tuple(sorted(counts, key=lambda name: (-counts[name], touch[name])))


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit in compiled (ordered-decision-diagram) form.

    ``root`` contains only :class:`Decision` gates over ``order`` and the
    constant leaves, denotes the same Boolean function as ``source`` under
    the Boolean abstraction (a world satisfies an ``N``-circuit iff it
    evaluates to non-zero), and is structurally deterministic and
    decomposable -- the inference passes below are exact single passes.
    ``stats`` describes the batch the circuit was compiled in
    (:meth:`CircuitCompiler.compile_many`; shared by its roots): ``roots``,
    multi-rooted ``input_nodes`` / ``output_nodes``, ``variables``, and the
    memo ``cache_hits`` / ``cache_misses`` the batch added.
    """

    source: Node
    root: Node
    order: Tuple[str, ...]
    stats: Mapping[str, Any] = field(compare=False, default_factory=dict)

    @property
    def variables(self) -> FrozenSet[str]:
        """The variables the compiled function may depend on."""
        return frozenset(self.order)

    @property
    def size(self) -> int:
        """Distinct DAG nodes of the compiled form."""
        return node_count(self.root)

    def wmc(self, weights: Mapping[str, float]) -> float:
        """Weighted model count: ``P(source is true)`` under independent
        ``weights`` (variable -> marginal probability)."""
        from repro.circuits.evaluate import wmc

        return wmc(self.root, weights)

    def map_model(
        self, weights: Mapping[str, float]
    ) -> Tuple[float, Dict[str, bool]] | None:
        """The most probable satisfying assignment (or ``None`` if unsatisfiable)."""
        from repro.circuits.evaluate import map_model

        return map_model(self.root, weights, order=self.order)

    def top_k(
        self, weights: Mapping[str, float], k: int
    ) -> List[Tuple[float, Dict[str, bool]]]:
        """The ``k`` most probable satisfying assignments, most probable first."""
        from repro.circuits.evaluate import top_k_models

        return top_k_models(self.root, weights, k, order=self.order)

    def evaluate(self, target, valuation: Mapping[str, Any], *, complement=None) -> Any:
        """Evaluate the compiled form in a semiring (negation via ``complement``).

        For a semiring with complements -- e.g. the event semiring
        ``P(Omega)`` -- this reads the compiled diagram back as an event,
        which is how the differential tests check compilation against the
        enumeration oracle.
        """
        from repro.circuits.evaluate import CircuitEvaluator

        return CircuitEvaluator(target, valuation, complement=complement)(self.root)

    def smoothed(self) -> "CompiledCircuit":
        """The smooth form: every path decides every variable of ``order``."""
        return CompiledCircuit(
            source=self.source,
            root=smooth(self.root, self.order),
            order=self.order,
            stats=dict(self.stats),
        )


class CircuitCompiler:
    """Shannon-expansion compiler with persistent caches.

    One compiler instance should be reused for every annotation of a
    relation -- :meth:`compile_many` takes them all at once: the compile
    cache (restricted circuit -> compiled node), the cofactor tables and the
    support table are keyed by the interned node itself, so lineages that
    share subcircuits share compilation work -- the same argument that makes
    :class:`CircuitEvaluator` relation-level.  Keying by the node (not its
    id) keeps what the entries describe alive: hash-consing hands a repeated
    query the very same nodes, so it hits at the root and adds no entries.

    ``order`` fixes the global branching order (an OBDD-style total order);
    when omitted, the first call chooses one from its roots via the
    ``model`` cost model and later calls extend it on demand with variables
    they see that the order does not yet contain.  Variable supports are
    bitmasks over that order (bit ``i`` = ``order[i]``), so the branch
    variable of a circuit is its lowest set bit.
    """

    def __init__(
        self, *, order: Sequence[str] | None = None, model: str = "dfs"
    ):
        if model not in ORDER_MODELS:
            raise SemiringError(f"unknown order model {model!r} (have {ORDER_MODELS})")
        self.model = model
        self._order: List[str] = list(order) if order is not None else []
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self._order)}
        if len(self._index) != len(self._order):
            raise SemiringError("variable order contains duplicates")
        self._explicit_order = order is not None
        self._compiled: Dict[Node, Node] = {}
        #: (order index, bit) -> {node: node[order[index] := bit]}
        self._cond: Dict[Tuple[int, int], Dict[Node, Node]] = {}
        self._supports: Dict[Node, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def order(self) -> Tuple[str, ...]:
        """The (possibly extended) global branching order."""
        return tuple(self._order)

    # -- bookkeeping ---------------------------------------------------------
    def _ensure_ordered(self, roots: Sequence[Node]) -> None:
        """Extend the global order with any new variables of ``roots``.

        One sweep over all the roots; subcircuits whose support is already
        known cannot mention a new variable and are not entered.
        """
        touch = _dfs_first_touch(roots, done=self._supports)
        missing = [name for name in touch if name not in self._index]
        if not missing:
            return
        if self._explicit_order:
            raise SemiringError(
                f"circuit mentions variables outside the fixed order: {sorted(missing)}"
            )
        if self.model != "dfs":
            new = set(missing)
            missing = [
                name
                for name in choose_variable_order(*roots, model=self.model)
                if name in new
            ]
        for name in missing:
            self._index[name] = len(self._order)
            self._order.append(name)

    def _fill_supports(self, roots: Sequence[Node]) -> None:
        """Record the variable support of every node under ``roots`` as a
        bitmask over the global order (one walk of what is not yet known)."""
        supports = self._supports
        index = self._index
        for current in iter_nodes(*roots, done=supports):
            if isinstance(current, Var):
                supports[current] = 1 << index[current.name]
            elif isinstance(current, Const):
                supports[current] = 0
            elif isinstance(current, Not):
                supports[current] = supports[current.child]
            elif isinstance(current, Decision):
                supports[current] = (
                    supports[current.hi]
                    | supports[current.lo]
                    | (1 << index[current.name])
                )
            else:
                merged = 0
                for child in current.children:
                    merged |= supports[child]
                supports[current] = merged

    def _support(self, node: Node) -> int:
        """The support bitmask of ``node`` (cached across the compiler)."""
        support = self._supports.get(node)
        if support is None:
            self._fill_supports((node,))
            support = self._supports[node]
        return support

    def _names(self, support: int) -> Tuple[str, ...]:
        """The variables of a support bitmask, in branching order."""
        order = self._order
        names = []
        while support:
            low = support & -support
            names.append(order[low.bit_length() - 1])
            support ^= low
        return tuple(names)

    # -- conditioning --------------------------------------------------------
    def _condition(self, root: Node, index: int, bit: int) -> Node:
        """``root[order[index] := bit]`` rebuilt through the simplifying
        factories.

        Memoized persistently, one table per ``(variable, bit)``;
        subcircuits whose support does not mention the variable are returned
        as-is without descending, which is what makes repeated cofactoring
        cheap on DAGs with locality.  Supports of ``root``'s DAG must be
        known (:meth:`_fill_supports`).
        """
        cache = self._cond.setdefault((index, bit), {})
        done = cache.get(root)
        if done is not None:
            return done
        supports = self._supports
        name = self._order[index]
        stack: List[Node] = [root]
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            if not (supports[node] >> index) & 1:
                cache[node] = node
                stack.pop()
                continue
            if isinstance(node, Var):
                cache[node] = ONE if bit else ZERO
                stack.pop()
            elif isinstance(node, Not):
                cache[node] = ZERO if bit else ONE
                stack.pop()
            elif isinstance(node, Decision):
                if node.name == name:
                    branch = node.hi if bit else node.lo
                    if branch in cache:
                        cache[node] = cache[branch]
                        stack.pop()
                    else:
                        stack.append(branch)
                elif node.hi in cache and node.lo in cache:
                    cache[node] = decision_node(
                        node.name, cache[node.hi], cache[node.lo]
                    )
                    stack.pop()
                else:
                    if node.lo not in cache:
                        stack.append(node.lo)
                    if node.hi not in cache:
                        stack.append(node.hi)
            else:  # Sum / Prod
                missing = [child for child in node.children if child not in cache]
                if missing:
                    stack.extend(reversed(missing))
                else:
                    rebuild = sum_node if isinstance(node, Sum) else prod_node
                    cache[node] = rebuild(*[cache[child] for child in node.children])
                    stack.pop()
        return cache[root]

    # -- the expansion -------------------------------------------------------
    def _lookup(self, node: Node) -> Node | None:
        compiled = self._compiled.get(node)
        if compiled is not None:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        return compiled

    def _compile_node(self, root: Node) -> Node:
        compiled = self._compiled
        done = self._lookup(root)
        if done is not None:
            return done
        stack: List[Node] = [root]
        while stack:
            node = stack[-1]
            if node in compiled:
                stack.pop()
                continue
            if isinstance(node, Const):
                compiled[node] = ZERO if node.value == 0 else ONE
                stack.pop()
                continue
            support = self._support(node)
            index = (support & -support).bit_length() - 1  # earliest in the order
            hi = self._condition(node, index, 1)
            lo = self._condition(node, index, 0)
            hi_done = self._lookup(hi)
            lo_done = self._lookup(lo)
            if hi_done is not None and lo_done is not None:
                compiled[node] = decision_node(self._order[index], hi_done, lo_done)
                stack.pop()
            else:
                if lo_done is None:
                    stack.append(lo)
                if hi_done is None:
                    stack.append(hi)
        return compiled[root]

    def compile_many(self, values: Mapping[Any, Any]) -> Dict[Any, CompiledCircuit]:
        """Compile all the annotations of a relation as one multi-rooted diagram.

        ``values`` maps any key (an answer tuple, a ground atom) to a
        circuit / PosBool condition / polynomial; the result maps each key
        to its :class:`CompiledCircuit`.  The roots are ordered in one
        sweep, expanded against the one memo and counted as one DAG; each
        diagram is the very node a one-by-one :meth:`compile` in the same
        sequence would return, under the same order.

        Emits one ``circuit.compile`` span per batch and updates the
        process-wide :data:`repro.obs.metrics.compilation` counters, so
        compilation cost shows up next to planning and execution in traces
        and ``explain(analyze=True)`` reports.
        """
        sources = {key: as_circuit(value) for key, value in values.items()}
        roots = list(sources.values())
        with span("circuit.compile", model=self.model, roots=len(roots)) as sp:
            hits_before, misses_before = self.cache_hits, self.cache_misses
            self._ensure_ordered(roots)
            self._fill_supports(roots)
            supports = self._supports
            diagrams = {key: self._compile_node(root) for key, root in sources.items()}
            joint = 0
            for root in roots:
                joint |= supports[root]
            stats = {
                "roots": len(roots),
                "input_nodes": node_count(*roots),
                "output_nodes": node_count(*diagrams.values()),
                "variables": joint.bit_count(),
                "cache_hits": self.cache_hits - hits_before,
                "cache_misses": self.cache_misses - misses_before,
                "model": self.model,
            }
            _compile_stats.batches += 1
            _compile_stats.compiles += len(roots)
            _compile_stats.cache_hits += stats["cache_hits"]
            _compile_stats.cache_misses += stats["cache_misses"]
            _compile_stats.input_nodes += stats["input_nodes"]
            _compile_stats.output_nodes += stats["output_nodes"]
            sp.set(
                input_nodes=stats["input_nodes"],
                output_nodes=stats["output_nodes"],
                variables=stats["variables"],
                cache_hits=stats["cache_hits"],
                cache_misses=stats["cache_misses"],
            )
            return {
                key: CompiledCircuit(
                    source=root,
                    root=diagrams[key],
                    order=self._names(supports[root]),
                    stats=stats,
                )
                for key, root in sources.items()
            }

    def compile(self, value: Any) -> CompiledCircuit:
        """Compile one circuit / PosBool condition / polynomial to decision
        form: the one-root case of :meth:`compile_many`."""
        return self.compile_many({None: value})[None]


#: Module-level compile cache: one entry per (source root, order spec), LRU.
_CACHE: "OrderedDict[tuple, CompiledCircuit]" = OrderedDict()
_CACHE_LIMIT = 512


def clear_compile_cache() -> None:
    """Drop every cached compilation (tests and memory-sensitive callers)."""
    _CACHE.clear()


def compile_circuit(
    value: Any,
    *,
    order: Sequence[str] | None = None,
    model: str = "dfs",
    check: bool = False,
) -> CompiledCircuit:
    """Compile one circuit, with a process-wide compile cache.

    Repeated compilation of the same (hash-consed) circuit under the same
    order specification returns the cached :class:`CompiledCircuit`.  For
    compiling *many related* circuits -- all the annotations of an answer
    relation -- build one :class:`CircuitCompiler` instead, so intermediate
    cofactors are shared too.  ``check=True`` re-verifies determinism and
    decomposability structurally on the output (they hold by construction;
    the check is a linear-pass audit used by the tests).
    """
    root = as_circuit(value)
    key = (root._id, tuple(order) if order is not None else None, model)
    cached = _CACHE.get(key)
    if cached is not None:
        _CACHE.move_to_end(key)
        return cached
    compiled = CircuitCompiler(order=order, model=model).compile(root)
    if check:
        check_ddnnf(compiled.root)
    _CACHE[key] = compiled
    while len(_CACHE) > _CACHE_LIMIT:
        _CACHE.popitem(last=False)
    return compiled
