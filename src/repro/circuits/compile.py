"""Knowledge compilation: provenance circuits -> ordered decision diagrams.

This is the bridge from provenance to *tractable* exact probabilistic
inference (the Jha-Suciu route): the lineage of an answer tuple -- an
``N[X]``/``Circ[X]`` circuit or a ``PosBool(X)`` condition over the
tuple-independent base facts -- is compiled into its **Shannon expansion**

    f  =  x · f[x := 1]  +  ¬x · f[x := 0]

over a fixed variable order: a DAG of :class:`~repro.circuits.nodes.Decision`
gates, the reduced ordered decision diagram of ``f``.  The result is
deterministic and decomposable *by construction* (each gate branches on
complementary literals of one variable that neither branch mentions again),
i.e. a d-DNNF/OBDD-style form in the Darwiche-Marquis knowledge-compilation
map, on which weighted model counting, top-k model enumeration and MAP are
single linear passes (:func:`repro.circuits.evaluate.wmc` and friends).

The diagram is built bottom-up with Bryant's memoized *apply* (R. E. Bryant,
"Graph-Based Algorithms for Boolean Function Manipulation", 1986): one
postorder sweep gives every source gate the AND / OR of its children's
diagrams, and no cofactor of the source is ever rebuilt.  Diagram nodes go
through :func:`~repro.circuits.nodes.decision_node`, whose ``ite(x, f, f) =
f`` rule and hash-consing make every result the *canonical* diagram of its
function under the order -- the very node the top-down expansion returns.
Three kinds of sharing keep compilation polynomial whenever a small diagram
exists:

* hash-consing: equal diagrams are *identical* nodes, which is exactly the
  OBDD node-merging rule;
* the compiler memoizes the diagram of every source node and every apply
  step ``(operator, a, b)`` it has taken, so shared subcircuits compile
  once and equal sub-problems combine once;
* one :class:`CircuitCompiler` compiles all the annotations of a relation as
  one multi-rooted diagram (:meth:`CircuitCompiler.compile_many`, as the
  probabilistic layer does) and can be kept for later relations, extending
  both memos across answer tuples and queries whose lineages overlap.

The branching order (:func:`choose_variable_order`) is the order of first
touch in a depth-first walk of the circuit, keeping co-occurring variables
adjacent -- the right shape for the join/fixpoint lineages this system
produces (series-parallel-ish), where locality bounds the width of the
diagram.  An explicit order always wins.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Container, Dict, FrozenSet, List, Mapping, Sequence, Tuple

from repro.circuits.knowledge import check_ddnnf
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

_AND, _OR = 0, 1  # the apply operators


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
    variables (the compiler's diagram memo) only pays for new structure.
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


def choose_variable_order(*roots: Node) -> Tuple[str, ...]:
    """Pick a branching order for Shannon expansion over ``roots``: the
    variables in order of first touch during a depth-first walk -- a
    locality heuristic that keeps variables which are multiplied together
    adjacent in the order, bounding the number of simultaneously "live"
    cofactors (the decision-diagram width)."""
    return tuple(_dfs_first_touch(roots))


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
    multi-rooted ``input_nodes`` / ``output_nodes`` (exact: what
    :func:`~repro.circuits.nodes.node_count` returns on the batch's sources
    and diagrams), ``variables``, and the
    ``cache_hits`` / ``cache_misses`` the batch added: one lookup per root in
    the compiled-diagram memo plus one per non-terminal apply step.
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

    def top_k(
        self, weights: Mapping[str, float], k: int
    ) -> List[Tuple[float, Dict[str, bool]]]:
        """The ``k`` most probable satisfying assignments, most probable first
        (``k = 1`` is the MAP assignment; empty when unsatisfiable): the
        one-root case of :func:`~repro.circuits.evaluate.top_k_many`."""
        from repro.circuits.evaluate import top_k_many

        return top_k_many({None: self}, weights, k)[None]

    def evaluate(self, target, valuation: Mapping[str, Any], *, complement=None) -> Any:
        """Evaluate the compiled form in a semiring (negation via ``complement``).

        For a semiring with complements -- e.g. the event semiring
        ``P(Omega)`` -- this reads the compiled diagram back as an event,
        which is how the differential tests check compilation against the
        enumeration oracle.
        """
        from repro.circuits.evaluate import CircuitEvaluator

        return CircuitEvaluator(target, valuation, complement=complement)(self.root)


class CircuitCompiler:
    """Ordered-decision-diagram compiler (bottom-up apply) with persistent memos.

    One compiler instance should be reused for every annotation of a
    relation -- :meth:`compile_many` takes them all at once: the diagram
    memo (source node -> diagram), the support table and the apply memo
    (``(operator, a, b)`` -> diagram) are keyed by the interned nodes
    themselves, so lineages that share subcircuits share compilation work --
    the same argument that makes :class:`CircuitEvaluator` relation-level.
    Keying by the node (not its id) keeps what the entries describe alive:
    hash-consing hands a repeated query the very same nodes, so it hits at
    the root and adds no entries.

    ``order`` fixes the global branching order (an OBDD-style total order);
    when omitted, the first call chooses one from its roots
    (:func:`choose_variable_order`) and later calls extend it on demand with
    variables they see that the order does not yet contain.  Extending the
    order never moves a known variable, so every memo entry stays valid.
    Variable supports are bitmasks over that order (bit ``i`` =
    ``order[i]``).
    """

    def __init__(self, *, order: Sequence[str] | None = None):
        self._order: List[str] = list(order) if order is not None else []
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self._order)}
        if len(self._index) != len(self._order):
            raise SemiringError("variable order contains duplicates")
        self._explicit_order = order is not None
        self._compiled: Dict[Node, Node] = {}
        self._supports: Dict[Node, int] = {}
        #: (_AND or _OR, a, b) -> the diagram of ``a op b``, with a._id < b._id
        self._applied: Dict[Tuple[int, Node, Node], Node] = {}
        #: the root ids of a compiled batch, in order -> its
        #: ``(input_nodes, output_nodes, orders)``, ``orders`` holding each
        #: root's variables in branching order (indices only ever grow, so
        #: they stay valid)
        self._counted: Dict[Tuple[int, ...], Tuple[int, int, Tuple[Tuple[str, ...], ...]]] = {}
        #: diagram node -> the bitmask of the variables it tests
        self._tested: Dict[Node, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def order(self) -> Tuple[str, ...]:
        """The (possibly extended) global branching order."""
        return tuple(self._order)

    # -- bookkeeping ---------------------------------------------------------
    def _ensure_ordered(self, roots: Sequence[Node]) -> None:
        """Extend the global order with any new variables of ``roots``.

        One sweep over all the roots; subcircuits that are already compiled
        cannot mention a new variable and are not entered.
        """
        touch = _dfs_first_touch(roots, done=self._compiled)
        missing = [name for name in touch if name not in self._index]
        if not missing:
            return
        if self._explicit_order:
            raise SemiringError(
                f"circuit mentions variables outside the fixed order: {sorted(missing)}"
            )
        for name in missing:
            self._index[name] = len(self._order)
            self._order.append(name)

    def _names(self, support: int) -> Tuple[str, ...]:
        """The variables of a support bitmask, in branching order."""
        order = self._order
        names = []
        while support:
            low = support & -support
            names.append(order[low.bit_length() - 1])
            support ^= low
        return tuple(names)

    # -- construction ----------------------------------------------------------
    def _apply(self, op: int, a: Node, b: Node) -> Node:
        """The diagram of ``a AND b`` (``op=_AND``) or ``a OR b`` (``_OR``).

        Both operands are diagrams over the compiler's order.  A step splits
        them on the earlier of their top variables, combines the two pairs
        of cofactors and joins the results with :func:`decision_node`.
        Iterative (an explicit stack), so diagram depth is unbounded; every
        non-terminal step is one lookup in the persistent apply memo.
        """
        unit, absorbing = (ONE, ZERO) if op == _AND else (ZERO, ONE)
        memo = self._applied
        index = self._index
        hits = misses = 0
        results: List[Node] = []
        # A split waits under a ``(None, (key, name))`` entry until both of
        # its branch results are on ``results``.
        stack: List[tuple] = [(a, b)]
        while stack:
            a, b = stack.pop()
            if a is None:
                key, name = b
                lo = results.pop()
                results[-1] = memo[key] = decision_node(name, results[-1], lo)
            elif a is b or b is unit:
                results.append(a)
            elif a is unit:
                results.append(b)
            elif a is absorbing or b is absorbing:
                results.append(absorbing)
            else:  # two decision nodes
                if a._id > b._id:
                    a, b = b, a
                key = (op, a, b)
                done = memo.get(key)
                if done is not None:
                    hits += 1
                    results.append(done)
                    continue
                misses += 1
                top_a, top_b = index[a.name], index[b.name]
                if top_a <= top_b:
                    name, a_hi, a_lo = a.name, a.hi, a.lo
                else:
                    name, a_hi, a_lo = b.name, a, a
                b_hi, b_lo = (b.hi, b.lo) if top_b <= top_a else (b, b)
                stack += ((None, (key, name)), (a_lo, b_lo), (a_hi, b_hi))
        self.cache_hits += hits
        self.cache_misses += misses
        return results[0]

    def _compile_new(self, roots: Sequence[Node]) -> None:
        """Give every not-yet-compiled node under ``roots`` its support
        bitmask and diagram, in one postorder sweep: a variable is its
        literal's diagram, a gate the AND / OR of its children's diagrams,
        a source decision gate ``(x AND hi) OR (NOT x AND lo)``."""
        compiled = self._compiled
        supports = self._supports
        index = self._index
        apply = self._apply

        def top(diagram: Node) -> int:
            return index[diagram.name] if type(diagram) is Decision else -1

        for node in iter_nodes(*roots, done=compiled):
            kind = type(node)
            if kind is Var:
                supports[node] = 1 << index[node.name]
                compiled[node] = decision_node(node.name, ONE, ZERO)
            elif kind is Not:
                supports[node] = supports[node.child]
                compiled[node] = decision_node(node.child.name, ZERO, ONE)
            elif kind is Const:  # the Boolean abstraction: non-zero is true
                supports[node] = 0
                compiled[node] = ZERO if node.value == 0 else ONE
            elif kind is Decision:
                name = node.name
                supports[node] = supports[node.hi] | supports[node.lo] | 1 << index[name]
                compiled[node] = apply(
                    _OR,
                    apply(_AND, decision_node(name, ONE, ZERO), compiled[node.hi]),
                    apply(_AND, decision_node(name, ZERO, ONE), compiled[node.lo]),
                )
            else:
                support = 0
                for child in node.children:
                    support |= supports[child]
                supports[node] = support
                # Fold latest top variable first: an operand whose variables
                # all precede the diagram folded so far then costs its own
                # size, not the accumulator's (a chain of clauses stays linear).
                diagram, *rest = sorted(
                    (compiled[child] for child in node.children), key=top, reverse=True
                )
                op = _OR if kind is Sum else _AND
                for part in rest:
                    diagram = apply(op, diagram, part)
                compiled[node] = diagram

    def compile_many(self, values: Mapping[Any, Any]) -> Dict[Any, CompiledCircuit]:
        """Compile all the annotations of a relation as one multi-rooted diagram.

        ``values`` maps any key (an answer tuple, a ground atom) to a
        circuit / PosBool condition / polynomial; the result maps each key
        to its :class:`CompiledCircuit`.  The roots are ordered in one
        sweep, compiled in one sweep against the memos and counted as one
        DAG; each diagram is the very node a one-by-one :meth:`compile` in
        the same sequence would return, under the same order.  The count is
        two :func:`~repro.circuits.nodes.node_count` walks, recorded with
        every root's order under the batch's root ids in order: a later
        batch with the same ids has the same roots (the memo keeps them
        alive) and so the same diagrams, and reads the counts and orders
        back without walking or decoding a support.

        Emits one ``circuit.compile`` span per batch and updates the
        process-wide :data:`repro.obs.metrics.compilation` counters, so
        compilation cost shows up next to planning and execution in traces
        and ``explain(analyze=True)`` reports.
        """
        sources = {key: as_circuit(value) for key, value in values.items()}
        roots = list(sources.values())
        with span("circuit.compile", roots=len(roots)) as sp:
            hits_before, misses_before = self.cache_hits, self.cache_misses
            self._ensure_ordered(roots)
            compiled, supports = self._compiled, self._supports
            fresh = {root for root in roots if root not in compiled}
            self.cache_hits += len(roots) - len(fresh)
            self.cache_misses += len(fresh)
            self._compile_new(roots)
            diagrams = {key: compiled[root] for key, root in sources.items()}
            joint = 0
            for root in roots:
                joint |= supports[root]
            # The memo keeps every compiled root, so equal ids are the same
            # roots with the same diagrams: the same counts and orders.
            batch = tuple([root._id for root in roots])
            counts = self._counted.get(batch)
            if counts is None:
                names = self._names
                counts = self._counted[batch] = (
                    node_count(*roots),
                    node_count(*diagrams.values()),
                    tuple([names(supports[root]) for root in roots]),
                )
            stats = {
                "roots": len(roots),
                "input_nodes": counts[0],
                "output_nodes": counts[1],
                "variables": joint.bit_count(),
                "cache_hits": self.cache_hits - hits_before,
                "cache_misses": self.cache_misses - misses_before,
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
                key: CompiledCircuit(source=root, root=diagrams[key], order=order, stats=stats)
                for (key, root), order in zip(sources.items(), counts[2])
            }

    def essential(self, compiled: Mapping[Any, CompiledCircuit]) -> Dict[Any, CompiledCircuit]:
        """The circuits of :meth:`compile_many`, each with ``order`` cut to the
        variables its diagram tests.

        A reduced diagram tests exactly the variables its Boolean function
        depends on, so an assignment over the cut order (as
        :func:`~repro.circuits.evaluate.top_k_many` completes it) leaves out
        the variables of derivations that others absorb.  One sweep over
        the diagrams' new nodes, memoized across calls.
        """
        tested, index = self._tested, self._index
        for node in iter_nodes(*(c.root for c in compiled.values()), done=tested):
            tested[node] = (
                tested[node.hi] | tested[node.lo] | 1 << index[node.name]
                if type(node) is Decision
                else 0
            )
        return {
            key: replace(circuit, order=self._names(tested[circuit.root]))
            for key, circuit in compiled.items()
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
    check: bool = False,
) -> CompiledCircuit:
    """Compile one circuit, with a process-wide compile cache.

    Repeated compilation of the same (hash-consed) circuit under the same
    order specification returns the cached :class:`CompiledCircuit`.  For
    compiling *many related* circuits -- all the annotations of an answer
    relation -- build one :class:`CircuitCompiler` instead, so shared
    subcircuits and apply steps are compiled once too.  ``check=True`` re-verifies determinism and
    decomposability structurally on the output (they hold by construction;
    the check is a linear-pass audit used by the tests).
    """
    root = as_circuit(value)
    key = (root._id, tuple(order) if order is not None else None)
    cached = _CACHE.get(key)
    if cached is not None:
        _CACHE.move_to_end(key)
        return cached
    compiled = CircuitCompiler(order=order).compile(root)
    if check:
        check_ddnnf(compiled.root)
    _CACHE[key] = compiled
    while len(_CACHE) > _CACHE_LIMIT:
        _CACHE.popitem(last=False)
    return compiled
