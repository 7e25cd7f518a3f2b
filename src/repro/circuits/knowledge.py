"""The knowledge-compilation map, structurally: d-DNNF properties on circuits.

Darwiche and Marquis organize Boolean-circuit languages by which queries they
answer in polynomial time; the properties that matter for exact probabilistic
inference are

* **decomposability** -- conjuncts share no variables, so the probability of
  an AND is the product of the probabilities of its children;
* **determinism** -- disjuncts are pairwise logically inconsistent, so the
  probability of an OR is the sum of the probabilities of its children;
* **smoothness** -- all disjuncts mention the same variables, so no
  marginalization correction is needed when summing.

Together they make weighted model counting (and with it exact
tuple-probability computation over lineage, Jha-Suciu style) a *single
linear pass* over the DAG -- see :func:`repro.circuits.evaluate.wmc`.

The checks here are *structural and sound*: a ``True`` answer is a proof the
property holds (decomposability via variable supports, determinism via
certain-literal conflicts, smoothness via support equality), while ``False``
only means the structure does not exhibit the property -- semantic
determinism in general is coNP-hard, which is precisely why the compiler
(:mod:`repro.circuits.compile`) produces circuits whose determinism and
decomposability are evident by construction: every :class:`Decision` gate
branches on complementary literals of one variable and conditions that
variable out of both branches.

:func:`smooth` upgrades a compiled decision diagram to the *smooth* form by
re-inserting redundant tests (``ite(x, f, f)``) for skipped variables -- the
quasi-reduction of the OBDD literature -- and :func:`to_nnf` expands decision
gates into the ``x·hi + ¬x·lo`` sum-of-guarded-products form, exhibiting the
result as an ordinary (negation-normal-form) d-DNNF.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.circuits.nodes import (
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
    not_node,
    prod_node,
    sum_node,
    var,
)
from repro.errors import SemiringError

__all__ = [
    "variable_supports",
    "is_decomposable",
    "is_deterministic",
    "is_smooth",
    "check_ddnnf",
    "classify",
    "smooth",
    "to_nnf",
]

#: A literal: (variable name, phase).  ``("x", True)`` is ``x``, ``("x", False)``
#: is ``¬x``.
Literal = Tuple[str, bool]


def variable_supports(*roots: Node) -> Dict[int, FrozenSet[str]]:
    """Per-node variable supports (node id -> variables the node depends on).

    One bottom-up pass; decision gates contribute their own test variable in
    addition to both branches'.
    """
    supports: Dict[int, FrozenSet[str]] = {}
    for node in iter_nodes(*roots):
        if isinstance(node, Var):
            supports[node._id] = frozenset((node.name,))
        elif isinstance(node, Const):
            supports[node._id] = frozenset()
        elif isinstance(node, Not):
            supports[node._id] = supports[node.child._id]
        elif isinstance(node, Decision):
            supports[node._id] = (
                supports[node.hi._id] | supports[node.lo._id] | {node.name}
            )
        else:
            merged: FrozenSet[str] = frozenset()
            for child in node.children:
                merged = merged | supports[child._id]
            supports[node._id] = merged
    return supports


def is_decomposable(root: Node) -> bool:
    """Structural decomposability: conjuncts (and decision branches) share no
    variables.

    ``Prod`` children must have pairwise disjoint supports, and neither
    branch of a ``Decision`` may mention its own test variable (the branches
    *may* share variables with each other -- the gate's implicit conjunctions
    are with the guard literals only).
    """
    supports = variable_supports(root)
    for node in iter_nodes(root):
        if isinstance(node, Prod):
            seen: set[str] = set()
            for child in node.children:
                child_support = supports[child._id]
                if seen & child_support:
                    return False
                seen |= child_support
        elif isinstance(node, Decision):
            if node.name in supports[node.hi._id] or node.name in supports[node.lo._id]:
                return False
    return True


def _certain_literals(root: Node) -> Dict[int, FrozenSet[Literal]]:
    """Literals entailed by every model of each node (bottom-up, sound).

    * a literal entails itself;
    * a product entails the union of what its factors entail;
    * a sum (or a decision gate) entails the intersection over its branches,
      with each decision branch additionally entailing its guard literal;
    * the unsatisfiable ``ZERO`` entails everything -- represented by
      ``None`` and treated as the absorbing element of intersection.
    """
    certain: Dict[int, FrozenSet[Literal] | None] = {}
    for node in iter_nodes(root):
        if isinstance(node, Var):
            certain[node._id] = frozenset(((node.name, True),))
        elif isinstance(node, Not):
            certain[node._id] = frozenset(((node.child.name, False),))
        elif isinstance(node, Const):
            certain[node._id] = None if node.value == 0 else frozenset()
        elif isinstance(node, Prod):
            merged: FrozenSet[Literal] | None = frozenset()
            for child in node.children:
                child_lits = certain[child._id]
                if child_lits is None:
                    merged = None
                    break
                merged = merged | child_lits
            certain[node._id] = merged
        elif isinstance(node, Decision):
            hi = certain[node.hi._id]
            lo = certain[node.lo._id]
            hi = None if hi is None else hi | {(node.name, True)}
            lo = None if lo is None else lo | {(node.name, False)}
            if hi is None:
                certain[node._id] = lo
            elif lo is None:
                certain[node._id] = hi
            else:
                certain[node._id] = hi & lo
        else:  # Sum
            acc: FrozenSet[Literal] | None = None
            all_false = True
            for child in node.children:
                child_lits = certain[child._id]
                if child_lits is None:
                    continue
                all_false = False
                acc = child_lits if acc is None else acc & child_lits
            certain[node._id] = None if all_false else (acc or frozenset())
    # Downgrade the ``None`` sentinel: callers only need *some* sound set.
    return {
        node_id: (lits if lits is not None else frozenset())
        for node_id, lits in certain.items()
    }


def _conflict(a: FrozenSet[Literal], b: FrozenSet[Literal]) -> bool:
    """Whether two certain-literal sets contain an opposite pair."""
    if len(b) < len(a):
        a, b = b, a
    return any((name, not phase) in b for name, phase in a)


def is_deterministic(root: Node) -> bool:
    """Structural determinism: every ``Sum``'s children pairwise conflict.

    Decision gates are deterministic by construction (complementary guard
    literals); for explicit ``Sum`` gates the check demands a *certain
    literal* conflict between every pair of children -- the Shannon shape
    ``x·f + ¬x·g`` passes, a plain provenance union ``x + y`` does not.
    ``ZERO`` children (unsatisfiable) conflict with everything.
    """
    certain = _certain_literals(root)
    for node in iter_nodes(root):
        if isinstance(node, Sum):
            children = node.children
            for i in range(len(children)):
                if children[i] is ZERO:
                    continue
                for j in range(i + 1, len(children)):
                    if children[j] is ZERO:
                        continue
                    if not _conflict(certain[children[i]._id], certain[children[j]._id]):
                        return False
    return True


def is_smooth(root: Node, variables: Iterable[str] | None = None) -> bool:
    """Structural smoothness: all disjuncts (and decision branches) mention
    the same variables.

    With ``variables`` given, additionally requires the root's support to be
    exactly that set, so root-to-leaf paths enumerate models over a fixed
    variable universe.  (Top-k and MAP do not need it: the k-best semiring's
    ``+`` closes the smoothness gap as it sums.)
    """
    supports = variable_supports(root)
    for node in iter_nodes(root):
        if isinstance(node, Sum):
            child_supports = {supports[child._id] for child in node.children}
            if len(child_supports) > 1:
                return False
        elif isinstance(node, Decision):
            if supports[node.hi._id] != supports[node.lo._id]:
                return False
    if variables is not None:
        return supports[root._id] == frozenset(variables)
    return True


def classify(root: Node) -> Dict[str, bool]:
    """The structural property profile of a circuit (d-DNNF membership et al.)."""
    decomposable = is_decomposable(root)
    deterministic = is_deterministic(root)
    return {
        "decomposable": decomposable,
        "deterministic": deterministic,
        "smooth": is_smooth(root),
        "d-DNNF": decomposable and deterministic,
    }


def check_ddnnf(root: Node) -> None:
    """Raise unless the circuit is structurally deterministic-decomposable."""
    if not is_decomposable(root):
        raise SemiringError(
            "circuit is not decomposable: a conjunction shares variables between factors"
        )
    if not is_deterministic(root):
        raise SemiringError(
            "circuit is not (structurally) deterministic: "
            "a disjunction has possibly-overlapping branches"
        )


def _decision_level(node: Node, index: Dict[str, int], depth: int) -> int:
    """The order index of a decision node's variable (``depth`` for leaves)."""
    if isinstance(node, Decision):
        return index[node.name]
    return depth


def smooth(root: Node, order: Sequence[str]) -> Node:
    """Quasi-reduce a decision diagram: test *every* order variable on every path.

    The input must be an ordered decision diagram over ``order`` (what the
    compiler emits); the output denotes the same function but every
    root-to-leaf path decides every variable, re-inserting ``ite(x, f, f)``
    gates (``collapse=False``) where the reduced form skipped ``x``.  Models
    then correspond bijectively to root-to-leaf paths.  (Top-k and MAP,
    :func:`repro.circuits.evaluate.top_k_many`, do not need this: the
    k-best semiring's ``+`` completes each side over the variables only the
    other side mentions.)
    """
    index = {name: i for i, name in enumerate(order)}
    depth = len(order)
    for node in iter_nodes(root):
        if isinstance(node, (Sum, Prod, Not, Var)):
            raise SemiringError(
                "smooth() expects a compiled decision diagram; "
                f"found a {type(node).__name__} gate (compile first)"
            )
        if isinstance(node, Decision):
            if node.name not in index:
                raise SemiringError(
                    f"decision variable {node.name!r} is not in the smoothing order"
                )
            level = index[node.name]
            for branch in (node.hi, node.lo):
                if _decision_level(branch, index, depth) <= level:
                    raise SemiringError(
                        "smooth() expects an *ordered* decision diagram: "
                        f"{node.name!r} is tested above a branch deciding an "
                        "earlier (or the same) order variable"
                    )
    # memo[(node id, level)]: the smoothed equivalent of ``node`` in which
    # all of order[level:] are tested.  Built iteratively, deepest level
    # first, to stay recursion-free on long orders.
    memo: Dict[Tuple[int, int], Node] = {}
    nodes = list(iter_nodes(root))
    for level in range(depth, -1, -1):
        for node in nodes:
            node_level = _decision_level(node, index, depth)
            if node_level < level:
                continue
            if level == depth:
                if isinstance(node, Const):
                    memo[(node._id, level)] = node
                continue
            if node_level == level:
                # ``node`` decides order[level] itself: smooth both branches
                # from the next level down.
                assert isinstance(node, Decision)
                memo[(node._id, level)] = decision_node(
                    node.name,
                    memo[(node.hi._id, level + 1)],
                    memo[(node.lo._id, level + 1)],
                    collapse=False,
                )
            else:
                # ``node`` skips order[level]: insert a redundant test.
                skipped = memo[(node._id, level + 1)]
                memo[(node._id, level)] = decision_node(
                    order[level], skipped, skipped, collapse=False
                )
    return memo[(root._id, 0)]


def to_nnf(root: Node) -> Node:
    """Expand decision gates into guarded sums: ``ite(x, f, g) -> x·f + ¬x·g``.

    The result is an explicit negation-normal-form circuit; on compiler
    output it is a d-DNNF in the classical presentation (and smooth if the
    input was smoothed), with determinism still structurally checkable via
    the complementary guard literals.  ``ZERO`` branches simplify away
    through the constructors, exactly as in the standard reduction.
    """
    rebuilt: Dict[int, Node] = {}
    for node in iter_nodes(root):
        if isinstance(node, (Var, Const)):
            rebuilt[node._id] = node
        elif isinstance(node, Not):
            rebuilt[node._id] = not_node(rebuilt[node.child._id])
        elif isinstance(node, Decision):
            guard = var(node.name)
            rebuilt[node._id] = sum_node(
                prod_node(guard, rebuilt[node.hi._id]),
                prod_node(not_node(guard), rebuilt[node.lo._id]),
            )
        elif isinstance(node, Sum):
            rebuilt[node._id] = sum_node(*(rebuilt[c._id] for c in node.children))
        else:
            rebuilt[node._id] = prod_node(*(rebuilt[c._id] for c in node.children))
    return rebuilt[root._id]
