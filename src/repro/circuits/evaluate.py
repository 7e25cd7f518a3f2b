"""Evaluating circuits: one memoized sweep instead of monomial-by-monomial.

``Eval_v`` (Proposition 4.2) on the expanded polynomial touches every
monomial separately; on the circuit the same homomorphism is a single
bottom-up sweep that visits each *distinct* DAG node once, so shared
subexpressions are evaluated once no matter how many monomials they expand
to.  :meth:`CircuitEvaluator.evaluate_many` sweeps the joint DAG of many
roots at once and keeps its memo table across calls, which extends the
sharing across all the annotations of a relation -- the common case after a
join-heavy query or a datalog fixpoint, where output tuples share most of
their provenance.

The module also provides the exact/expanded bridges ``to_polynomial`` /
``from_polynomial`` (semantics-preserving by construction, used by the
equivalence tests) and :func:`specialize`, which maps one circuit-annotated
relation into any target semiring without re-running the query --
Theorem 4.3 operationalized on the compact representation.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.circuits.nodes import (
    ZERO,
    Const,
    Decision,
    Node,
    Not,
    Prod,
    Sum,
    Var,
    const,
    decision_node,
    iter_nodes,
    not_node,
    prod_node,
    sum_node,
    var,
)
from repro.circuits.semiring import CircuitSemiring
from repro.errors import SemiringError
from repro.semirings.base import Semiring
from repro.semirings.homomorphism import SemiringHomomorphism
from repro.semirings.numeric import NatInf
from repro.semirings.polynomial import Polynomial, PolynomialSemiring, _scale_in

__all__ = [
    "CircuitEvaluator",
    "eval_circuit",
    "circuit_evaluation",
    "to_polynomial",
    "from_polynomial",
    "specialize",
    "restrict_vars",
    "wmc",
    "wmc_many",
    "top_k_models",
]


class CircuitEvaluator:
    """The homomorphism ``Eval_v`` on circuits, with a persistent memo table.

    One evaluator instance should be reused for every annotation of a
    relation (as :func:`specialize` does): the memo is keyed by interned
    node, so subcircuits shared *between* annotations -- or between two
    relations evaluated one after the other -- are evaluated only once.

    Semirings have no subtraction, so ``Not``/``Decision`` gates (which only
    compiled circuits contain) need an explicit ``complement`` callable --
    e.g. set complement for the event semiring ``P(Omega)``.  Without one,
    evaluating a compiled circuit raises: the plain positive fragment never
    produces those gates.
    """

    def __init__(
        self,
        target: Semiring,
        valuation: Mapping[str, Any],
        *,
        complement: Callable[[Any], Any] | None = None,
    ):
        self.target = target
        self.valuation = {name: target.coerce(value) for name, value in valuation.items()}
        self.complement = complement
        self._memo: Dict[Node, Any] = {}

    # -- leaves and gates (the symbolic passes below override these) -------------
    #: n-ary ``(sum, product)`` builders of a pass that rebuilds gates whole;
    #: ``None`` folds a gate's children with ``target.add`` / ``target.mul``.
    _gates: Tuple[Callable[..., Any], Callable[..., Any]] | None = None

    def _lookup(self, name: str) -> Any:
        try:
            return self.valuation[name]
        except KeyError:
            raise SemiringError(f"valuation is missing variable {name!r}") from None

    def _constant(self, value: Any) -> Any:
        """Embed a circuit constant into the target (``n`` as the n-fold sum of 1)."""
        if isinstance(value, NatInf) and value.is_infinite:
            # The infinite constant is the sum of infinitely many 1s; _scale_in
            # implements the paper's treatment (idempotent -> 1, topped -> top).
            return _scale_in(self.target, value, self.target.one())
        return self.target.from_int(value)

    def _complemented(self, name: str) -> Any:
        if self.complement is None:
            raise SemiringError(
                "evaluating a compiled circuit (with negation) needs a "
                "complement= callable; plain semirings have no subtraction"
            )
        return self.complement(self._lookup(name))

    def _decide(self, name: str, hi: Any, lo: Any) -> Any:
        mul = self.target.mul
        return self.target.add(mul(self._lookup(name), hi), mul(self._complemented(name), lo))

    # -- the sweep ---------------------------------------------------------------
    def evaluate_many(self, roots: Iterable[Node]) -> Dict[Node, Any]:
        """Evaluate every root in one sweep of their joint DAG: ``{root: value}``.

        The sweep is pruned by the memo -- a subcircuit evaluated for an
        earlier root, or by an earlier call, is not walked again -- and a
        k-ary gate is folded from its first child, so it costs the ``k - 1``
        operations Definition 3.2 charges.
        """
        roots = tuple(roots)
        memo, gates = self._memo, self._gates
        add, mul = self.target.add, self.target.mul
        for current in iter_nodes(*roots, done=memo):
            kind = type(current)
            if kind is Prod or kind is Sum:
                children = current.children
                if gates is None:
                    op = mul if kind is Prod else add
                    value = memo[children[0]]
                    for child in children[1:]:
                        value = op(value, memo[child])
                else:
                    value = gates[kind is Prod](*[memo[child] for child in children])
            elif kind is Var:
                value = self._lookup(current.name)
            elif kind is Const:
                value = self._constant(current.value)
            elif kind is Not:
                value = self._complemented(current.child.name)
            else:
                value = self._decide(current.name, memo[current.hi], memo[current.lo])
            memo[current] = value
        return {root: memo[root] for root in roots}

    def __call__(self, node: Node) -> Any:
        return self.evaluate_many((node,))[node]


def eval_circuit(node: Node, valuation: Mapping[str, Any], target_semiring: Semiring) -> Any:
    """Evaluate one circuit in ``target_semiring`` under ``valuation``.

    For many circuits sharing structure, build one :class:`CircuitEvaluator`
    and reuse it (or call :func:`specialize` on the whole relation) so the
    memo table is shared.
    """
    return CircuitEvaluator(target_semiring, valuation)(node)


def circuit_evaluation(
    target: Semiring, valuation: Mapping[str, Any], *, name: str | None = None
) -> SemiringHomomorphism:
    """The homomorphism ``Eval_v : Circ[X] -> K``, packaged like its N[X] twin.

    This is the circuit counterpart of
    :func:`repro.semirings.homomorphism.polynomial_evaluation`; by
    universality the two agree with ``to_polynomial`` in between.
    """
    return SemiringHomomorphism(
        CircuitSemiring(),
        target,
        CircuitEvaluator(target, valuation),
        name=name or f"Eval_v (circuit) into {target.name}",
    )


def to_polynomial(node: Node) -> Polynomial:
    """Expand a circuit into the ``N[X]`` polynomial it denotes.

    This is the semantics map: two circuits are equivalent iff their
    expansions are equal polynomials.  The expansion can be exponentially
    larger than the DAG -- that is the point of circuits -- so use this for
    testing, display of small annotations, and interoperation, not on hot
    paths.
    """
    return _Expansion()(node)


class _Expansion(CircuitEvaluator):
    """The sweep read symbolically in ``N-inf[X]``: ``x -> x``, constants as given."""

    def __init__(self) -> None:
        super().__init__(PolynomialSemiring(allow_infinite_coefficients=True), {})

    _lookup = staticmethod(Polynomial.var)
    _constant = staticmethod(Polynomial.constant)

    def _complemented(self, name: str) -> Any:
        raise SemiringError(
            "compiled circuits (with negation/decision gates) have no N[X] "
            "polynomial expansion; expand the source circuit instead"
        )


def from_polynomial(polynomial: Polynomial | Any) -> Node:
    """Build the (flat, sum-of-products) circuit for a polynomial.

    The result has no sharing beyond the interned leaves; it exists so that
    polynomial-annotated data can enter the circuit world, and as the other
    half of the ``to_polynomial`` round-trip used by the tests.
    """
    polynomial = Polynomial.of(polynomial)
    terms: List[Node] = []
    for monomial, coefficient in polynomial.terms:
        parts: List[Node] = []
        if coefficient != 1:
            parts.append(const(coefficient))
        for name, exponent in monomial.powers:
            parts.extend([var(name)] * exponent)
        terms.append(prod_node(*parts))
    return sum_node(*terms)


def restrict_vars(node: Node, zero_variables: "frozenset[str] | set[str]") -> Node:
    """Partially evaluate a circuit with ``zero_variables`` set to zero.

    The circuit counterpart of :meth:`Polynomial.drop_variables`: one
    memoized bottom-up pass that replaces the named variable leaves with
    ``ZERO`` and rebuilds the interior through the simplifying constructors
    (``0 · x = 0``, ``0 + x = x``), so whole subcircuits supported only by
    the zeroed variables collapse.  Other variables stay symbolic -- unlike
    :class:`CircuitEvaluator`, no full valuation is needed.  Expanding the
    result equals expanding the input and dropping every monomial that
    mentions a zeroed variable, which is what licenses provenance-assisted
    deletion: with deleted EDB facts tagged by fresh variables, this removes
    exactly the derivations they supported.
    """
    return _Restriction(zero_variables)(node)


class _Restriction(CircuitEvaluator):
    """The sweep read in ``Circ[X]`` with some variables at zero, the rest symbolic."""

    def __init__(self, zero_variables: "frozenset[str] | set[str]") -> None:
        super().__init__(CircuitSemiring(), {})
        self.zero_variables = zero_variables

    _gates = (sum_node, prod_node)  # a k-ary gate stays one k-ary gate
    _constant = staticmethod(const)

    def _lookup(self, name: str) -> Node:
        return ZERO if name in self.zero_variables else var(name)

    def _complemented(self, name: str) -> Node:
        # On compiled circuits the same homomorphism applies: a zeroed
        # variable is certainly-absent, so its negation is certainly true.
        return not_node(self._lookup(name))

    def _decide(self, name: str, hi: Node, lo: Node) -> Node:
        return lo if name in self.zero_variables else decision_node(name, hi, lo)


def specialize(
    value: Any, target: Semiring, valuation: Mapping[str, Any]
) -> Any:
    """Map a circuit -- or a whole circuit-annotated K-relation -- into ``target``.

    This is "run the query once, read the answer in many semirings": the
    query is evaluated a single time over ``Circ[X]`` and each target
    (bag, tropical, fuzzy, PosBool, probability, ...) is obtained by a
    single sweep over the joint provenance DAG of all the annotations
    (:meth:`CircuitEvaluator.evaluate_many`): every distinct gate is
    evaluated once, then each tuple reads its value off the result.
    """
    from repro.relations.krelation import KRelation

    evaluator = CircuitEvaluator(target, valuation)
    if isinstance(value, KRelation):
        values = evaluator.evaluate_many(value.annotations())
        return value.map_annotations(values.__getitem__, target)
    if isinstance(value, Node):
        return evaluator(value)
    raise SemiringError(
        f"specialize expects a circuit node or a circuit-annotated KRelation, got {value!r}"
    )


# ---------------------------------------------------------------------------
# Inference passes on compiled circuits (repro.circuits.compile output).
#
# All three exploit the same structure: on a deterministic-decomposable
# circuit, probability distributes over products (independent supports) and
# adds over sums (disjoint models), so what is #P-hard on arbitrary lineage
# becomes one bottom-up pass over the DAG.
# ---------------------------------------------------------------------------


def _weight(weights: Mapping[str, float], name: str) -> float:
    try:
        p = float(weights[name])
    except KeyError:
        raise SemiringError(f"weights are missing variable {name!r}") from None
    if not 0.0 <= p <= 1.0:
        raise SemiringError(f"weight of {name!r} must be a probability, got {p}")
    return p


def wmc_many(
    roots: Mapping[Any, Node], weights: Mapping[str, float]
) -> Dict[Any, float]:
    """Weighted model counting of many circuits: ``P(root true)`` per key,
    in one linear pass over their joint DAG.

    ``weights`` maps each variable to its (independent) marginal
    probability.  Exact when the roots are deterministic and decomposable --
    the compiler's output is, by construction; for hand-built NNF use
    :func:`repro.circuits.knowledge.check_ddnnf` first.  No smoothing is
    needed: a decision gate that skips variables marginalizes them
    implicitly because ``p + (1-p) = 1``.  A node shared between roots --
    the normal case for the diagrams of one relation -- is counted once, and
    a weight is validated once, the first time the diagrams read it.
    """
    memo: Dict[Node, float] = {}
    checked: Dict[str, float] = {}

    def weight(name: str) -> float:
        p = checked.get(name)
        if p is None:
            p = checked[name] = _weight(weights, name)
        return p

    for current in iter_nodes(*roots.values()):
        if isinstance(current, Var):
            value = weight(current.name)
        elif isinstance(current, Const):
            value = 0.0 if current.value == 0 else 1.0
        elif isinstance(current, Not):
            value = 1.0 - weight(current.child.name)
        elif isinstance(current, Decision):
            p = weight(current.name)
            value = p * memo[current.hi] + (1.0 - p) * memo[current.lo]
        elif isinstance(current, Sum):
            value = 0.0
            for child in current.children:
                value += memo[child]
        else:
            value = 1.0
            for child in current.children:
                value *= memo[child]
        memo[current] = value
    return {key: memo[root] for key, root in roots.items()}


def wmc(root: Node, weights: Mapping[str, float]) -> float:
    """Weighted model counting of one circuit: the one-root case of
    :func:`wmc_many`."""
    return wmc_many({None: root}, weights)[None]


def _decision_levels(root: Node, order: Sequence[str]) -> Dict[int, int]:
    """Map each node of an *ordered* decision diagram to its order level.

    A node's level is the index of the variable it decides (``len(order)``
    for leaves); branches must decide strictly later variables, which is the
    invariant the compiler guarantees for a fixed global order.
    """
    index = {name: i for i, name in enumerate(order)}
    depth = len(order)
    levels: Dict[int, int] = {}
    for current in iter_nodes(root):
        if isinstance(current, Const):
            levels[current.node_id] = depth
        elif isinstance(current, Decision):
            try:
                level = index[current.name]
            except KeyError:
                raise SemiringError(
                    f"decision variable {current.name!r} not in the given order"
                ) from None
            for branch in (current.hi, current.lo):
                if levels[branch.node_id] <= level:
                    raise SemiringError(
                        "top_k_models expects an *ordered* decision "
                        "diagram (branches decide strictly later variables); "
                        "got an out-of-order edge at "
                        f"{current.name!r}"
                    )
            levels[current.node_id] = level
        else:
            raise SemiringError(
                "top_k_models runs on compiled circuits only "
                f"(decision gates and constants); found {type(current).__name__}"
            )
    return levels


def _top_completions(
    segment: Sequence[int], probs: Sequence[float], k: int
) -> List[Tuple[float, Tuple[bool, ...]]]:
    """The ``k`` most probable assignments of independent variables.

    ``segment`` holds order levels; each level is a free Bernoulli variable.
    Classic best-first subset enumeration: start from the argmax assignment,
    and explore "flip sets" ordered by the product of flip ratios
    ``min(p,1-p)/max(p,1-p) <= 1``, each subset generated exactly once.
    """
    if not segment:
        return [(1.0, ())]
    baseline = tuple(probs[i] >= 0.5 for i in segment)
    base = 1.0
    for i in segment:
        base *= max(probs[i], 1.0 - probs[i])
    ratios = []
    for i in segment:
        hi, lo = max(probs[i], 1.0 - probs[i]), min(probs[i], 1.0 - probs[i])
        ratios.append(lo / hi if hi > 0.0 else 0.0)
    positions = sorted(range(len(segment)), key=lambda j: -ratios[j])
    out: List[Tuple[float, Tuple[bool, ...]]] = []
    heap: List[Tuple[float, int, Tuple[int, ...]]] = [(-base, -1, ())]
    while heap and len(out) < k:
        neg_prob, last, flips = heapq.heappop(heap)
        values = list(baseline)
        for j in flips:
            pos = positions[j]
            values[pos] = not values[pos]
        out.append((-neg_prob, tuple(values)))
        for j in range(last + 1, len(positions)):
            heapq.heappush(heap, (neg_prob * ratios[positions[j]], j, flips + (j,)))
    return out


def top_k_models(
    root: Node, weights: Mapping[str, float], k: int, *, order: Sequence[str]
) -> List[Tuple[float, Dict[str, bool]]]:
    """The ``k`` most probable satisfying assignments, most probable first.

    Bottom-up over the ordered decision diagram: each node carries its top-k
    suffix assignments (over the order levels at or below it); a decision
    gate combines each branch's list with the branch probability and the
    best-first completions of any skipped levels, merges, and truncates to
    ``k``.  Determinism makes the two branch lists disjoint, so the merge
    never double-counts a model.
    """
    if k <= 0:
        return []
    levels = _decision_levels(root, order)
    probs = [_weight(weights, name) for name in order]

    def lift(
        models: List[Tuple[float, Tuple[bool, ...]]], from_level: int, to_level: int
    ) -> List[Tuple[float, Tuple[bool, ...]]]:
        """Extend suffix models at ``to_level`` down to ``from_level``."""
        if from_level == to_level or not models:
            return models
        completions = _top_completions(range(from_level, to_level), probs, k)
        combined = [
            (cp * mp, cass + mass)
            for cp, cass in completions
            for mp, mass in models
        ]
        combined.sort(key=lambda entry: -entry[0])
        return combined[:k]

    memo: Dict[int, List[Tuple[float, Tuple[bool, ...]]]] = {}
    for current in iter_nodes(root):
        if isinstance(current, Const):
            memo[current.node_id] = [] if current.value == 0 else [(1.0, ())]
        else:
            level = levels[current.node_id]
            p = probs[level]
            hi_models = [
                (p * mp, (True,) + mass)
                for mp, mass in lift(
                    memo[current.hi.node_id], level + 1, levels[current.hi.node_id]
                )
            ]
            lo_models = [
                ((1.0 - p) * mp, (False,) + mass)
                for mp, mass in lift(
                    memo[current.lo.node_id], level + 1, levels[current.lo.node_id]
                )
            ]
            merged = hi_models + lo_models
            merged.sort(key=lambda entry: -entry[0])
            memo[current.node_id] = merged[:k]
    rooted = lift(memo[root.node_id], 0, levels[root.node_id])
    return [
        (probability, {order[i]: value for i, value in enumerate(assignment)})
        for probability, assignment in rooted
    ]
