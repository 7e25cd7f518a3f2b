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
Theorem 4.3 operationalized on the compact representation.  When the
target declares an array carrier (N, Z, B, Tropical, Fuzzy, Viterbi),
``specialize`` does not sweep: it linearises the relation's DAG once into
a level program -- leaves, then each level's products and sums as index
arrays, topologically ordered by interning id -- caches it on the relation
and runs it with one carrier call per level and argument, so every further
target reuses the walk.  Object targets, compiled circuits, deep narrow
DAGs and carrier overflow take the sweep.
"""

from __future__ import annotations

from itertools import chain, compress, count
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

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
from repro.semirings.carriers import VectorOps, _Fallback, _np
from repro.semirings.homomorphism import SemiringHomomorphism
from repro.semirings.numeric import NatInf
from repro.semirings.polynomial import Polynomial, PolynomialSemiring, _scale_in

if TYPE_CHECKING:
    from repro.circuits.compile import CompiledCircuit

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
    "top_k_many",
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


#: The level program runs when the DAG's levels hold at least this many
#: nodes on average (the leaves are level 0).  Each level costs a few numpy
#: calls whatever its width, so a deep, narrow DAG -- a long chain -- is
#: cheaper in the scalar sweep.
MIN_LEVEL_WIDTH = 32

_BY_ID = attrgetter("_id")
_CHILDREN = attrgetter("children")


class _Program:
    """A relation's circuit annotations as one linear program over positions.

    Position ``i < len(leaves)`` holds ``leaves[i]`` (a ``Var`` or
    ``Const``), the following ones the gates in interning order.  Each
    entry of ``levels`` is ``(products, first, rounds, sums, children,
    groups)``: the positions of the level's products, their first children
    and one ``(taking, child)`` round per further argument -- ``taking``
    indexes the products that have one (``None`` for all of them), ``child``
    its position -- so each product is folded from its first child in child
    order, as the sweep folds it; then the positions of its sums, their
    children flat and the sum each of those belongs to.  ``roots`` holds one
    position per row.
    """

    __slots__ = ("leaves", "levels", "roots", "size")

    def __init__(self, leaves: List[Node], levels: list, roots: Any, size: int):
        self.leaves, self.levels, self.roots, self.size = leaves, levels, roots, size


def _build_program(annotations: List[Any]) -> _Program | None:
    """The level program of ``annotations``, or ``None`` when it does not apply.

    It does not apply to a DAG with gates other than ``Sum`` / ``Prod`` (or
    annotations that are not circuits), nor to one narrower than
    :data:`MIN_LEVEL_WIDTH` on average: the level pass gives up as soon as
    the levels it has met make that certain.  It walks the gates by
    interning id, which is topological: interning builds children before
    their parents.
    """
    gates: set = set()
    leaves: set = set()
    stack = list(annotations)
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Sum or kind is Prod:
            if node not in gates:
                gates.add(node)
                stack += node.children
        elif kind is Var or kind is Const:
            leaves.add(node)
        else:
            return None
    size = len(leaves) + len(gates)
    if size < MIN_LEVEL_WIDTH:
        return None
    leaves, gates = sorted(leaves, key=_BY_ID), sorted(gates, key=_BY_ID)
    level = dict.fromkeys(leaves, 0)
    depth_of = level.__getitem__
    depths, top = [], 0
    for gate in gates:
        depth = level[gate] = 1 + max(map(depth_of, gate.children))
        if depth > top:
            top = depth
            if (top + 1) * MIN_LEVEL_WIDTH > size:
                return None
        depths.append(depth)
    position = dict(zip(leaves, count()))
    position.update(zip(gates, count(len(leaves))))
    arity = _np.fromiter(map(len, map(_CHILDREN, gates)), dtype=_np.intp, count=len(gates))
    offsets = _np.cumsum(arity) - arity
    kids = _np.fromiter(
        map(position.__getitem__, chain.from_iterable(map(_CHILDREN, gates))),
        dtype=_np.intp,
        count=int(arity.sum()),
    )
    # gates by (level, products before sums), interning order within each
    is_sum = _np.fromiter(map(type, gates), dtype=object, count=len(gates)) == Sum
    key = 2 * _np.array(depths, dtype=_np.intp) + is_sum
    order = _np.argsort(key, kind="stable")
    bounds = _np.searchsorted(key[order], _np.arange(2, 2 * top + 3)).tolist()
    levels = []
    for start, middle, end in zip(bounds[0:-1:2], bounds[1::2], bounds[2::2]):
        products, sums = order[start:middle], order[middle:end]
        arguments = arity[products]
        rounds = []
        for argument in range(1, int(arguments.max(initial=0))):
            taking = _np.flatnonzero(arguments > argument)
            child = kids[offsets[products[taking]] + argument]
            rounds.append((None if len(taking) == len(products) else taking, child))
        arguments = arity[sums]
        # a sum's children sit together in ``kids``, from its offset on
        flat = _np.repeat(offsets[sums] - (_np.cumsum(arguments) - arguments), arguments)
        levels.append((
            products + len(leaves),
            kids[offsets[products]],
            rounds,
            sums + len(leaves),
            kids[flat + _np.arange(len(flat))],
            _np.repeat(_np.arange(len(sums)), arguments),
        ))
    roots = _np.fromiter(map(position.__getitem__, annotations), dtype=_np.intp, count=len(annotations))
    return _Program(leaves, levels, roots, size)


def _run_program(
    program: _Program, evaluator: CircuitEvaluator, carrier: VectorOps, relation: Any
) -> Any:
    """Evaluate ``program`` level by level on ``carrier``: ``relation``'s image.

    Each leaf is read by ``evaluator`` (so a missing variable raises what
    the sweep raises); each level of products is a left fold of
    ``carrier.mul`` over its argument rounds, each level of sums one
    ``carrier.accumulate``, and the roots get one ``zero_mask``.  A
    carrier's overflow guard raises :class:`_Fallback` out of here.
    """
    from repro.relations.krelation import KRelation

    lookup, constant = evaluator._lookup, evaluator._constant
    leaves = carrier.to_array(
        [lookup(leaf.name) if type(leaf) is Var else constant(leaf.value) for leaf in program.leaves]
    )
    values = _np.empty(program.size, dtype=leaves.dtype)
    values[: len(leaves)] = leaves
    for products, first, rounds, sums, children, groups in program.levels:
        if len(products):
            folded = values[first]
            for taking, child in rounds:
                if taking is None:
                    folded = carrier.mul(folded, values[child])
                else:
                    folded[taking] = carrier.mul(folded[taking], values[child])
            values[products] = folded
        if len(sums):
            values[sums] = carrier.accumulate(values[children], groups, len(sums))
    totals = values[program.roots]
    live = (~carrier.zero_mask(totals)).tolist()
    image = KRelation(evaluator.target, relation.schema)
    image._rows = dict(compress(zip(relation._rows, totals.tolist()), live))
    return image


def _program_of(relation: Any) -> _Program | None:
    """``relation``'s level program, built on first use and cached on the
    relation until its next mutation; ``False`` there records that the
    program does not apply."""
    program = relation._circuit_program
    if program is None:
        program = relation._circuit_program = _build_program(list(relation.annotations())) or False
    return program or None


def specialize(
    value: Any, target: Semiring, valuation: Mapping[str, Any]
) -> Any:
    """Map a circuit -- or a whole circuit-annotated K-relation -- into ``target``.

    This is "run the query once, read the answer in many semirings": the
    query is evaluated a single time over ``Circ[X]`` and each target
    (bag, tropical, fuzzy, PosBool, probability, ...) is obtained by one
    pass over the joint provenance DAG of all the annotations, evaluating
    every distinct gate once; each tuple then reads its value off the
    result and tuples whose image is zero are dropped.

    A relation goes through its level program (:func:`_build_program`,
    built once and cached on the relation, so every further target reuses
    it) when numpy is present, ``target`` declares an array ``carrier``
    (N, Z, B, Tropical, Fuzzy, Viterbi, or an instrumented wrapper of one)
    and the DAG is a wide ``Sum`` / ``Prod`` DAG; the carrier's overflow
    guard declines too.  Everything else -- a single node, object targets
    such as N[X] or PosBool, compiled circuits, deep narrow DAGs -- is one
    :meth:`CircuitEvaluator.evaluate_many` sweep.  Both perform the same
    ``+`` / ``.`` / zero tests and give the same annotations (a program the
    overflow guard stops midway has charged an instrumented target for the
    levels it ran, as a declined column-kernel plan has).  Either way the
    image reuses the relation's row keys (``REPRO_DEBUG_TUPLES=1`` checks
    them).
    """
    from repro.engine import vectorized
    from repro.relations.krelation import KRelation, check_keys

    evaluator = CircuitEvaluator(target, valuation)
    if isinstance(value, KRelation):
        image = None
        carrier = vectorized.vector_ops_for(target)
        if carrier is not None and carrier is target.carrier:
            program = _program_of(value)
            if program is not None:
                try:
                    image = _run_program(program, evaluator, carrier, value)
                except _Fallback:
                    pass
        if image is None:
            values = evaluator.evaluate_many(value.annotations())
            image = value.map_annotations(values.__getitem__, target)
        check_keys(image._rows, image.schema)
        return image
    if isinstance(value, Node):
        return evaluator(value)
    raise SemiringError(
        f"specialize expects a circuit node or a circuit-annotated KRelation, got {value!r}"
    )


# ---------------------------------------------------------------------------
# Inference passes on compiled circuits (repro.circuits.compile output).
#
# Both exploit the same structure: on a deterministic-decomposable circuit,
# probability distributes over products (independent supports) and adds
# over sums (disjoint models), so what is #P-hard on arbitrary lineage
# becomes one bottom-up pass over the DAG.  Weighted model counting is its
# own float loop; top-k and MAP are the CircuitEvaluator sweep read in the
# k-best semiring.
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

    The pass is one iterative loop in the postorder of
    :func:`~repro.circuits.nodes.iter_nodes` (no generator), dispatching on
    the exact node type, decision gates first; a sum or product folds its
    children in child order from ``0.0`` / ``1.0``, so the floats do not
    depend on how the DAG is walked.
    """
    memo: Dict[Node, float] = {}
    checked: Dict[str, float] = {}

    def weight(name: str) -> float:
        p = checked.get(name)
        if p is None:
            p = checked[name] = _weight(weights, name)
        return p

    # Postorder on an explicit stack: a gate waits under a ``None`` marker
    # until its children are counted, in the order ``iter_nodes`` yields.
    stack: List[Node | None] = list(reversed(roots.values()))
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        if node is None:
            node = pop()
            kind = type(node)
            if kind is Decision:
                p = checked.get(node.name)
                if p is None:
                    p = checked[node.name] = _weight(weights, node.name)
                memo[node] = p * memo[node.hi] + (1.0 - p) * memo[node.lo]
            elif kind is Sum:
                value = 0.0
                for child in node.children:
                    value += memo[child]
                memo[node] = value
            else:
                value = 1.0
                for child in node.children:
                    value *= memo[child]
                memo[node] = value
        elif node not in memo:
            kind = type(node)
            if kind is Decision:
                push((node, None, node.lo, node.hi))
            elif kind is Const:
                memo[node] = 0.0 if node.value == 0 else 1.0
            elif kind is Var:
                memo[node] = weight(node.name)
            elif kind is Not:
                memo[node] = 1.0 - weight(node.child.name)
            else:
                push((node, None))
                push(reversed(node.children))
    return {key: memo[root] for key, root in roots.items()}


def wmc(root: Node, weights: Mapping[str, float]) -> float:
    """Weighted model counting of one circuit: the one-root case of
    :func:`wmc_many`."""
    return wmc_many({None: root}, weights)[None]


class _KBest(Semiring):
    """The k-best semiring (Goodman, "Semiring Parsing", CL 1999) of a
    d-DNNF: an element is ``(support, models)``, the variables it mentions
    and its ``k`` most probable models over them, best first.  Variable sets
    are bitmasks over the sorted ``names`` and a model is ``(probability,
    the variables it sets true)``, so a tie goes to the model true at the
    last-named variable where the two differ: a rule of the literals, not of
    reading order.  ``*`` pairs the models of disjoint supports
    (decomposability); ``+`` completes each side over the variables only the
    other mentions (the smoothness gap, closed by ``x + ¬x``) and merges the
    disjoint model sets (determinism).  Both keep the ``k`` best, which are
    made of their operands' ``k`` best.  Each weight is validated once, and
    each variable's ``x + ¬x`` is built once, in ``either``.
    """

    def __init__(self, k: int, weights: Mapping[str, float], names: Sequence[str]):
        self.k, self.name = k, f"{k}-best"
        self.bits = {name: 1 << i for i, name in enumerate(names)}
        self.literals: Dict[Tuple[str, bool], tuple] = {}
        for name, bit in self.bits.items():
            p = _weight(weights, name)
            self.literals[name, True] = (bit, ((p, bit),))
            self.literals[name, False] = (bit, ((1.0 - p, 0),))
        #: ``x + ¬x`` per variable, by bit position: what ``complete`` multiplies by
        self.either = [
            self.add(self.literals[name, True], self.literals[name, False]) for name in names
        ]

    def zero(self) -> tuple:
        return 0, ()

    def one(self) -> tuple:
        return 0, ((1.0, 0),)

    def _best(self, models: List[Tuple[float, int]]) -> tuple:
        models.sort(reverse=True)
        return tuple(models[: self.k])

    def mul(self, a: tuple, b: tuple) -> tuple:
        (support_a, models_a), (support_b, models_b) = a, b
        if not models_a or not models_b:
            return self.zero()
        return support_a | support_b, self._best(
            [(p * q, mine | theirs) for p, mine in models_a for q, theirs in models_b]
        )

    def add(self, a: tuple, b: tuple) -> tuple:
        if not a[1] or not b[1]:
            return a if a[1] else b
        support_a, support_b = a[0], b[0]
        a = self.complete(a, support_b & ~support_a)
        b = self.complete(b, support_a & ~support_b)
        return a[0], self._best([*a[1], *b[1]])

    def complete(self, value: tuple, missing: int) -> tuple:
        """``value`` times ``x + ¬x`` for every variable in ``missing``."""
        while missing:
            low = missing & -missing
            value = self.mul(value, self.either[low.bit_length() - 1])
            missing ^= low
        return value


class _TopK(CircuitEvaluator):
    """The sweep read in the k-best semiring: ``x`` is ``p``, ``¬x`` is ``1 - p``."""

    def _lookup(self, name: str) -> tuple:
        return self.target.literals[name, True]

    def _complemented(self, name: str) -> tuple:
        return self.target.literals[name, False]

    def _constant(self, value: Any) -> tuple:  # the Boolean abstraction
        return self.target.zero() if value == 0 else self.target.one()


def top_k_many(
    circuits: Mapping[Any, "CompiledCircuit"], weights: Mapping[str, float], k: int
) -> Dict[Any, List[Tuple[float, Dict[str, bool]]]]:
    """The ``k`` most probable satisfying assignments of many compiled
    circuits, per key, most probable first (``k = 1`` is MAP).

    One sweep of the joint DAG in the k-best semiring, then each root is
    completed over its ``order``: an assignment names every variable of the
    source, also those the reduced diagram skips.  Ties are broken by the
    literals, so a batch returns what one-root calls do under any hash seed.
    """
    if k <= 0:
        return {key: [] for key in circuits}
    names = sorted(set().union(*(compiled.order for compiled in circuits.values())))
    semiring = _KBest(k, weights, names)
    values = _TopK(semiring, {}).evaluate_many(c.root for c in circuits.values())
    bits, answers = semiring.bits, {}
    for key, compiled in circuits.items():
        value = values[compiled.root]
        wanted = sum(bits[name] for name in compiled.order)
        _, models = semiring.complete(value, wanted & ~value[0])
        answers[key] = [
            (probability, {name: bool(true & bits[name]) for name in compiled.order})
            for probability, true in models
        ]
    return answers
