"""Hash-consed arithmetic circuits: the DAG representation of provenance.

The paper annotates tuples with *fully expanded* polynomials of ``N[X]``
(Definition 4.1), whose size can grow exponentially with join depth and
fixpoint rounds.  The standard successor representation is an arithmetic
*circuit*: a DAG built from variables, constants, ``+`` and ``·`` gates in
which common subexpressions are stored once.  By the universality of
``N[X]`` (Proposition 4.2) a circuit denotes exactly the polynomial obtained
by expanding it, so every semantic statement about polynomial provenance
transfers verbatim; the circuit is just (often exponentially) smaller.

Nodes are immutable and **hash-consed**: construction goes through the
module-level factories (:func:`var`, :func:`const`, :func:`sum_node`,
:func:`prod_node`), which intern structurally identical nodes in a weak
table.  Consequences:

* equality of canonically-constructed circuits is *identity* (``is``), so
  ``==`` and dictionary lookups are O(1) regardless of circuit size;
* structural sharing is automatic -- re-deriving the same subcircuit during
  a fixpoint round returns the existing node, which is what makes Kleene
  iteration's convergence check cheap;
* the intern table holds weak references only, so circuits are reclaimed
  normally when no relation references them;
* nodes pickle by *reconstruction through the factories* (``__reduce__``),
  so an unpickled circuit re-interns into the receiving process's table and
  identity equality keeps holding across process boundaries (worker IPC).

``Sum``/``Prod`` children are kept sorted by interning id, which makes the
constructors commutative at the representation level (``a + b`` and
``b + a`` are the same node).  Associativity is *not* canonicalized --
``(a+b)+c`` and ``a+(b+c)`` are distinct DAGs denoting the same polynomial
-- which is the usual circuit trade-off: equality stays cheap and
conservative, while semantic equality is decided via
:func:`repro.circuits.evaluate.to_polynomial`.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Any, Container, Dict, Iterable, Iterator, List

from repro.errors import InvalidAnnotationError
from repro.obs.metrics import consing as _consing
from repro.semirings.numeric import NatInf

__all__ = [
    "Node",
    "Var",
    "Const",
    "Sum",
    "Prod",
    "Not",
    "Decision",
    "ZERO",
    "ONE",
    "var",
    "const",
    "sum_node",
    "prod_node",
    "not_node",
    "decision_node",
    "iter_nodes",
    "node_count",
    "circuit_depth",
    "circuit_variables",
    "render",
]

_IDS = itertools.count()
_INTERN: "weakref.WeakValueDictionary[tuple, Node]" = weakref.WeakValueDictionary()


class Node:
    """Base class of circuit nodes.  Instances are immutable and interned.

    Do not instantiate subclasses directly -- always go through the factory
    functions so that hash-consing (and with it O(1) equality) is preserved.
    Equality and hashing are identity-based, which is sound because the
    factories never create two structurally identical live nodes.
    """

    __slots__ = ("_id", "__weakref__")

    @property
    def node_id(self) -> int:
        """The interning id (creation order; stable for the node's lifetime)."""
        return self._id

    # Identity equality/hash inherited from object is exactly right for
    # hash-consed nodes; we only add the arithmetic conveniences.
    def __add__(self, other: "Node") -> "Node":
        if not isinstance(other, Node):
            return NotImplemented
        return sum_node(self, other)

    def __mul__(self, other: "Node") -> "Node":
        if not isinstance(other, Node):
            return NotImplemented
        return prod_node(self, other)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} id={self._id}>"


class Var(Node):
    """A provenance variable (tuple id) leaf."""

    __slots__ = ("name",)

    def __reduce__(self):
        # Unpickle through the factory so the node re-interns: default
        # unpickling would bypass the hash-cons table and break the
        # identity-based equality every circuit consumer relies on.
        return (var, (self.name,))


class Const(Node):
    """A constant leaf: a non-negative ``int`` or the infinite :class:`NatInf`."""

    __slots__ = ("value",)

    def __reduce__(self):
        return (const, (self.value,))


class Sum(Node):
    """An n-ary ``+`` gate (children sorted by interning id, length >= 2)."""

    __slots__ = ("children",)

    def __reduce__(self):
        # Gates serialize as a *flat postorder spec* rebuilt iteratively
        # through the factories: recursing node-by-node (the obvious
        # ``(sum_node, children)`` reduce) would overflow the pickler's
        # stack on circuits deeper than a few hundred gates, which datalog
        # fixpoints produce routinely.  Rebuilding through the factories
        # re-interns every node, so identity equality survives the trip.
        return (_rebuild_circuit, (_circuit_spec(self),))


class Prod(Node):
    """An n-ary ``·`` gate (children sorted by interning id, length >= 2)."""

    __slots__ = ("children",)

    def __reduce__(self):
        return (_rebuild_circuit, (_circuit_spec(self),))


class Not(Node):
    """A negated literal ``¬x`` (child is always a :class:`Var`).

    Negation enters the algebra only at the leaves (negation normal form):
    the Boolean/probabilistic semantics of an interior ``¬`` gate would not
    be expressible in the ``N``-valued provenance semiring, while negated
    *literals* are exactly what the knowledge-compiled forms (d-DNNF, OBDD)
    need to state "this derivation holds in the worlds where fact ``x`` is
    absent".  Build through :func:`not_node`.
    """

    __slots__ = ("child",)

    def __reduce__(self):
        return (_rebuild_circuit, (_circuit_spec(self),))


class Decision(Node):
    """A Shannon decision gate ``ite(x, hi, lo)`` on variable ``name``.

    Denotes ``x·hi + ¬x·lo``: the two branches are guarded by complementary
    literals, so a decision gate is *deterministic* by construction, and the
    compiler guarantees neither branch mentions ``name`` again, which makes
    it *decomposable* -- the two properties that turn probability
    computation into one linear pass (:func:`repro.circuits.evaluate.wmc`).
    Build through :func:`decision_node`.
    """

    __slots__ = ("name", "hi", "lo")

    def __reduce__(self):
        return (_rebuild_circuit, (_circuit_spec(self),))


def _circuit_spec(root: Node) -> List[tuple]:
    """Flatten ``root``'s DAG to a postorder list with child back-references.

    Each entry is ``("v", name)``, ``("c", value)`` or ``(kind, positions)``
    with ``kind`` in ``{"s", "p"}`` and ``positions`` indexing earlier
    entries; shared subcircuits appear once.  The inverse is
    :func:`_rebuild_circuit`.
    """
    position: Dict[int, int] = {}
    spec: List[tuple] = []
    for node in iter_nodes(root):
        if isinstance(node, Var):
            entry: tuple = ("v", node.name)
        elif isinstance(node, Const):
            entry = ("c", node.value)
        elif isinstance(node, Not):
            entry = ("n", position[node.child._id])
        elif isinstance(node, Decision):
            entry = ("d", (node.name, position[node.hi._id], position[node.lo._id]))
        else:
            kind = "s" if isinstance(node, Sum) else "p"
            entry = (kind, tuple(position[child._id] for child in node.children))
        position[node._id] = len(spec)
        spec.append(entry)
    return spec


def _rebuild_circuit(spec: List[tuple]) -> Node:
    """Rebuild a :func:`_circuit_spec` flat form through the interning factories."""
    nodes: List[Node] = []
    for kind, payload in spec:
        if kind == "v":
            nodes.append(var(payload))
        elif kind == "c":
            nodes.append(const(payload))
        elif kind == "n":
            nodes.append(not_node(nodes[payload]))
        elif kind == "d":
            name, hi, lo = payload
            nodes.append(decision_node(name, nodes[hi], nodes[lo], collapse=False))
        elif kind == "s":
            nodes.append(sum_node(*(nodes[i] for i in payload)))
        else:
            nodes.append(prod_node(*(nodes[i] for i in payload)))
    return nodes[-1]


def _intern(key: tuple, build) -> Node:
    node = _INTERN.get(key)
    if node is None:
        if _consing.enabled:
            _consing.misses += 1
        node = build()
        object.__setattr__(node, "_id", next(_IDS))
        _INTERN[key] = node
    elif _consing.enabled:
        _consing.hits += 1
    return node


def _check_const(value: Any) -> Any:
    """Canonicalize a constant payload: bool -> int, finite NatInf -> int."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, NatInf):
        return value if value.is_infinite else value.finite_value()
    if isinstance(value, int) and value >= 0:
        return value
    raise InvalidAnnotationError(
        f"{value!r} is not a valid circuit constant (need N or the infinite N∞ value)"
    )


def var(name: str) -> Var:
    """The (interned) variable node for tuple id ``name``."""
    if not isinstance(name, str) or not name:
        raise InvalidAnnotationError(f"{name!r} is not a valid variable name")

    def build() -> Var:
        node = Var.__new__(Var)
        object.__setattr__(node, "name", name)
        return node

    return _intern(("v", name), build)


def const(value: Any) -> Const:
    """The (interned) constant node for ``value`` (``int`` >= 0 or ``NatInf``)."""
    value = _check_const(value)

    def build() -> Const:
        node = Const.__new__(Const)
        object.__setattr__(node, "value", value)
        return node

    return _intern(("c", value), build)


def _add_values(a: Any, b: Any) -> Any:
    return _check_const(NatInf.of(a) + NatInf.of(b)) if isinstance(a, NatInf) or isinstance(b, NatInf) else a + b


def _mul_values(a: Any, b: Any) -> Any:
    return _check_const(NatInf.of(a) * NatInf.of(b)) if isinstance(a, NatInf) or isinstance(b, NatInf) else a * b


def sum_node(*parts: Node) -> Node:
    """The sum of ``parts`` with local simplification.

    Applies ``0 + x = x`` and constant folding; returns ``ZERO`` for the
    empty sum and the sole part for a singleton.  Children are ordered by
    interning id so the constructor is commutative.
    """
    children: List[Node] = []
    constant: Any = 0
    for part in parts:
        if not isinstance(part, Node):
            raise InvalidAnnotationError(f"{part!r} is not a circuit node")
        if isinstance(part, Const):
            constant = _add_values(constant, part.value)
        else:
            children.append(part)
    if constant != 0 or not children:
        children.append(const(constant))
    if len(children) == 1:
        return children[0]
    children.sort(key=lambda node: node._id)
    key = ("s", tuple(node._id for node in children))

    def build() -> Sum:
        node = Sum.__new__(Sum)
        object.__setattr__(node, "children", tuple(children))
        return node

    return _intern(key, build)


def prod_node(*parts: Node) -> Node:
    """The product of ``parts`` with local simplification.

    Applies ``1 · x = x``, ``0 · x = 0`` and constant folding; returns
    ``ONE`` for the empty product and the sole part for a singleton.
    Children are ordered by interning id so the constructor is commutative.
    """
    children: List[Node] = []
    constant: Any = 1
    for part in parts:
        if not isinstance(part, Node):
            raise InvalidAnnotationError(f"{part!r} is not a circuit node")
        if isinstance(part, Const):
            constant = _mul_values(constant, part.value)
        else:
            children.append(part)
    if constant == 0:
        return ZERO
    if constant != 1 or not children:
        children.append(const(constant))
    if len(children) == 1:
        return children[0]
    children.sort(key=lambda node: node._id)
    key = ("p", tuple(node._id for node in children))

    def build() -> Prod:
        node = Prod.__new__(Prod)
        object.__setattr__(node, "children", tuple(children))
        return node

    return _intern(key, build)


def not_node(part: Node) -> Node:
    """The negated literal ``¬part`` (negation normal form: leaves only).

    Applies ``¬¬x = x`` and constant complementation (``¬0 = 1``, ``¬c = 0``
    for non-zero ``c`` under the Boolean abstraction).  Anything but a
    variable, a constant or a negated literal is rejected: interior negation
    has no ``N[X]`` semantics, and the compiled forms never need it.
    """
    if isinstance(part, Not):
        return part.child
    if isinstance(part, Const):
        return ONE if part.value == 0 else ZERO
    if not isinstance(part, Var):
        raise InvalidAnnotationError(
            f"negation is only defined on literals, not {part!r}"
        )

    def build() -> Not:
        node = Not.__new__(Not)
        object.__setattr__(node, "child", part)
        return node

    return _intern(("n", part._id), build)


def decision_node(name: str, hi: Node, lo: Node, *, collapse: bool = True) -> Node:
    """The Shannon gate ``ite(name, hi, lo)`` with BDD-style reduction.

    ``collapse=True`` (the default) applies the reduction rule
    ``ite(x, f, f) = f``, which is what keeps compiled decision diagrams
    small; :func:`repro.circuits.knowledge.smooth` passes ``collapse=False``
    to *keep* redundant tests, because smoothness is exactly the property
    that every branch mentions the same variables.
    """
    if not isinstance(name, str) or not name:
        raise InvalidAnnotationError(f"{name!r} is not a valid decision variable")
    if not isinstance(hi, Node) or not isinstance(lo, Node):
        raise InvalidAnnotationError("decision branches must be circuit nodes")
    if collapse and hi is lo:
        return hi

    def build() -> Decision:
        node = Decision.__new__(Decision)
        object.__setattr__(node, "name", name)
        object.__setattr__(node, "hi", hi)
        object.__setattr__(node, "lo", lo)
        return node

    return _intern(("d", name, hi._id, lo._id), build)


#: The canonical additive/multiplicative identities (kept strongly alive so
#: identity checks like ``value is ZERO`` work for the process lifetime).
ZERO: Const = const(0)
ONE: Const = const(1)


# ----------------------------------------------------------------------
# Traversal and metrics (all iterative: circuits from deep fixpoints can
# exceed Python's recursion limit).
# ----------------------------------------------------------------------

def iter_nodes(*roots: Node, done: Container[Node] | None = None) -> Iterator[Node]:
    """Yield every distinct node reachable from ``roots`` in postorder.

    Children come before their parents and a node shared between
    subcircuits -- or between roots -- is yielded once, which is what makes
    ``sum(1 for _)`` the honest DAG size rather than the expanded-tree size.

    ``done`` is the memo of a pass that has been over part of the DAG
    before (any container of interned nodes; a dict keyed by node is the
    usual one): a node in it is neither yielded nor descended into, so the
    pass pays only for what it has not seen.  Membership is tested when a
    node is reached, so entries the caller adds while iterating count.
    """
    if done is None:
        done = ()
    seen: set[Node] = set()
    # A gate waits on the stack under a ``None`` marker until its children are out.
    stack: List[Node | None] = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is None:
            yield stack.pop()
            continue
        if node in seen or node in done:
            continue
        seen.add(node)
        kind = type(node)
        if kind is Sum or kind is Prod:
            stack += (node, None)
            stack += reversed(node.children)
        elif kind is Decision:
            stack += (node, None, node.lo, node.hi)
        elif kind is Not:
            stack += (node, None, node.child)
        else:
            yield node


def node_count(*roots: Node) -> int:
    """Number of distinct DAG nodes reachable from ``roots`` (with sharing)."""
    return sum(1 for _ in iter_nodes(*roots))


def circuit_depth(root: Node) -> int:
    """Length (in edges) of the longest leaf-to-root path (leaves have depth 0)."""
    depths: Dict[int, int] = {}
    for node in iter_nodes(root):
        if isinstance(node, (Sum, Prod)):
            depths[node._id] = 1 + max(depths[child._id] for child in node.children)
        elif isinstance(node, Not):
            depths[node._id] = 1 + depths[node.child._id]
        elif isinstance(node, Decision):
            depths[node._id] = 1 + max(depths[node.hi._id], depths[node.lo._id])
        else:
            depths[node._id] = 0
    return depths[root._id]


def circuit_variables(*roots: Node) -> frozenset[str]:
    """The provenance variables occurring in the circuits.

    Decision variables count: a :class:`Decision` gate *reads* its variable
    even though no :class:`Var` leaf for it need survive the compile.
    """
    names: set[str] = set()
    for node in iter_nodes(*roots):
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Decision):
            names.add(node.name)
    return frozenset(names)


def render(root: Node) -> str:
    """Fully expanded infix rendering (``Sum`` children of ``Prod`` get parens).

    The output length can be exponential in the DAG size -- callers that may
    hold large circuits should check :func:`node_count` first (as
    ``CircuitSemiring.format_value`` does) or use the compact summary.
    """
    rendered: Dict[int, str] = {}
    for node in iter_nodes(root):
        if isinstance(node, Var):
            rendered[node._id] = node.name
        elif isinstance(node, Const):
            rendered[node._id] = str(node.value)
        elif isinstance(node, Not):
            rendered[node._id] = f"¬{rendered[node.child._id]}"
        elif isinstance(node, Decision):
            rendered[node._id] = (
                f"ite({node.name}, {rendered[node.hi._id]}, {rendered[node.lo._id]})"
            )
        elif isinstance(node, Sum):
            rendered[node._id] = " + ".join(rendered[c._id] for c in node.children)
        else:
            parts = []
            for child in node.children:
                text = rendered[child._id]
                parts.append(f"({text})" if isinstance(child, Sum) else text)
            rendered[node._id] = "·".join(parts)
    return rendered[root._id]
