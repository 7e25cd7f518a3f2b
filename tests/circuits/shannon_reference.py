"""Paper-literal top-down Shannon expansion: the oracle for the compiler.

    f  =  x · f[x := 1]  +  ¬x · f[x := 0]

with ``x`` the earliest variable of ``f`` in ``order``, each cofactor
rebuilt through the hash-consing factories, and ``ite(x, f, f) = f``
applied by :func:`decision_node`.  The result is the canonical reduced
ordered diagram of ``f``, so :class:`repro.circuits.CircuitCompiler`
(bottom-up apply) must return the *identical* node.  Recursive and slow --
it rebuilds every cofactor it branches through -- so keep its inputs small.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.circuits import (
    ONE,
    ZERO,
    Const,
    Decision,
    Node,
    Not,
    Sum,
    Var,
    circuit_variables,
    decision_node,
    prod_node,
    sum_node,
)


def shannon_compile(source: Node, order: Sequence[str]) -> Tuple[Node, Tuple[str, ...]]:
    """The decision diagram of ``source`` under ``order``, and the
    variables of ``source`` in that order."""
    index = {name: i for i, name in enumerate(order)}
    restricted: Dict[Tuple[Node, str, bool], Node] = {}
    compiled: Dict[Node, Node] = {}

    def restrict(node: Node, name: str, bit: bool) -> Node:
        """``node[name := bit]``."""
        key = (node, name, bit)
        if key not in restricted:
            if isinstance(node, Var) and node.name == name:
                restricted[key] = ONE if bit else ZERO
            elif isinstance(node, Not) and node.child.name == name:
                restricted[key] = ZERO if bit else ONE
            elif isinstance(node, (Var, Not, Const)):
                restricted[key] = node
            elif isinstance(node, Decision) and node.name == name:
                restricted[key] = restrict(node.hi if bit else node.lo, name, bit)
            elif isinstance(node, Decision):
                hi, lo = restrict(node.hi, name, bit), restrict(node.lo, name, bit)
                restricted[key] = decision_node(node.name, hi, lo)
            else:
                rebuild = sum_node if isinstance(node, Sum) else prod_node
                restricted[key] = rebuild(*(restrict(c, name, bit) for c in node.children))
        return restricted[key]

    def expand(node: Node) -> Node:
        if node not in compiled:
            if isinstance(node, Const):
                compiled[node] = ZERO if node.value == 0 else ONE
            else:
                name = min(circuit_variables(node), key=index.__getitem__)
                hi = expand(restrict(node, name, True))
                compiled[node] = decision_node(name, hi, expand(restrict(node, name, False)))
        return compiled[node]

    support = circuit_variables(source)
    return expand(source), tuple(name for name in order if name in support)
