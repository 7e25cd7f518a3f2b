"""Provenance circuits: hash-consed DAG annotations for RA and datalog.

The compact successor to the expanded ``N[X]`` polynomials of Section 4:
same semantics by universality (Proposition 4.2 / Theorem 4.3),
polynomially smaller objects under deep joins and fixpoints, and one
memoized pass per valuation instead of monomial-by-monomial re-evaluation.

* :mod:`repro.circuits.nodes` -- immutable, interned ``Var``/``Const``/
  ``Sum``/``Prod`` nodes forming a DAG with structural sharing;
* :mod:`repro.circuits.semiring` -- :class:`CircuitSemiring`, a drop-in
  annotation semiring for K-relations and the datalog engine;
* :mod:`repro.circuits.evaluate` -- the memoized ``Eval_v`` pass,
  polynomial converters, :func:`specialize` (one query, many semirings),
  and the linear inference passes over compiled circuits (``wmc_many``
  and ``top_k_many``, one sweep in the k-best semiring whose top-1 is the
  MAP assignment);
* :mod:`repro.circuits.knowledge` -- the structural property layer of the
  knowledge-compilation map (decomposability, determinism, smoothness);
* :mod:`repro.circuits.compile` -- compilation of any provenance circuit or
  PosBool condition into its Shannon expansion, a reduced ordered decision
  diagram built bottom-up by memoized apply: the engine behind every
  probability, top-k and MAP answer of :mod:`repro.probabilistic`.
"""

from repro.circuits.compile import (
    CircuitCompiler,
    CompiledCircuit,
    choose_variable_order,
    compile_circuit,
)
from repro.circuits.evaluate import (
    CircuitEvaluator,
    circuit_evaluation,
    eval_circuit,
    from_polynomial,
    restrict_vars,
    specialize,
    to_polynomial,
    top_k_many,
    wmc,
    wmc_many,
)
from repro.circuits.knowledge import (
    check_ddnnf,
    classify,
    is_decomposable,
    is_deterministic,
    is_smooth,
    smooth,
    to_nnf,
)
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
    circuit_depth,
    circuit_variables,
    const,
    decision_node,
    iter_nodes,
    node_count,
    not_node,
    prod_node,
    render,
    sum_node,
    var,
)
from repro.circuits.semiring import CircuitSemiring

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
    "CircuitSemiring",
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
    "is_decomposable",
    "is_deterministic",
    "is_smooth",
    "classify",
    "check_ddnnf",
    "smooth",
    "to_nnf",
    "CircuitCompiler",
    "CompiledCircuit",
    "compile_circuit",
    "choose_variable_order",
]
