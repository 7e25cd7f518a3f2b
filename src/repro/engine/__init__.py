"""Physical execution engine: pipelined kernels for optimized plans.

The logical layers -- the PR 4 planner, materialized views, the semi-naive
datalog engine -- all produce *plans*; this package is where plans become
machine work.  :mod:`repro.engine.compile` turns any positive-algebra query
into a tree of pipelined operators (fused scan-select-project, hash join
with cost-driven build-side selection, streaming union) with one batched
annotation-accumulation pipeline breaker at the root,
:mod:`repro.engine.kernels` holds its row kernels (the datalog delta rounds
share the batched combiner), and :mod:`repro.engine.vectorized` runs the
same plans column-at-a-time.

Entry points::

    result = Q.relation("R").join(Q.relation("S")).evaluate(db)

    from repro.engine import execute
    result = execute(plan, db)          # a prepared plan: column kernels, then rows
"""

from repro.engine.compile import compile_query, execute
from repro.engine.kernels import (
    accumulate_batches,
    combine_contributions,
)

__all__ = [
    "compile_query",
    "execute",
    "accumulate_batches",
    "combine_contributions",
]
