"""Incremental view maintenance over delta K-relations.

The semiring annotations of the paper make query results algebraic objects
that can be *maintained* under base-table change, not just recomputed: every
positive-algebra operator is bilinear in ``(+, .)``, so the change to a view
is itself a query over the base relations and their change-valued deltas
(the classic delta rules, stated on K-relations in
:mod:`repro.incremental.delta`).  Insertions work in any commutative
semiring; deletions need additive inverses -- the ring capability
``has_negation`` provided by ``Z`` and ``Z[X]``
(:mod:`repro.semirings.integers`) -- and are otherwise maintained by a
targeted delete/rederive pass (views) or DRed (datalog).

Two entry points:

* :class:`MaterializedView` -- a query result maintained under
  :class:`UpdateBatch` streams via a materialized operator tree, each node
  evaluated operator-at-a-time;
* :class:`IncrementalDatalog` -- a semi-naive datalog fixpoint resumed
  in place on EDB insertions.
"""

from repro.incremental.datalog import IncrementalDatalog
from repro.incremental.delta import (
    UpdateBatch,
    apply_batch_to_database,
    apply_delta,
    batch_deltas,
)
from repro.incremental.view import MaterializedView

__all__ = [
    "UpdateBatch",
    "MaterializedView",
    "IncrementalDatalog",
    "apply_delta",
    "batch_deltas",
    "apply_batch_to_database",
]
