"""Semiring-aware query planning for the positive algebra.

Green, Karvounarakis & Tannen prove (Proposition 3.4) that the classic
relational-algebra identities -- pushdowns, fusions, join commutativity and
associativity, distribution over union -- hold over *any* commutative
semiring, while idempotence-based laws (``R ∪ R = R``, ``R ⋈ R = R``) hold
exactly when the semiring's operations are idempotent.  This package turns
those theorems into an optimizer:

* :mod:`repro.planner.rewrites` -- the semiring-safe rewrite rules plus the
  idempotence-gated ones, applied bottom-up to a fixpoint;
* :mod:`repro.planner.optimizer` -- the :func:`optimize`/:func:`explain`
  entry points (planning is the rewrite fixpoint; joins keep their
  written order);
* :mod:`repro.planner.plans` -- schema inference and structural plan
  signatures.

Entry points::

    from repro.planner import optimize, explain

    plan = optimize(query, database)       # an equivalent, cheaper Query
    print(explain(query, database))        # both plans + the rules applied
    query.evaluate(database)               # planned once the input is large enough
"""

from repro.planner.optimizer import OptimizationReport, explain, optimize
from repro.planner.plans import catalog_of, infer_attributes, plan_signature
from repro.planner.rewrites import (
    RewriteContext,
    SemiringProfile,
    rewrite_fixpoint,
    semiring_profile,
)

__all__ = [
    "optimize",
    "explain",
    "OptimizationReport",
    "plan_signature",
    "infer_attributes",
    "catalog_of",
    "rewrite_fixpoint",
    "RewriteContext",
    "SemiringProfile",
    "semiring_profile",
]
