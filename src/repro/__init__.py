"""repro -- a reproduction of "Provenance Semirings" (Green, Karvounarakis & Tannen, PODS 2007).

The library provides K-relations (relations annotated with elements of a
commutative semiring), the positive relational algebra and datalog over
them, the provenance semirings ``N[X]`` and ``N∞[[X]]``, incomplete and
probabilistic database frontends, and query containment machinery.

Quickstart::

    from repro import BooleanSemiring, Database, Q

    db = Database(BooleanSemiring())
    db.create("R", ["a", "b"], [("1", "2"), ("2", "3")])
    result = Q.relation("R").project("a").evaluate(db)

Provenance circuits
-------------------

Beyond the paper's expanded polynomials, :mod:`repro.circuits` provides a
hash-consed DAG representation of the same provenance semantics: annotate
inputs in :class:`CircuitSemiring` (or abstractly tag any database with
``abstractly_tag_database(db, semiring=CircuitSemiring())``), run *any*
query once, then :func:`specialize` the output into as many semirings as
needed -- each via one memoized pass over the shared DAG instead of a
monomial-by-monomial re-evaluation::

    from repro import CircuitSemiring, Database, NaturalsSemiring, Q, specialize

    circ = CircuitSemiring()
    db = Database(circ)
    db.create("R", ["a", "b"], [(("1", "2"), "p"), (("2", "3"), "r")])
    result = Q.relation("R").project("a").evaluate(db)   # circuit annotations
    bags = specialize(result, NaturalsSemiring(), {"p": 2, "r": 5})

Under deep joins and datalog fixpoints circuits stay polynomially small
where ``N[X]`` explodes; by universality (Proposition 4.2) the answers are
identical (``tests/circuits/test_circuit_vs_polynomial.py`` checks it).
"""

from repro.errors import (
    ContainmentError,
    DatalogError,
    DivergenceError,
    GroundingError,
    InvalidAnnotationError,
    ParseError,
    QueryError,
    ReproError,
    SchemaError,
    SemiringError,
)
from repro.relations import (
    Database,
    KRelation,
    Schema,
    TaggedDatabase,
    Tup,
    abstractly_tag,
    abstractly_tag_database,
)
from repro.semirings import (
    INFINITY,
    BooleanSemiring,
    BoolExpr,
    CompletedNaturalsSemiring,
    EventSemiring,
    EventSpace,
    FormalPowerSeries,
    FuzzySemiring,
    IntegerPolynomialRing,
    IntegerRing,
    Monomial,
    NatInf,
    NaturalsSemiring,
    Polynomial,
    PolynomialSemiring,
    PosBoolSemiring,
    PowerSeriesSemiring,
    ProductSemiring,
    ProvenancePolynomialSemiring,
    Semiring,
    SemiringHomomorphism,
    TropicalSemiring,
    ViterbiSemiring,
    WhyProvenanceSemiring,
    WitnessWhySemiring,
    ZPolynomial,
    available_semirings,
    get_semiring,
    polynomial_evaluation,
    series_evaluation,
)
from repro.algebra import (
    ConjunctiveQuery,
    Q,
    Query,
    UnionOfConjunctiveQueries,
    contained_in_semiring,
    cq_contained_set,
    factorized_evaluate,
    ucq_contained_set,
    verify_factorization,
)
from repro.circuits import (
    CircuitEvaluator,
    CircuitSemiring,
    circuit_evaluation,
    eval_circuit,
    from_polynomial,
    specialize,
    to_polynomial,
)
from repro.datalog import (
    DatalogCircuitProvenance,
    DatalogProvenance,
    DatalogResult,
    Program,
    Rule,
    datalog_circuit_provenance,
    datalog_provenance,
    evaluate_program,
)
from repro.incremental import (
    IncrementalDatalog,
    MaterializedView,
    UpdateBatch,
    apply_batch_to_database,
    apply_delta,
    batch_deltas,
)
from repro.engine import compile_query, execute
from repro.obs import (
    InstrumentedSemiring,
    OpCounter,
    explain_analyze,
    instrument,
    tracing,
)
from repro.planner import OptimizationReport, explain, optimize, plan_signature

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SemiringError",
    "InvalidAnnotationError",
    "SchemaError",
    "QueryError",
    "DatalogError",
    "GroundingError",
    "DivergenceError",
    "ContainmentError",
    "ParseError",
    # relations
    "Tup",
    "Schema",
    "KRelation",
    "Database",
    "TaggedDatabase",
    "abstractly_tag",
    "abstractly_tag_database",
    # semirings
    "Semiring",
    "BooleanSemiring",
    "NaturalsSemiring",
    "CompletedNaturalsSemiring",
    "NatInf",
    "INFINITY",
    "TropicalSemiring",
    "FuzzySemiring",
    "ViterbiSemiring",
    "PosBoolSemiring",
    "BoolExpr",
    "WhyProvenanceSemiring",
    "WitnessWhySemiring",
    "EventSemiring",
    "EventSpace",
    "IntegerRing",
    "IntegerPolynomialRing",
    "ZPolynomial",
    "Monomial",
    "Polynomial",
    "PolynomialSemiring",
    "ProvenancePolynomialSemiring",
    "FormalPowerSeries",
    "PowerSeriesSemiring",
    "ProductSemiring",
    "SemiringHomomorphism",
    "polynomial_evaluation",
    "series_evaluation",
    "get_semiring",
    "available_semirings",
    # circuits
    "CircuitSemiring",
    "CircuitEvaluator",
    "eval_circuit",
    "circuit_evaluation",
    "to_polynomial",
    "from_polynomial",
    "specialize",
    # datalog
    "Program",
    "Rule",
    "DatalogResult",
    "evaluate_program",
    "DatalogProvenance",
    "DatalogCircuitProvenance",
    "datalog_provenance",
    "datalog_circuit_provenance",
    # incremental
    "UpdateBatch",
    "MaterializedView",
    "IncrementalDatalog",
    "apply_delta",
    "batch_deltas",
    "apply_batch_to_database",
    # engine
    "compile_query",
    "execute",
    # observability
    "tracing",
    "instrument",
    "InstrumentedSemiring",
    "OpCounter",
    "explain_analyze",
    # planner
    "optimize",
    "explain",
    "OptimizationReport",
    "plan_signature",
    # algebra
    "Q",
    "Query",
    "ConjunctiveQuery",
    "UnionOfConjunctiveQueries",
    "cq_contained_set",
    "ucq_contained_set",
    "contained_in_semiring",
    "factorized_evaluate",
    "verify_factorization",
]
