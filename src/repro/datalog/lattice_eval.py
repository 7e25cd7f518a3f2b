"""Datalog over finite distributive lattices (Section 8 of the paper).

When the annotation semiring ``K`` is a finite distributive lattice --
``B``, ``PosBool(B)``, the event sets ``P(Omega)``, the fuzzy semiring over a
finite value set -- datalog evaluation always terminates, even for tuples
with infinitely many derivation trees.  The paper obtains this by modifying
All-Trees to keep, per tuple, only the derivation trees whose fringe is
*minimal*; absorption (``a + a·b = a``) makes every non-minimal fringe
redundant, and by Dickson's lemma there are only finitely many minimal
fringes.

Operationally, keeping minimal fringes is the same as computing the tuple's
provenance in ``PosBool(X)`` (the free distributive lattice over the tuple
ids): multiplication idempotence flattens exponents and absorption removes
dominated monomials.  This module therefore evaluates the program once in
``PosBool(X)`` over the abstractly tagged EDB -- producing a boolean c-table,
the "datalog on c-tables" semantics the paper notes is new for incomplete
databases -- and then specializes the result to any distributive lattice via
the ``Eval_v`` homomorphism (Theorem 6.4 restricted to lattices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from repro.errors import DatalogError
from repro.datalog.all_trees import default_edb_ids
from repro.datalog.fixpoint import evaluate_program
from repro.datalog.grounding import GroundAtom, collect_edb_annotations
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring
from repro.semirings.posbool import BoolExpr, PosBoolSemiring

__all__ = ["LatticeDatalogResult", "lattice_condition_provenance", "evaluate_on_lattice"]


@dataclass
class LatticeDatalogResult:
    """Datalog-on-c-tables output: a condition (PosBool expression) per tuple."""

    edb_ids: Dict[GroundAtom, str]
    conditions: Dict[GroundAtom, BoolExpr]
    program: Program
    _compiled: Dict[GroundAtom, Any] | None = field(default=None, init=False, repr=False)

    def condition(self, atom: GroundAtom) -> BoolExpr:
        """The minimal-fringe condition of a derivable IDB atom."""
        try:
            return self.conditions[atom]
        except KeyError:
            raise DatalogError(f"{atom} is not a derivable IDB atom") from None

    def compile(self, *, compiler: Any = None) -> Dict[GroundAtom, Any]:
        """Knowledge-compile every condition to an ordered decision diagram.

        One :class:`~repro.circuits.compile.CircuitCompiler` (passed in or
        created here) compiles all atoms as one multi-rooted diagram, so
        conditions that share clauses -- the normal case after a fixpoint --
        share the compile cache and the variable order.  Returns atom ->
        :class:`~repro.circuits.compile.CompiledCircuit`.
        """
        from repro.circuits.compile import CircuitCompiler

        if compiler is None:
            if self._compiled is not None:
                return self._compiled
            compiler = CircuitCompiler()
        self._compiled = compiler.compile_many(self.conditions)
        return self._compiled

    def wmc(self, weights: Mapping[str, float]) -> Dict[GroundAtom, float]:
        """Exact probability of every atom under independent tuple marginals.

        Compiles the conditions and weighted-model-counts the diagrams in
        one pass -- the probabilistic-datalog reading of Section 8 without
        constructing any world space.
        """
        from repro.circuits.evaluate import wmc_many

        return wmc_many(
            {atom: compiled.root for atom, compiled in self.compile().items()}, weights
        )

    def evaluate(
        self,
        lattice: Semiring,
        valuation: Mapping[str, Any],
        *,
        method: str = "expand",
    ) -> Dict[GroundAtom, Any]:
        """Specialize every condition to a distributive lattice ``K``.

        ``valuation`` maps tuple ids to lattice elements; with the default
        ``method="expand"`` each condition's minimal monomials are mapped to
        meets and joined, which is exactly evaluating the minimal-fringe
        polynomial of the paper's modified All-Trees in ``K``.

        ``method="compile"`` routes through the knowledge compiler instead:
        conditions are compiled once and the decision diagrams are evaluated
        in ``K``.  This needs a ``complement`` operation on the lattice
        (i.e. a Boolean algebra, like ``P(Omega)``); the two methods agree
        because lattice evaluation is pointwise Boolean under the Birkhoff
        representation.
        """
        if not lattice.is_distributive_lattice:
            raise DatalogError(
                f"Section 8 evaluation needs a distributive lattice, got {lattice.name}"
            )
        if method not in ("expand", "compile"):
            raise DatalogError(f"unknown method {method!r} (use 'expand' or 'compile')")
        coerced = {k: lattice.coerce(v) for k, v in valuation.items()}
        if method == "compile":
            complement = getattr(lattice, "complement", None)
            if complement is None:
                raise DatalogError(
                    f"method='compile' needs a complemented lattice; {lattice.name} "
                    "has no complement operation"
                )
            from repro.circuits.evaluate import CircuitEvaluator

            diagrams = self.compile()
            values = CircuitEvaluator(lattice, coerced, complement=complement).evaluate_many(
                compiled.root for compiled in diagrams.values()
            )
            return {atom: values[compiled.root] for atom, compiled in diagrams.items()}
        results: Dict[GroundAtom, Any] = {}
        for atom, condition in self.conditions.items():
            value = lattice.zero()
            for clause in condition.clauses:
                meet = lattice.one()
                for variable in clause:
                    meet = lattice.mul(meet, coerced[variable])
                value = lattice.add(value, meet)
            results[atom] = value
        return results


def lattice_condition_provenance(
    program: Program | str,
    database: Database,
    *,
    edb_ids: Mapping[GroundAtom, str] | None = None,
    engine: str = "naive",
    storage: str | None = None,
) -> LatticeDatalogResult:
    """Compute the PosBool(X) ("minimal fringe") provenance of a datalog query.

    The database may be annotated in any semiring; only the support matters
    here, since each EDB fact is re-tagged with its own Boolean variable.
    (``edb_ids`` need not be injective: mapping two facts to one variable
    declares them perfectly correlated, which is how the probabilistic layer
    encodes shared events.)  ``engine`` selects the evaluation strategy of
    the underlying PosBool(X) fixpoint (``"naive"`` or ``"seminaive"``, see
    :func:`repro.datalog.fixpoint.evaluate_program`) and ``storage`` its
    backend; the conditions are identical either way.
    """
    if isinstance(program, str):
        program = Program.parse(program)
    if edb_ids is not None:
        ids = dict(edb_ids)
    else:
        ids = default_edb_ids(collect_edb_annotations(program, database))

    posbool = PosBoolSemiring()
    tagged = Database(posbool)
    for predicate in program.edb_predicates:
        source = database.relation(predicate)
        relation = KRelation(posbool, source.schema)
        for tup, _annotation in source.items():
            atom = GroundAtom(predicate, tup.values_for(source.schema.attributes))
            relation.set(tup, BoolExpr.var(ids[atom]))
        tagged.register(predicate, relation)

    result = evaluate_program(program, tagged, engine=engine, storage=storage)
    conditions = {
        atom: value
        for atom, value in result.annotations.items()
        if not posbool.is_zero(value)
    }
    return LatticeDatalogResult(edb_ids=ids, conditions=conditions, program=program)


def evaluate_on_lattice(
    program: Program | str,
    database: Database,
    *,
    output_only: bool = True,
    engine: str = "naive",
    method: str = "expand",
    storage: str | None = None,
) -> KRelation:
    """Terminating datalog evaluation when the database's semiring is a lattice.

    This is the end-to-end Section 8 pipeline: compute the PosBool(X)
    conditions, then evaluate them under the valuation sending each tuple id
    to the fact's own annotation.  The sanity checks of the paper hold by
    construction: for ``K = B`` every derivable tuple gets ``true``; for
    ``K = PosBool(B)`` the result is the c-table datalog semantics; for
    ``K = P(Omega)`` it generalizes probabilistic datalog.

    ``engine="seminaive"`` runs the underlying PosBool(X) fixpoint through
    the PR 2 delta-driven engine; the result is identical.
    ``method="compile"`` specializes the conditions through the knowledge
    compiler (requires a complemented lattice, e.g. ``P(Omega)``); again the
    result is identical -- the probabilistic layer uses it for differential
    checks.
    """
    if isinstance(program, str):
        program = Program.parse(program)
    semiring = database.semiring
    if not semiring.is_distributive_lattice:
        raise DatalogError(
            f"evaluate_on_lattice requires a distributive-lattice semiring, got {semiring.name}"
        )
    # One EDB scan serves both the tuple ids and the valuation.
    edb_annotations = collect_edb_annotations(program, database)
    ids = default_edb_ids(edb_annotations)
    provenance = lattice_condition_provenance(
        program, database, edb_ids=ids, engine=engine, storage=storage
    )
    valuation = {
        ids[atom]: annotation for atom, annotation in edb_annotations.items()
    }
    values = provenance.evaluate(semiring, valuation, method=method)

    predicate = program.output
    arity = program.arity(predicate)
    if predicate in database:
        schema = database.relation(predicate).schema
    else:
        head_names = program.head_attributes(predicate)
        schema = Schema(head_names or [f"c{i + 1}" for i in range(arity)])
    relation = KRelation(semiring, schema)
    for atom, value in values.items():
        if atom.relation != predicate or semiring.is_zero(value):
            continue
        if not output_only or atom.relation == predicate:
            relation.set(Tup.from_values(schema.attributes, atom.values), value)
    return relation
