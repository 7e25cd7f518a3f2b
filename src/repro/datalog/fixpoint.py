"""Fixpoint evaluation of datalog on K-relations (Section 5).

Definition 5.1 gives the proof-theoretic semantics -- the annotation of an
output tuple is the (possibly infinite) sum, over all its derivation trees,
of the product of the leaf annotations -- and Theorem 5.6 shows it coincides
with the least solution of the algebraic system ``Q-bar = T_q(R, Q-bar)``.
This module computes that least fixpoint directly by Kleene iteration of the
immediate-consequence operator on the grounded program.

Termination strategy
--------------------
* For semirings with **idempotent addition** (all the lattices, tropical,
  fuzzy, Viterbi, why-provenance) the iteration is monotone in the natural
  order and reaches the fixpoint after finitely many rounds; a configurable
  ``max_iterations`` guards against pathological cases.
* For semirings with **non-idempotent addition** (``N``, ``N-inf``,
  ``N[X]``, power series) the annotation of a tuple converges iff the tuple
  has finitely many derivation trees.  The engine first identifies the atoms
  with infinitely many derivations (reachability from a cycle of the grounded
  dependency graph -- the same analysis All-Trees relies on); the remaining
  atoms form an acyclic sub-program whose values converge within one round
  per atom.  Atoms with infinitely many derivations get the semiring's top
  element (``infinity`` in ``N-inf``, reproducing Figure 7(b)); if the
  semiring has no top the evaluation raises :class:`DivergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping

from repro.errors import DivergenceError
from repro.datalog.grounding import GroundAtom, GroundProgram, ground_program
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring

__all__ = [
    "DatalogResult",
    "evaluate_program",
    "evaluate",
    "immediate_consequence",
    "solve_ground",
]

#: Hard ceiling on Kleene rounds for idempotent semirings (safety net only).
DEFAULT_MAX_ITERATIONS = 10_000


@dataclass
class DatalogResult:
    """Result of a datalog evaluation.

    Attributes
    ----------
    annotations:
        Final annotation of every derivable IDB ground atom.
    iterations:
        Number of Kleene rounds performed.
    divergent_atoms:
        Atoms whose annotation was set to the semiring's top element because
        they have infinitely many derivation trees (empty for idempotent
        semirings).
    ground:
        The grounded program the evaluation ran on (useful for inspecting the
        instantiation, e.g. in tests of Theorem 6.5).  Caveat: for idempotent
        semirings the semi-naive engine never materializes the instantiation
        (that is where its speed comes from), so its result's ``ground``
        carries the derivable atoms and EDB annotations but an **empty rule
        list**; use ``engine="naive"`` (or
        :func:`~repro.datalog.grounding.ground_program`) when the ground
        rules themselves are needed.
    """

    annotations: Dict[GroundAtom, Any]
    iterations: int
    divergent_atoms: frozenset[GroundAtom]
    ground: GroundProgram
    _relations: Dict[str, KRelation] = field(default_factory=dict, repr=False)

    def relation(self, predicate: str, database: Database) -> KRelation:
        """Materialize the annotations of ``predicate`` as a K-relation."""
        if predicate in self._relations:
            return self._relations[predicate]
        semiring = database.semiring
        arity = self.ground.program.arity(predicate)
        if predicate in database:
            schema = database.relation(predicate).schema
        else:
            head_names = self.ground.program.head_attributes(predicate)
            schema = Schema(head_names or [f"c{i + 1}" for i in range(arity)])
        relation = KRelation(semiring, schema)
        for atom, annotation in self.annotations.items():
            if atom.relation != predicate or semiring.is_zero(annotation):
                continue
            relation.set(Tup.from_values(schema.attributes, atom.values), annotation)
        self._relations[predicate] = relation
        return relation

    def output_relation(self, database: Database) -> KRelation:
        """The K-relation of the program's output predicate."""
        return self.relation(self.ground.program.output, database)


def immediate_consequence(
    ground: GroundProgram,
    semiring: Semiring,
    current: Mapping[GroundAtom, Any],
    *,
    atoms: Iterable[GroundAtom] | None = None,
) -> Dict[GroundAtom, Any]:
    """One application of the annotated immediate-consequence operator ``T_q``.

    For every (selected) derivable IDB atom, the new annotation is the sum
    over its grounded rules of the product of the body annotations, where EDB
    atoms contribute their database annotation and IDB atoms contribute their
    ``current`` value.  This is exactly how the paper turns ``T_q`` into the
    right-hand sides of the algebraic system (Definition 5.5).
    """
    zero = semiring.zero()
    selected = ground.idb_atoms if atoms is None else atoms
    updated: Dict[GroundAtom, Any] = {}
    for atom in selected:
        total = zero
        for rule in ground.rules_with_head(atom):
            product = semiring.one()
            for body_atom in rule.body:
                if ground.is_edb(body_atom):
                    value = ground.edb_annotations.get(body_atom, zero)
                else:
                    value = current.get(body_atom, zero)
                product = semiring.mul(product, value)
                if semiring.is_zero(product):
                    break
            total = semiring.add(total, product)
        updated[atom] = total
    return updated


def evaluate_program(
    program: Program | str,
    database: Database,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    on_divergence: str = "top",
    engine: str = "naive",
    storage: Any = None,
    parallel: Any = None,
) -> DatalogResult:
    """Evaluate ``program`` over ``database`` in the database's semiring.

    ``on_divergence`` controls what happens to atoms with infinitely many
    derivation trees when the semiring's addition is not idempotent:

    * ``"top"`` (default) -- assign the semiring's top element (requires one);
    * ``"error"`` -- raise :class:`DivergenceError`;
    * ``"skip"`` -- drop the divergent atoms from the result, keeping the
      (exact) annotations of the acyclic remainder.  Useful for provenance
      representations such as ``N[X]`` polynomials or circuits that have no
      top element: a finite atom never depends on a divergent one (any
      derivation of it through a divergent atom would itself be one of
      infinitely many), so the kept annotations are unaffected.  The skipped
      atoms are reported in ``DatalogResult.divergent_atoms``.

    ``engine`` selects the evaluation strategy: ``"naive"`` (default) grounds
    the program and Kleene-iterates the immediate-consequence operator --
    the reference implementation, closest to the paper's Definition 5.5;
    ``"seminaive"`` runs the delta-driven engine of
    :mod:`repro.datalog.seminaive`, which produces identical annotations and
    is asymptotically faster on recursive programs.  The engines differ in
    one inspection detail: for idempotent semirings the semi-naive result's
    ``ground`` carries no rule instantiations (see
    :attr:`DatalogResult.ground`).

    ``storage`` selects the physical backend of the semi-naive engine's
    per-predicate stores (``"row"`` or ``"columnar"``; ``None`` defers to
    ``REPRO_STORAGE``, then to the database's own backend).  On a columnar
    backend the whole fixpoint runs array-resident
    (:mod:`repro.datalog.arraystore`) for idempotent vector semirings and
    programs of copy / single-join plans, with identical results.  The
    naive engine ignores it.

    ``parallel`` (semi-naive engine only) runs the annotate-mode fixpoint
    rounds over a pool of shared-nothing worker processes
    (:mod:`repro.parallel`): an integer worker count, ``True`` for the cpu
    count, or ``None`` to defer to ``REPRO_PARALLEL``.  Collect-mode runs
    (non-idempotent semirings) and semirings without a canonical picklable
    carrier decline to the serial loop; results are identical either way.
    The naive engine ignores it.
    """
    _check_engine(engine)
    if isinstance(program, str):
        program = Program.parse(program)
    if engine == "seminaive":
        from repro.datalog.seminaive import evaluate_program_seminaive

        return evaluate_program_seminaive(
            program,
            database,
            max_iterations=max_iterations,
            on_divergence=on_divergence,
            storage=storage,
            parallel=parallel,
        )
    semiring = database.semiring
    ground = ground_program(program, database)
    return solve_ground(
        ground,
        semiring,
        max_iterations=max_iterations,
        on_divergence=on_divergence,
    )


def _check_engine(engine: str) -> None:
    if engine not in ("naive", "seminaive"):
        raise ValueError(
            f"engine must be 'naive' or 'seminaive', got {engine!r}"
        )


def classify_divergence(
    ground: GroundProgram, semiring: Semiring, on_divergence: str
) -> tuple[frozenset[GroundAtom], set[GroundAtom]]:
    """Split the derivable IDB atoms into ``(divergent, finite)`` sets.

    The single place both engines apply the divergence policy: validates
    ``on_divergence``, classifies nothing as divergent under idempotent
    addition, and otherwise raises :class:`DivergenceError` when divergent
    atoms exist but the policy (or the semiring's lack of a top element)
    cannot absorb them.
    """
    if on_divergence not in ("top", "error", "skip"):
        raise ValueError(
            f"on_divergence must be 'top', 'error' or 'skip', got {on_divergence!r}"
        )
    idb_atoms = ground.idb_atoms
    if semiring.idempotent_add:
        return frozenset(), set(idb_atoms)
    divergent = ground.atoms_with_infinite_derivations() & idb_atoms
    finite = set(idb_atoms) - divergent
    if divergent:
        if on_divergence == "error" or (
            on_divergence == "top" and not semiring.has_top
        ):
            raise DivergenceError(
                f"{len(divergent)} tuple(s) have infinitely many derivations and "
                f"{semiring.name} cannot represent the infinite sum "
                "(use an ω-continuous semiring with a top element, e.g. N∞, "
                "or on_divergence='skip' to keep only the convergent atoms)"
            )
    return divergent, finite


def solve_ground(
    ground: GroundProgram,
    semiring: Semiring,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    on_divergence: str = "top",
) -> DatalogResult:
    """Kleene-solve an already-grounded program in ``semiring``.

    The engine core behind :func:`evaluate_program`, exposed so callers that
    already hold a :class:`~repro.datalog.grounding.GroundProgram` (or a
    re-annotated copy of one, as the circuit provenance path builds) can
    solve it without grounding a second time.  ``ground.edb_annotations``
    must already be elements of ``semiring``.
    """
    divergent, finite_atoms = classify_divergence(ground, semiring, on_divergence)

    values: Dict[GroundAtom, Any] = {atom: semiring.zero() for atom in finite_atoms}
    # Under "top", divergent atoms are pinned to top from the start so that
    # finite atoms depending on them (impossible by construction, but
    # harmless) see the correct value; under "skip" they are absent and read
    # as zero, which finite atoms never observe for the same reason.
    if divergent and on_divergence == "top":
        top = semiring.top()
        for atom in divergent:
            values[atom] = top

    iterations = 0
    # For non-idempotent semirings the finite sub-program is acyclic, so
    # |finite atoms| + 1 rounds always suffice; idempotent semirings iterate
    # until stability.
    if not semiring.idempotent_add:
        max_iterations = min(max_iterations, len(finite_atoms) + 1)

    while iterations < max_iterations:
        iterations += 1
        updated = immediate_consequence(ground, semiring, values, atoms=finite_atoms)
        changed = False
        for atom, value in updated.items():
            if value != values[atom]:
                values[atom] = value
                changed = True
        if not changed:
            break
    else:
        if semiring.idempotent_add:
            raise DivergenceError(
                f"datalog evaluation over {semiring.name} did not converge within "
                f"{max_iterations} iterations"
            )

    return DatalogResult(
        annotations=values,
        iterations=iterations,
        divergent_atoms=divergent,
        ground=ground,
    )


def evaluate(
    program: Program | str,
    database: Database,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    on_divergence: str = "top",
    engine: str = "naive",
) -> KRelation:
    """Convenience wrapper: evaluate and return the output predicate's K-relation."""
    if isinstance(program, str):
        program = Program.parse(program)
    result = evaluate_program(
        program,
        database,
        max_iterations=max_iterations,
        on_divergence=on_divergence,
        engine=engine,
    )
    return result.output_relation(database)
