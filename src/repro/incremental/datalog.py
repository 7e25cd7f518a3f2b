"""Incremental datalog: maintaining a fixpoint under EDB update streams.

Datalog annotations are monotone in the EDB under the semiring's natural
order, so *insertions* (``+``-combining new annotations into EDB facts) can
resume the semi-naive fixpoint of :mod:`repro.datalog.seminaive` exactly
where it stopped: the engine keeps its per-predicate stores and
variable-binding indexes alive between updates, fires only the delta plan
variants driven by the changed EDB predicate, and drains the consequences --
no re-seeding, no re-grounding of what is already known.

Two regimes, mirroring the one-shot engine:

* **idempotent addition** (``B``, lattices, tropical, ...): the maintained
  annotations are exact at all times; an insertion costs work proportional
  to the new consequences only.
* **non-idempotent addition** (``N∞``, provenance): the engine's collect
  mode maintains the Boolean support and the set of fired rule
  instantiations incrementally (both grow monotonically under insertions),
  and the exact annotations are re-solved from the maintained grounding --
  the grounding, not the solving, is the expensive part the incremental
  path avoids redoing.

Deletions shrink a fixpoint non-monotonically (derived facts may lose all
their derivations), which plain delta-plan firing cannot express; ``remove``
therefore runs a **delete/rederive (DRed) pass** against the maintained
state instead of rebuilding it:

* **idempotent mode**: over-delete what the removed facts transitively
  support (the maintained delta plans fire with the doomed rows as drivers;
  where ``+`` selects a summand -- Tropical, Fuzzy, Viterbi -- only the atoms
  whose annotation is *attained* through a doomed one), then re-derive the
  survivors head-first and drain the consequences with ordinary delta rounds
  (``mode="dred"``);
* **collect mode**: the recorded rule instantiations *are* the support
  graph, so over-delete/rederive walks them without refiring a single join,
  and the exact annotations re-solve lazily from the pruned grounding
  (``mode="dred"``);
* **provenance-assisted**: when every deleted fact is tagged with a fresh
  ``N[X]``/``Z[X]`` variable no surviving EDB fact mentions, the cached
  result is patched by specializing those variables to zero
  (:meth:`Polynomial.drop_variables`) -- exact new annotations without
  re-solving anything (``mode="provenance"``).  Circuits take the plain
  collect-mode pass: re-solving the pruned grounding is cheaper than
  restricting every cached circuit;
* a full engine rebuild remains only as the last-resort recovery when a
  rederive drain exhausts its iteration budget (``mode="rebuild"``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.errors import DatalogError, DivergenceError
from repro.obs import trace as _trace
from repro.datalog.fixpoint import (
    DEFAULT_MAX_ITERATIONS,
    DatalogResult,
    check_on_divergence,
    solve_ground,
)
from repro.datalog.grounding import GroundAtom
from repro.datalog.seminaive import _SemiNaiveEngine
from repro.datalog.syntax import Program
from repro.incremental.delta import UpdateBatch
from repro.relations.database import Database
from repro.relations.krelation import KRelation

__all__ = ["IncrementalDatalog"]


class IncrementalDatalog:
    """A datalog fixpoint kept up to date under EDB insertions.

    Usage::

        maintained = IncrementalDatalog("T(x,y) :- R(x,y). T(x,y) :- R(x,z), T(z,y)", db)
        maintained.insert("R", [(("a", "b"), 1)])
        maintained.result            # a DatalogResult, same contract as evaluate_program
        maintained.relation("T")     # the maintained IDB relation

    ``insert`` entries follow the :class:`~repro.relations.krelation.KRelation`
    row convention: ``(row, annotation)`` pairs or bare rows (annotation
    ``1``); annotations combine into existing EDB facts with the semiring's
    ``+``.  ``remove`` deletes facts *incrementally* with a delete/rederive
    (DRed) pass over the maintained state; :attr:`last_delete_mode` records
    which strategy the last deletion used (``"dred"``, ``"provenance"``,
    ``"noop"`` or ``"rebuild"`` -- see the module docstring).  Removing an
    absent fact is a defined no-op, mirroring ``merge_delta``'s zero
    handling.

    The EDB relations change only through :meth:`insert`, :meth:`remove` and
    :meth:`apply`.  A direct write to a database relation (``KRelation.add``
    / ``discard`` / ``set``) bypasses the maintained state, and the fixpoint
    goes stale; :meth:`check_consistency` reports it.
    """

    def __init__(
        self,
        program: Program | str,
        database: Database,
        *,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        on_divergence: str = "top",
    ):
        check_on_divergence(on_divergence)
        if isinstance(program, str):
            program = Program.parse(program)
        self.program = program
        self.database = database
        self.semiring = database.semiring
        self.max_iterations = max_iterations
        self.on_divergence = on_divergence
        self._idempotent = self.semiring.idempotent_add
        self._result: DatalogResult | None = None
        self._rounds = 0
        #: Work done by the last ``remove`` (always on; the ``incremental.delete``
        #: span carries the same keys): ``mode``, ``overdeleted`` / ``rederived``
        #: IDB atoms, ``rounds``, the IDB's ``idb_rows`` before the deletion and
        #: whether the ``attained``-support bound applied (selective ``+``).
        self.last_delete_stats: Dict[str, Any] | None = None
        self._start_engine()

    # -- engine lifecycle -------------------------------------------------------
    def _start_engine(self) -> None:
        self._engine = _SemiNaiveEngine(
            self.program,
            self.database,
            collect=not self._idempotent,
            maintain_edb=True,
        )
        budget = (
            self.max_iterations
            if self._idempotent
            else max(self.max_iterations, DEFAULT_MAX_ITERATIONS)
        )
        self._rounds = self._engine.run(budget)
        self._result = None

    # -- results ----------------------------------------------------------------
    @property
    def result(self) -> DatalogResult:
        """The current fixpoint (recomputed lazily after updates)."""
        if self._result is None:
            self._result = self._compute_result()
        return self._result

    def _compute_result(self) -> DatalogResult:
        engine = self._engine
        if self._idempotent:
            annotations = engine.annotations()
            return DatalogResult(
                annotations=annotations,
                iterations=self._rounds,
                divergent_atoms=frozenset(),
                ground=engine.result_ground(annotations),
            )
        return solve_ground(
            engine.ground_program(),
            self.semiring,
            max_iterations=self.max_iterations,
            on_divergence=self.on_divergence,
        )

    def _patch_result(self, changelog: Dict[str, Any]) -> None:
        """Update the cached result from an engine changelog (idempotent mode).

        A maintained update touches O(affected) atoms, so recomputing the
        result's annotation map from the stores -- an O(fixpoint) scan --
        would dominate small deltas.  Instead the changed IDB tuples recorded
        by the engine (row keys) are re-read from the stores and spliced into
        a copy of the cached annotations; ``ground`` is a fresh snapshot,
        decoded only if read.  With no cached result there is nothing to
        patch and the next :attr:`result` access rebuilds it lazily as before.
        """
        old = self._result
        if old is None:
            return
        engine = self._engine
        annotations = dict(old.annotations)
        idb = self.program.idb_predicates
        for predicate, keys in changelog.items():
            if predicate not in idb:
                continue
            relation = engine.stores[predicate].relation
            known, values_of = relation._rows, relation.schema.values_of
            for key in keys:
                atom = GroundAtom(predicate, values_of(key))
                value = known.get(key)
                if value is None:
                    annotations.pop(atom, None)
                else:
                    annotations[atom] = value
        self._result = DatalogResult(
            annotations=annotations,
            iterations=self._rounds,
            divergent_atoms=frozenset(),
            ground=engine.result_ground(annotations),
        )

    def relation(self, predicate: str) -> KRelation:
        """The maintained K-relation of an IDB predicate."""
        return self.result.relation(predicate, self.database)

    def output_relation(self) -> KRelation:
        """The maintained K-relation of the program's output predicate."""
        return self.result.output_relation(self.database)

    # -- updates ----------------------------------------------------------------
    def _coerce_updates(
        self, predicate: str, rows: Iterable[Any]
    ) -> Tuple[KRelation, List[Tuple[tuple, Any]]]:
        """The EDB relation and ``rows`` as ``(row key, annotation)`` pairs."""
        if predicate not in self.program.edb_predicates:
            raise DatalogError(
                f"{predicate!r} is not an EDB predicate of the program "
                f"(EDB: {sorted(self.program.edb_predicates)})"
            )
        base = self.database.relation(predicate)
        semiring = self.semiring
        updates: List[Tuple[tuple, Any]] = []
        for entry in rows:
            row, annotation = base._split_entry(entry)
            updates.append((base._key(row), semiring.coerce(annotation)))
        return base, updates

    def insert(self, predicate: str, rows: Iterable[Any]) -> DatalogResult:
        """Insert EDB facts and resume the fixpoint incrementally.

        Returns the updated :attr:`result`.  Annotation *combination* is the
        semiring's ``+``, so over idempotent semirings re-inserting a known
        fact with a dominated annotation is a no-op and nothing re-fires.
        """
        base, updates = self._coerce_updates(predicate, rows)
        if not updates:
            return self.result
        with _trace.span(
            "incremental.insert", predicate=predicate, updates=len(updates)
        ) as sp:
            rounds_before = self._rounds
            result = self._insert(predicate, base, updates)
            sp.set(rounds=self._rounds - rounds_before)
            return result

    def _insert(
        self,
        predicate: str,
        base: KRelation,
        updates: List[Tuple[tuple, Any]],
    ) -> DatalogResult:
        if self._idempotent:
            # The engine's EDB store *is* the database relation, so the merge
            # inside apply_edb_delta updates both in one step.  (Idempotent
            # addition rules out cancellation: a + a = a with inverses would
            # force a = 0, so the support can only grow here.)
            changelog = self._engine.begin_changelog()
            try:
                self._rounds += self._engine.apply_edb_delta(
                    predicate, updates, self.max_iterations
                )
            finally:
                self._engine.end_changelog()
            self._patch_result(changelog)
            return self.result
        else:
            # Collect mode works on a booleanized copy: merge the real
            # annotations into the database, the support into the engine.
            present_before = {key for key, _ in updates if key in base._rows}
            changed = base._merge_keys(updates)
            cancelled = [key for key in present_before if key not in base._rows]
            if cancelled:
                # A negative insertion cancelled EDB facts exactly: a
                # deletion in insert's clothing.  Shrink the maintained
                # support in place with the instantiation-graph DRed pass
                # instead of rebuilding the engine.
                self._engine.delete_support(predicate, cancelled)
                self._result = None
            # Only genuinely changed tuples reach the engine; in particular a
            # zero-valued insertion of an absent tuple must not create
            # support the database does not have.
            self._rounds += self._engine.apply_edb_delta(
                predicate,
                list(changed._rows.items()),
                max(self.max_iterations, DEFAULT_MAX_ITERATIONS),
            )
        self._result = None
        return self.result

    def remove(self, predicate: str, rows: Iterable[Any]) -> DatalogResult:
        """Remove EDB facts and shrink the fixpoint incrementally.

        Runs the delete/rederive (DRed) pass over the maintained state: the
        removed facts' transitive consequences are over-deleted using the
        engine's own binding indexes, survivors with an untouched alternative
        derivation are re-derived, and only the genuinely affected atoms are
        ever touched.  Entries may be bare rows or ``(row, annotation)``
        pairs (the annotation is ignored -- deletion removes the fact
        entirely).  Removing a fact that is not present is a defined no-op.
        :attr:`last_delete_mode` records the strategy used and
        :attr:`last_delete_stats` the work it did.

        Returns the updated :attr:`result`.
        """
        base, updates = self._coerce_updates(predicate, rows)
        present: List[tuple] = []
        seen: set = set()
        for key, _ in updates:
            if key not in seen:
                seen.add(key)
                if key in base._rows:
                    present.append(key)
        idb = self.program.idb_predicates
        idb_rows = sum(len(self._engine.stores[p].rows) for p in idb)
        if not present:
            # Mirrors merge_delta's zero handling: deleting what is absent
            # leaves the maintained engine untouched.
            self._record_delete("noop", 0, 0, 0, idb_rows)
            return self.result
        with _trace.span(
            "incremental.delete", predicate=predicate, deletes=len(present)
        ) as sp:
            work = self._delete(predicate, base, present)
            sp.set(**self._record_delete(*work, idb_rows))
        return self.result

    @property
    def last_delete_mode(self) -> str | None:
        """The strategy the last ``remove`` used (``last_delete_stats["mode"]``)."""
        return self.last_delete_stats and self.last_delete_stats["mode"]

    def _record_delete(
        self, mode: str, overdeleted: int, rederived: int, rounds: int, idb_rows: int
    ) -> Dict[str, Any]:
        self.last_delete_stats = {
            "mode": mode,
            "overdeleted": overdeleted,
            "rederived": rederived,
            "rounds": rounds,
            "idb_rows": idb_rows,
            "attained": mode == "dred" and self._engine._attains is not None,
        }
        return self.last_delete_stats

    def _delete(
        self, predicate: str, base: KRelation, present: List[tuple]
    ) -> Tuple[str, int, int, int]:
        """Delete the row keys ``present``; return ``(mode, overdeleted,
        rederived, rounds)``."""
        if self._idempotent:
            changelog = self._engine.begin_changelog()
            try:
                work = self._engine.delete_edb(predicate, present, self.max_iterations)
            except DivergenceError:
                # The rederive drain exhausted its budget mid-merge; the
                # engine state is no longer trustworthy, so fall back to the
                # last-resort full rebuild from the updated database.
                stored = base._annotations
                for key in present:
                    stored.pop(key, None)
                self._start_engine()
                return ("rebuild", 0, 0, self._rounds)
            finally:
                self._engine.end_changelog()
            self._rounds += work[2]
            self._patch_result(changelog)
            return ("dred", *work)
        # Collect mode.  Check the provenance license before the deleted
        # annotations leave the database.
        specializer = None
        old_result = self._result
        if old_result is not None and not old_result.divergent_atoms:
            specializer = self._provenance_specializer(predicate, base, present)
        stored = base._annotations
        for key in present:
            stored.pop(key, None)
        overdeleted, rederived, dead = self._engine.delete_support(predicate, present)
        if specializer is not None:
            # Every surviving atom's polynomial factors through the
            # deleted facts' variables; setting them to zero is a semiring
            # homomorphism, so patching the cached annotations is exact --
            # no rule refires, no re-solve.
            self._result = DatalogResult(
                annotations={
                    atom: specializer(value)
                    for atom, value in old_result.annotations.items()
                    if atom not in dead
                },
                iterations=self._rounds,
                divergent_atoms=frozenset(),
                ground=self._engine.ground_program(),
            )
            return ("provenance", overdeleted, rederived, 0)
        self._result = None
        return ("dred", overdeleted, rederived, 0)

    def _provenance_specializer(
        self, predicate: str, base: KRelation, present: List[tuple]
    ):
        """A function patching pre-delete annotations to post-delete ones.

        Licensed when every deleted fact's annotation is a *bare provenance
        variable* (``N[X]`` or ``Z[X]``) that no surviving EDB fact mentions:
        those variables then tag exactly the derivations the deleted facts
        support, and specializing them to zero (the evaluation homomorphism
        ``v -> 0``) computes the exact new annotation of every surviving atom
        -- the paper's specialization machinery turned on its own maintenance
        problem.  Returns ``None`` when the license does not hold.
        """
        from repro.semirings.integers import ZPolynomial
        from repro.semirings.polynomial import Polynomial

        deleted_vars: set = set()
        for key in present:
            value = base._rows[key]
            if not isinstance(value, (Polynomial, ZPolynomial)):
                return None
            terms = value.terms
            if len(terms) != 1:
                return None
            monomial, coefficient = terms[0]
            if coefficient != 1:
                return None
            powers = monomial.powers
            if len(powers) != 1 or powers[0][1] != 1:
                return None
            deleted_vars.add(powers[0][0])
        deleted = set(present)
        for name, relation in self._engine._edb.items():
            for key, value in relation._rows.items():
                if name == predicate and key in deleted:
                    continue
                if not isinstance(value, (Polynomial, ZPolynomial)):
                    return None
                if value.variables & deleted_vars:
                    return None
        frozen = frozenset(deleted_vars)
        return lambda value: value.drop_variables(frozen)

    def apply(self, batch: "UpdateBatch | Mapping[str, Any]") -> DatalogResult:
        """Apply a mixed :class:`~repro.incremental.delta.UpdateBatch`.

        Deletions apply first, then insertions, matching
        :func:`~repro.incremental.delta.apply_batch_to_database` semantics.
        """
        batch = UpdateBatch.of(batch)
        for predicate in sorted(batch.deletions):
            rows = batch.deletions[predicate]
            if rows:
                self.remove(predicate, rows)
        for predicate in sorted(batch.insertions):
            entries = batch.insertions[predicate]
            if entries:
                self.insert(predicate, entries)
        return self.result

    # -- invariants --------------------------------------------------------------
    def check_consistency(self) -> None:
        """Verify the maintained stores, indexes and array state.

        Every maintained store must satisfy the stored-zero invariant, the
        row lists must cover exactly the stored supports, the Boolean EDB
        stores of collect mode must hold the database's supports, every
        binding index (and the removal position map) must mirror the row
        list, and so must the array-resident state when the engine holds
        one.  Raises :class:`~repro.errors.DatalogError` on any mismatch.
        """
        engine = self._engine
        for name, store in engine.stores.items():
            store.relation.check_consistency()
            rows = set(store.rows)
            known = set(store.relation._rows)
            if rows != known:
                raise DatalogError(
                    f"store rows for {name!r} are out of sync with its relation "
                    f"({len(rows)} rows, {len(known)} annotations)"
                )
            problem = store.audit()
            if problem:
                raise DatalogError(f"store for {name!r}: {problem}")
            if not self._idempotent and name in self.program.edb_predicates:
                support = set(self.database.relation(name)._rows)
                if known != support:
                    raise DatalogError(
                        f"boolean support of {name!r} diverged from the database "
                        f"({len(known)} maintained, {len(support)} in the database)"
                    )
        problem = engine._arrays and engine._arrays.audit()
        if problem:
            raise DatalogError(f"array state: {problem}")
