"""Semi-naive, delta-driven datalog evaluation (``engine="seminaive"``).

The naive engine of :mod:`repro.datalog.fixpoint` first *grounds* the whole
program (enumerating every rule instantiation from scratch in every round of
a Boolean pre-fixpoint) and then Kleene-iterates the immediate-consequence
operator over all ground rules until nothing changes.  Both steps redo work
proportional to everything derived so far.  This module evaluates rules
directly against :class:`~repro.relations.krelation.KRelation`s instead:

* every rule is compiled once into a set of **join plans** -- one *seed*
  plan for rules whose body is entirely extensional and one *delta variant*
  per intensional body occurrence -- with a fixed greedy atom order and, for
  each non-driver atom, the tuple of positions that are bound when the atom
  is matched;
* every predicate keeps **variable-binding hash indexes** on exactly the
  position sets its plans probe; indexes are built once and maintained
  incrementally as new tuples are derived, so they are reused across rounds;
* each round fires only the plan variants whose **driver** is a delta atom
  (a tuple whose annotation changed in the previous round), accumulating the
  new contributions into the stored relations via
  :meth:`~repro.relations.krelation.KRelation.merge_delta`.

Exactness
---------
For semirings with **idempotent addition** the accumulated values form a
monotone chain squeezed between the Kleene iterates and the least fixpoint,
so the engine converges to exactly the annotations of Definition 5.1 --
re-adding a contribution that was already absorbed is harmless when
``a + a = a``.

For **non-idempotent** semirings (``N``, ``N[X]``, circuits, power series)
accumulation would double-count, and exact values exist only for atoms with
finitely many derivation trees.  The engine therefore runs its delta-driven
machinery once in *collect* mode over the Boolean support -- deriving every
fact and recording every rule instantiation, which is the instantiation the
naive engine computes far more expensively -- then reuses the existing
cycle/finiteness analysis of :class:`~repro.datalog.grounding.GroundProgram`
(``atoms_with_infinite_derivations``, exactly as the naive engine and
All-Trees do) and evaluates the acyclic remainder in a **single topological
pass**.  Divergent atoms are handled identically to the naive engine:
``on_divergence="top"`` pins them to the semiring's top element (raising
:class:`~repro.errors.DivergenceError` when there is none), ``"error"``
always raises, and ``"skip"`` drops them while keeping the exact annotations
of the convergent atoms.

Array-resident rounds
---------------------
With columnar IDB stores, vector arithmetic for the (idempotent) semiring and
a program whose every plan is a copy or a single bind-only equi-join -- linear
and quadratic transitive closure, reachability, shortest path -- the same
loop runs on :class:`repro.datalog.arraystore.ArrayState` instead: delta,
totals and the merge stay in code arrays and the stores below are written by
one flush when the loop ends.  Nothing selects it; the engine reads storage
kind, semiring and plan shapes, and anything else (``round_declined`` says
what) runs the row loop described above, which is also the only protocol
(``_fire`` / ``_merge`` over dicts) the parallel coordinator speaks.

The result is a :class:`~repro.datalog.fixpoint.DatalogResult` that agrees
annotation-for-annotation with the naive engine (the differential
property-test suite in ``tests/datalog/test_seminaive_vs_naive.py`` checks
this on randomized programs over every shipped semiring).  For idempotent
semirings the result's ``ground`` carries the derivable atoms and EDB
annotations but **no rule instantiations** -- never materializing them is
where the speed comes from (see ``benchmarks/bench_seminaive.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.datalog.arraystore import ArrayState, Declined, Recipe
from repro.engine import vectorized as _vectorized
from repro.engine.kernels import combine_contributions
from repro.errors import DatalogError, DivergenceError
from repro.obs import trace as _trace
from repro.datalog.fixpoint import (
    DEFAULT_MAX_ITERATIONS,
    DatalogResult,
    classify_divergence,
    immediate_consequence,
)
from repro.datalog.grounding import (
    GroundAtom,
    GroundProgram,
    GroundRule,
    collect_edb_annotations,
)
from repro.datalog.syntax import Program, Rule
from repro.logic import Constant, Variable
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring
from repro.semirings.boolean import BooleanSemiring

__all__ = ["evaluate_program_seminaive", "solve_ground_seminaive"]

# Post-match opcodes: bind a slot / check against a slot / check a constant.
_BIND, _CHECK_SLOT, _CHECK_CONST = 0, 1, 2


class _AtomStep:
    """Compiled matcher for one body atom at a fixed point of a join plan.

    ``key_positions``/``key_parts`` describe the index probe (positions whose
    value is already determined when the atom is reached: constants and
    variables bound by earlier atoms); ``post`` lists what to do with the
    remaining positions of a candidate tuple.  The driver atom of a plan has
    an empty key -- it is iterated, not probed.
    """

    __slots__ = ("predicate", "orig_index", "key_positions", "key_parts", "post")

    def __init__(
        self,
        predicate: str,
        orig_index: int,
        key_positions: Tuple[int, ...],
        key_parts: Tuple[Tuple[bool, Any], ...],
        post: Tuple[Tuple[int, int, Any], ...],
    ):
        self.predicate = predicate
        self.orig_index = orig_index
        self.key_positions = key_positions
        self.key_parts = key_parts  # (is_slot, slot-or-constant) per key position
        self.post = post  # (position, opcode, slot-or-constant)

    def match(self, values: Sequence[Any], env: List[Any]) -> bool:
        """Bind/check the non-key positions of a candidate tuple."""
        for position, opcode, payload in self.post:
            value = values[position]
            if opcode == _BIND:
                env[payload] = value
            elif opcode == _CHECK_SLOT:
                if env[payload] != value:
                    return False
            elif payload != value:
                return False
        return True


class _Plan:
    """A compiled evaluation order for one rule with a designated driver atom."""

    __slots__ = ("rule_index", "driver", "steps", "head_relation", "head_parts", "n_slots", "body_predicates")

    def __init__(
        self,
        rule_index: int,
        driver: _AtomStep,
        steps: Tuple[_AtomStep, ...],
        head_relation: str,
        head_parts: Tuple[Tuple[bool, Any], ...],
        n_slots: int,
        body_predicates: Tuple[str, ...],
    ):
        self.rule_index = rule_index
        self.driver = driver
        self.steps = steps  # non-driver atoms, in join order
        self.head_relation = head_relation
        self.head_parts = head_parts  # (is_slot, slot-or-constant) per head position
        self.n_slots = n_slots
        self.body_predicates = body_predicates  # original body order


def _compile_plan(
    rule: Rule,
    rule_index: int,
    driver_index: int | None,
    sizes: Dict[str, int] | None = None,
) -> _Plan:
    """Compile ``rule`` with ``body[driver_index]`` as the iterated driver.

    ``driver_index=None`` compiles the **head-driven** variant used by the
    deletion rederive pass: no atom is iterated (``plan.driver`` is None),
    the head's variables are treated as already bound, and every body atom
    becomes an indexed probe step -- evaluating the plan for one bound head
    is one application of the rule's immediate-consequence operator
    restricted to that single atom.

    The remaining atoms are ordered greedily by estimated selectivity: first
    by how many of their positions are determined (constants + already-bound
    variables) so index probes are as selective as possible, then -- among
    equally-bound candidates -- by the EDB cardinalities in ``sizes``, so
    smaller relations are probed first and dead bindings are pruned before
    the large relations are touched (predicates without statistics, i.e.
    IDB stores whose eventual size is unknown, sort last).  The order, and
    with it every index key, is fixed at compile time and reused for every
    round of every evaluation.
    """
    sizes = sizes or {}

    def estimated_size(predicate: str) -> float:
        return float(sizes.get(predicate, float("inf")))
    slots: Dict[str, int] = {}
    for variable in sorted(rule.variables, key=lambda v: v.name):
        slots[variable.name] = len(slots)

    def build_step(index: int, bound: Set[str]) -> _AtomStep:
        atom = rule.body[index]
        key_positions: List[int] = []
        key_parts: List[Tuple[bool, Any]] = []
        post: List[Tuple[int, int, Any]] = []
        seen_here: Set[str] = set()
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                key_positions.append(position)
                key_parts.append((False, term.value))
            elif term.name in bound:
                key_positions.append(position)
                key_parts.append((True, slots[term.name]))
            elif term.name in seen_here:
                post.append((position, _CHECK_SLOT, slots[term.name]))
            else:
                seen_here.add(term.name)
                post.append((position, _BIND, slots[term.name]))
        return _AtomStep(
            atom.relation, index, tuple(key_positions), tuple(key_parts), tuple(post)
        )

    def build_driver(index: int) -> _AtomStep:
        atom = rule.body[index]
        post: List[Tuple[int, int, Any]] = []
        seen_here: Set[str] = set()
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                post.append((position, _CHECK_CONST, term.value))
            elif term.name in seen_here:
                post.append((position, _CHECK_SLOT, slots[term.name]))
            else:
                seen_here.add(term.name)
                post.append((position, _BIND, slots[term.name]))
        return _AtomStep(atom.relation, index, (), (), tuple(post))

    def determinable(index: int, bound: Set[str]) -> int:
        return sum(
            1
            for term in rule.body[index].terms
            if isinstance(term, Constant) or term.name in bound
        )

    if driver_index is None:
        driver = None
        bound = {v.name for v in rule.head.variables}
        remaining = list(range(len(rule.body)))
    else:
        driver = build_driver(driver_index)
        bound = {v.name for v in rule.body[driver_index].variables}
        remaining = [i for i in range(len(rule.body)) if i != driver_index]
    steps: List[_AtomStep] = []
    while remaining:
        best = max(
            remaining,
            key=lambda i: (
                determinable(i, bound),
                -estimated_size(rule.body[i].relation),
                -i,
            ),
        )
        remaining.remove(best)
        steps.append(build_step(best, bound))
        bound |= {v.name for v in rule.body[best].variables}

    head_parts: List[Tuple[bool, Any]] = []
    for term in rule.head.terms:
        if isinstance(term, Constant):
            head_parts.append((False, term.value))
        else:
            head_parts.append((True, slots[term.name]))

    return _Plan(
        rule_index,
        driver,
        tuple(steps),
        rule.head.relation,
        tuple(head_parts),
        len(slots),
        tuple(atom.relation for atom in rule.body),
    )


def _array_recipe(plan: _Plan) -> Recipe | None:
    """How ``plan`` fires on code arrays, or ``None`` when it cannot.

    It can when the plan is a copy (no non-driver atom) or a single
    equi-join, driver and probed atom bind fresh distinct variables only (no
    constants, no repeated variables -- those compile to ``_CHECK_*``
    opcodes), the probe key references driver-bound slots only and every
    head position is a bound variable.  This covers the recursion shapes
    (linear and quadratic transitive closure, reachability, shortest path)
    that dominate the fixpoint rounds.
    """
    if len(plan.steps) > 1:
        return None
    driver = plan.driver
    step = plan.steps[0] if plan.steps else None
    atoms = (driver,) if step is None else (driver, step)
    if any(opcode != _BIND for atom in atoms for _, opcode, _ in atom.post):
        return None
    driver_positions = {payload: position for position, _, payload in driver.post}
    step_positions: Dict[int, int] = {}
    probe_key: List[int] = []
    if step is not None:
        step_positions = {payload: position for position, _, payload in step.post}
        for is_slot, payload in step.key_parts:
            if not is_slot:
                return None
            probe_key.append(driver_positions[payload])
    head = []
    for is_slot, payload in plan.head_parts:
        if not is_slot:
            return None
        if payload in driver_positions:
            head.append(("p", driver_positions[payload]))
        else:
            head.append(("b", step_positions[payload]))
    return Recipe(
        target=plan.head_relation,
        driver=driver.predicate,
        step=step and step.predicate,
        probe_key=tuple(probe_key),
        build_key=step.key_positions if step else (),
        head=tuple(head),
    )


class _Store:
    """A predicate's facts: the backing KRelation plus positional-row indexes.

    ``rows`` caches each tuple's values in schema order; ``indexes`` maps a
    tuple of positions to a hash index over those positions.  Indexes are
    created once per (plan, atom) binding pattern and maintained
    incrementally -- annotation updates never touch them, only genuinely new
    tuples are inserted.
    """

    __slots__ = ("relation", "attributes", "rows", "indexes", "sorted_spec", "_positions")

    def __init__(self, relation: KRelation):
        self.relation = relation
        self.attributes = relation.schema.attributes
        self.rows: List[Tuple[tuple, Tup]] = [
            (tup.values_for(self.attributes), tup) for tup in relation
        ]
        self.indexes: Dict[Tuple[int, ...], Dict[tuple, list]] = {}
        #: ``(attribute, row position)`` pairs in sorted-attribute order:
        #: turns a positional row into a canonical Tup's sorted item list
        #: without re-sorting per tuple (see ``_SemiNaiveEngine._merge``).
        self.sorted_spec: Tuple[Tuple[str, int], ...] = tuple(
            sorted((a, i) for i, a in enumerate(self.attributes))
        )
        # Lazy Tup -> position map, built on the first removal only so
        # insert-only runs pay nothing for deletion support.
        self._positions: Dict[Tup, int] | None = None

    def _grouped(self, positions: Tuple[int, ...]) -> Dict[tuple, list]:
        """The rows bucketed by their values at ``positions``."""
        index: Dict[tuple, list] = {}
        for row in self.rows:
            index.setdefault(tuple(row[0][p] for p in positions), []).append(row)
        return index

    def tup_for(self, values: tuple) -> Tup:
        """The canonical tuple of a positional ``values`` row."""
        return Tup._from_sorted_items(
            tuple((a, values[i]) for a, i in self.sorted_spec)
        )

    def ensure_index(self, positions: Tuple[int, ...]) -> None:
        if positions not in self.indexes:
            self.indexes[positions] = self._grouped(positions)

    def extend(self, rows: Sequence[Tuple[tuple, Tup]]) -> None:
        """Append new ``(values, tup)`` rows and hook them into every index."""
        if self._positions is not None:
            base = len(self.rows)
            for offset, (_, tup) in enumerate(rows):
                self._positions[tup] = base + offset
        self.rows.extend(rows)
        for positions, index in self.indexes.items():
            for row in rows:
                key = tuple(row[0][p] for p in positions)
                index.setdefault(key, []).append(row)

    def remove(self, tup: Tup) -> tuple | None:
        """Drop ``tup``'s row (swap-with-last) and unhook it from every index.

        Returns the removed row's values, or ``None`` when the tuple is not
        stored.  The caller is responsible for the backing relation's
        annotation (see ``_SemiNaiveEngine._remove_rows``).
        """
        if self._positions is None:
            self._positions = {tup_: i for i, (_, tup_) in enumerate(self.rows)}
        position = self._positions.pop(tup, None)
        if position is None:
            return None
        row = self.rows[position]
        values = row[0]
        last = len(self.rows) - 1
        if position != last:
            moved = self.rows[last]
            self.rows[position] = moved
            self._positions[moved[1]] = position
        self.rows.pop()
        for positions, index in self.indexes.items():
            key = tuple(values[p] for p in positions)
            bucket = index[key]
            # Buckets hold the row objects themselves: found by identity,
            # every other candidate differs in its (C-compared) values.
            bucket.remove(row)
            if not bucket:
                del index[key]
        return values

    def audit(self) -> str | None:
        """Describe the first way the derived structures disagree with ``rows``.

        Rows must be distinct and hold their tuple's values, every index must
        equal the rows grouped by its key positions (no stale, missing or
        duplicated entries) and the lazy position map must invert the row
        list -- what swap-removal next to surviving rows could break.
        """
        tups = [tup for _, tup in self.rows]
        if len(set(tups)) != len(tups):
            return "a tuple is stored in more than one row"
        for values, tup in self.rows:
            if values != tup.values_for(self.attributes):
                return f"row values {values!r} are not those of {tup!r}"
        for positions, index in self.indexes.items():
            expected = self._grouped(positions)
            for key in index.keys() | expected.keys():
                bucket, rows = index.get(key, ()), expected.get(key, ())
                if len(bucket) != len(rows) or set(bucket) != set(rows):
                    return f"index {positions} drifted from the rows at key {key!r}"
        if self._positions is not None and self._positions != {
            tup: i for i, tup in enumerate(tups)
        }:
            return "the tuple -> row position map drifted from the rows"
        return None


def _idb_schema(program: Program, database: Database, predicate: str) -> Schema:
    """Schema for an IDB predicate's store (mirrors DatalogResult.relation)."""
    if predicate in database:
        return database.relation(predicate).schema
    names = program.head_attributes(predicate)
    return Schema(names or [f"c{i + 1}" for i in range(program.arity(predicate))])


class _SemiNaiveEngine:
    """The delta-driven evaluation loop shared by both annotation modes.

    ``collect=False`` accumulates semiring annotations (exact for idempotent
    addition); ``collect=True`` runs over the Boolean support and records
    every fired rule instantiation, producing the grounded program the
    non-idempotent solver feeds to the finiteness analysis.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        *,
        collect: bool,
        maintain_edb: bool = False,
        storage: Any = None,
    ):
        self.program = program
        self.database = database
        self.collect = collect
        self.maintain_edb = maintain_edb
        self.semiring: Semiring = BooleanSemiring() if collect else database.semiring
        # The attained-support bound on ``delete_edb``'s over-delete: licensed
        # by a selective ``+`` whose ``may_attain`` can tell contributions
        # apart.  The default hook (B) accepts even a zero summand of ``1``, so
        # there -- as without the flag -- the traversal stays arithmetic-free.
        semiring = self.semiring
        self._attains = None
        if semiring.selective_add and not semiring.may_attain(
            semiring.one(), semiring.zero()
        ):
            self._attains = semiring.may_attain
        self.edb_annotations = collect_edb_annotations(program, database)
        self.instantiations: Set[Tuple[int, GroundAtom, Tuple[GroundAtom, ...]]] = set()

        from repro.engine.compile import resolve_execution_storage

        #: Physical backend for the IDB stores (explicit > env > database).
        self.storage_kind = resolve_execution_storage(storage, database)
        #: Which loop ran last -- ``"array"`` (:mod:`repro.datalog.arraystore`)
        #: or ``"rows"`` -- and why the array loop is not available:
        #: ``"semiring"`` (collect mode, a non-idempotent ``+``, no vector
        #: arithmetic or no numpy), ``"storage"`` (row IDB stores), ``"plan"``
        #: (a plan without an array recipe) or, found on this instance when
        #: the state was built, ``"value"`` (an annotation that does not lift)
        #: and ``"radix"`` (row codes would leave ``int64``).  The
        #: ``datalog.seed`` span carries the same two values.
        self.round_path = "rows"
        self.round_declined: str | None = None
        # Annotate mode over an idempotent ``+`` only: collect mode records
        # individual instantiations, and the idempotent carriers (float
        # min/max, bool) are the ones whose vector arithmetic has no overflow
        # guard that could trip in the middle of a run.
        self._vector_ops = (
            None
            if collect or not self.semiring.idempotent_add
            else _vectorized.vector_ops_for(self.semiring)
        )
        if self._vector_ops is None:
            self.round_declined = "semiring"
        elif self.storage_kind != "columnar":
            self.round_declined = "storage"
        self._recipes: Dict[int, Recipe] = {}
        self._arrays: ArrayState | None = None

        idb = program.idb_predicates
        self.stores: Dict[str, _Store] = {}
        # EDB cardinalities feed the selectivity-ordered join plans; IDB
        # predicates are absent (their eventual size is unknown at compile
        # time) and therefore sort last among equally-bound probe candidates.
        sizes: Dict[str, int] = {}
        for predicate in program.edb_predicates:
            relation = database.relation(predicate)
            sizes[predicate] = len(relation)
            if collect:
                relation = relation.map_annotations(lambda _: True, self.semiring)
            self.stores[predicate] = _Store(relation)
        for predicate in idb:
            schema = _idb_schema(program, database, predicate)
            self.stores[predicate] = _Store(
                KRelation(self.semiring, schema, storage=self.storage_kind)
            )

        # With ``maintain_edb`` the engine additionally compiles a delta
        # variant per EDB body occurrence, so an EDB insertion can later be
        # treated exactly like a derived delta: fire only the plans driven by
        # the changed predicate and resume the loop from the maintained
        # stores and indexes (see repro.incremental.datalog).
        self.seed_plans: List[_Plan] = []
        self.delta_plans: Dict[str, List[_Plan]] = {
            predicate: [] for predicate in (program.predicates if maintain_edb else idb)
        }
        for rule_index, rule in enumerate(program.rules):
            idb_positions = [
                i for i, atom in enumerate(rule.body) if atom.relation in idb
            ]
            if not idb_positions:
                # Choose the seed driver greedily too: most constants first,
                # then the smallest relation (fewest outer iterations).
                driver = max(
                    range(len(rule.body)),
                    key=lambda i: (
                        sum(isinstance(t, Constant) for t in rule.body[i].terms),
                        -float(sizes.get(rule.body[i].relation, float("inf"))),
                        -i,
                    ),
                )
                self.seed_plans.append(_compile_plan(rule, rule_index, driver, sizes))
                delta_positions = range(len(rule.body)) if maintain_edb else ()
            else:
                delta_positions = (
                    range(len(rule.body)) if maintain_edb else idb_positions
                )
            for position in delta_positions:
                plan = _compile_plan(rule, rule_index, position, sizes)
                self.delta_plans[rule.body[position].relation].append(plan)
        for plan in self.seed_plans + [p for ps in self.delta_plans.values() for p in ps]:
            for step in plan.steps:
                self.stores[step.predicate].ensure_index(step.key_positions)
            if self.round_declined is None:
                recipe = _array_recipe(plan)
                if recipe is None:
                    self.round_declined = "plan"
                else:
                    self._recipes[id(plan)] = recipe
        # Head-driven plans for the deletion rederive pass, compiled lazily
        # on the first delete so insert-only maintenance pays nothing.
        self._sizes = sizes
        self._rederive_plans: Dict[str, List[_Plan]] | None = None
        # Optional per-update change tracking (see begin_changelog): callers
        # maintaining a cached result patch it from the changed tuples
        # instead of rescanning every store after each update.
        self.changelog: Dict[str, Set[Tup]] | None = None

    # -- change tracking --------------------------------------------------------
    def begin_changelog(self) -> Dict[str, Set[Tup]]:
        """Start recording which stored tuples the next updates touch.

        Every tuple whose stored annotation changes -- merged, re-derived or
        removed -- is added to the returned ``predicate -> tuples`` map until
        :meth:`end_changelog`.  A recorded tuple may end up unchanged on the
        net (removed then re-derived to the same value); readers must consult
        the store for the tuple's current state rather than assume a delta.
        """
        self.changelog = {}
        return self.changelog

    def end_changelog(self) -> None:
        self.changelog = None

    def _log_changes(self, predicate: str, tups: Iterable[Tup]) -> None:
        log = self.changelog
        if log is not None:
            log.setdefault(predicate, set()).update(tups)

    # -- one plan, one batch of driver rows -----------------------------------
    def _fire(
        self,
        plan: _Plan,
        driver_rows: Sequence[Tuple[tuple, Tup]],
        out,
        driver_annotations=None,
    ) -> None:
        """Fire ``plan`` for ``driver_rows``, emitting contributions into ``out``.

        ``driver_annotations`` overrides the driver predicate's stored
        annotation map -- the partition-parallel workers ship delta rows
        together with their annotations instead of replicating the parent's
        IDB stores, so the rows may be absent from this engine's own store.
        """
        semiring = self.semiring
        mul = semiring.mul
        stores = self.stores
        steps = plan.steps
        depth = len(steps)
        env: List[Any] = [None] * plan.n_slots
        collect = self.collect
        body_values: List[tuple] = [()] * len(plan.body_predicates)
        driver = plan.driver
        if driver_annotations is None:
            driver_annotations = stores[driver.predicate].relation._annotations
        head_parts = plan.head_parts
        emit = out[plan.head_relation]

        def descend(level: int, annotation: Any) -> None:
            if level == depth:
                head = tuple(
                    env[payload] if is_slot else payload
                    for is_slot, payload in head_parts
                )
                if collect:
                    self.instantiations.add(
                        (
                            plan.rule_index,
                            GroundAtom(plan.head_relation, head),
                            tuple(
                                GroundAtom(predicate, body_values[i])
                                for i, predicate in enumerate(plan.body_predicates)
                            ),
                        )
                    )
                    emit[head] = True
                else:
                    # Batched accumulation (shared with the physical engine):
                    # contributions are collected per head tuple and combined
                    # with one +-chain in ``_merge``, instead of a semiring
                    # ``add`` per derivation here.
                    batch = emit.get(head)
                    if batch is None:
                        emit[head] = [annotation]
                    else:
                        batch.append(annotation)
                return
            step = steps[level]
            store = stores[step.predicate]
            key = tuple(
                env[payload] if is_slot else payload
                for is_slot, payload in step.key_parts
            )
            bucket = store.indexes[step.key_positions].get(key)
            if not bucket:
                return
            annotations = store.relation._annotations
            for values, tup in bucket:
                if step.match(values, env):
                    if collect:
                        body_values[step.orig_index] = values
                        descend(level + 1, annotation)
                    else:
                        descend(level + 1, mul(annotation, annotations[tup]))

        for values, tup in driver_rows:
            if driver.match(values, env):
                if collect:
                    body_values[driver.orig_index] = values
                    descend(0, True)
                else:
                    descend(0, driver_annotations[tup])

    # -- the delta loop ---------------------------------------------------------
    @contextmanager
    def _array_loop(self) -> Iterator[ArrayState | None]:
        """The array state one loop runs on, or ``None`` for the row loop.

        The state is built lazily from the stores' rows -- at the first loop,
        and again after something outside a loop dropped it -- and declined
        for good (``round_declined``) when this instance does not fit.  What
        the loop derives reaches the stores in one flush when the block ends,
        also when it ends in a :class:`DivergenceError`: the stores then hold
        the state reached, exactly like the row loop's.
        """
        if self._arrays is None and self.round_declined is None:
            try:
                self._arrays = ArrayState(self._vector_ops, self.stores, self._recipes)
            except Declined as declined:
                self.round_declined = declined.reason
        arrays = self._arrays
        self.round_path = "rows" if arrays is None else "array"
        try:
            yield arrays
        finally:
            if arrays is not None:
                arrays.flush(self._log_changes)

    def _fresh(self) -> Dict[str, Dict[tuple, Any]]:
        return {predicate: {} for predicate in self.program.idb_predicates}

    def _step(self, work: Iterable[Tuple[_Plan, Any]], arrays: ArrayState | None):
        """Fire ``(plan, driver rows)`` pairs, then merge: the next delta.

        Rows are ``(values, tup)`` lists on the row loop and position arrays
        into ``arrays`` on the array loop; so is the returned delta.
        """
        if arrays is None:
            fire, merge, out = self._fire, self._merge, self._fresh()
        else:
            fire, merge, out = arrays.fire, arrays.merge, {}
        for plan, rows in work:
            if len(rows):
                fire(plan, rows, out)
        return merge(out)

    def _round(self, delta: Dict[str, Any], arrays: ArrayState | None):
        """Fire every plan driven by a predicate of ``delta``; the next delta."""
        return self._step(
            [
                (plan, rows)
                for predicate, rows in delta.items()
                for plan in self.delta_plans.get(predicate, ())
            ],
            arrays,
        )

    def run(self, max_iterations: int) -> int:
        """Seed, then fire delta variants until a round changes nothing.

        Returns the number of rounds executed (the seed round counts, and so
        does the final round that merges an empty delta).
        """
        with self._array_loop() as arrays:
            with _trace.span(
                "datalog.seed",
                mode="collect" if self.collect else "annotate",
                plans=len(self.seed_plans),
            ) as sp:
                drivers = [plan.driver.predicate for plan in self.seed_plans]
                if arrays is None:
                    rows = [self.stores[predicate].rows for predicate in drivers]
                else:
                    rows = [arrays.all_rows(predicate) for predicate in drivers]
                delta = self._step(zip(self.seed_plans, rows), arrays)
                if _trace.enabled():
                    sp.set(
                        delta_rows=sum(len(rows) for rows in delta.values()),
                        path=self.round_path,
                    )
                    if self.round_declined:
                        sp.set(declined=self.round_declined)
            return self._drain(delta, max_iterations, iterations=1, arrays=arrays)

    def _drain(
        self,
        delta: Dict[str, Any],
        max_iterations: int,
        *,
        iterations: int,
        arrays: ArrayState | None = None,
    ) -> int:
        """Fire delta variants until a round changes nothing; return the round count."""
        while any(len(rows) for rows in delta.values()):
            if iterations >= max_iterations:
                raise DivergenceError(
                    f"datalog evaluation over {self.database.semiring.name} did not "
                    f"converge within {max_iterations} iterations"
                )
            iterations += 1
            with _trace.span("datalog.round", round=iterations) as sp:
                if _trace.enabled():
                    sp.set(
                        delta_rows=sum(len(rows) for rows in delta.values()),
                        delta_predicates=sum(1 for rows in delta.values() if len(rows)),
                    )
                delta = self._round(delta, arrays)
        return iterations

    def apply_edb_delta(
        self,
        predicate: str,
        updates: List[Tuple[Tup, Any]],
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> int:
        """Merge EDB ``updates`` and resume the fixpoint from the stored state.

        ``updates`` are canonical ``(tup, value)`` pairs over ``predicate``'s
        schema; values combine into the stored annotations with the
        semiring's ``+`` (in collect mode the value is ignored -- support is
        all that matters).  Only the plans driven by the changed predicate
        fire, against the incrementally maintained stores and indexes, then
        the ordinary delta loop drains the consequences.  Requires
        ``maintain_edb=True``; returns the number of rounds executed.
        """
        if not self.maintain_edb:
            raise DatalogError(
                "engine was built without maintain_edb=True; "
                "EDB deltas cannot be applied incrementally"
            )
        store = self.stores[predicate]
        relation = store.relation
        if self.collect:
            updates = [(tup, True) for tup, _ in updates]
        known = relation._annotations
        new_tuples = {tup for tup, _ in updates if tup not in known}
        changed = relation.merge_delta(updates)
        self._log_changes(predicate, changed)
        rows = [(tup.values_for(store.attributes), tup) for tup in changed]
        new_rows = [row for row in rows if row[1] in new_tuples]
        store.extend(new_rows)
        if not rows:
            return 0
        # The array state mirrors appended facts; a rewritten annotation (or
        # facts it cannot take) drops it and the loop below rebuilds it.
        if self._arrays is not None and not (
            len(new_rows) == len(rows) and self._arrays.append(predicate, rows)
        ):
            self._arrays = None
        with self._array_loop() as arrays:
            if arrays is not None:
                rows = arrays.locate(predicate, rows)
            delta = self._round({predicate: rows}, arrays)
            return self._drain(delta, max_iterations, iterations=1, arrays=arrays)

    # -- deletion (DRed) --------------------------------------------------------
    def _remove_rows(self, predicate: str, rows: Sequence[Tuple[tuple, Tup]]) -> None:
        """Remove rows from a predicate's store *and* its backing relation."""
        if not rows:
            return
        store = self.stores[predicate]
        annotations = store.relation._annotations
        for _, tup in rows:
            store.remove(tup)
            annotations.pop(tup, None)
        self._log_changes(predicate, (tup for _, tup in rows))
        # Swap-removal reorders the rows the array state mirrors by position.
        self._arrays = None

    def _fire_heads(
        self,
        plan: _Plan,
        driver_rows: Sequence[Tuple[tuple, Tup]],
        affected: Dict[str, Set[tuple]],
    ) -> None:
        """Collect the head tuples ``plan`` dooms when ``driver_rows`` go.

        The over-deletion half of DRed.  Under a selective ``+``
        (``self._attains``) a head's stored annotation *is* one of its
        contributions, so the traversal carries the body product -- the
        stores still hold the pre-delete values while a round fires -- and
        dooms a head only when this contribution may be that attained one.
        Every other head keeps its value: none of its attaining derivations
        touches a doomed atom, and (induction on annotation value, then on
        derivation height, using ``a . b <= a``) neither do those of the
        atoms they use.  Ties doom, which covers zero-cost cycles.

        Without the bound all that matters is *which* heads a removed fact
        supports, and this is ``_fire`` without the arithmetic (or
        instantiation recording).
        """
        stores = self.stores
        steps = plan.steps
        depth = len(steps)
        env: List[Any] = [None] * plan.n_slots
        head_parts = plan.head_parts
        out = affected.setdefault(plan.head_relation, set())
        attains = self._attains
        mul = self.semiring.mul
        head_store = stores[plan.head_relation]
        head_known = head_store.relation._annotations

        # ``annotation``: the body product so far; None when ``attains`` is.
        def descend(level: int, annotation: Any) -> None:
            if level == depth:
                head = tuple(
                    env[payload] if is_slot else payload
                    for is_slot, payload in head_parts
                )
                if head in out:
                    return
                if attains:
                    stored = head_known.get(head_store.tup_for(head))
                    if stored is None or not attains(stored, annotation):
                        return
                out.add(head)
                return
            step = steps[level]
            store = stores[step.predicate]
            key = tuple(
                env[payload] if is_slot else payload
                for is_slot, payload in step.key_parts
            )
            bucket = store.indexes[step.key_positions].get(key)
            if not bucket:
                return
            annotations = store.relation._annotations
            for values, tup in bucket:
                if step.match(values, env):
                    descend(level + 1, attains and mul(annotation, annotations[tup]))

        driver = plan.driver
        driver_annotations = stores[driver.predicate].relation._annotations
        for values, tup in driver_rows:
            if driver.match(values, env):
                descend(0, attains and driver_annotations[tup])

    def _ensure_rederive_plans(self) -> None:
        if self._rederive_plans is not None:
            return
        plans: Dict[str, List[_Plan]] = {}
        for rule_index, rule in enumerate(self.program.rules):
            plan = _compile_plan(rule, rule_index, None, self._sizes)
            plans.setdefault(rule.head.relation, []).append(plan)
            for step in plan.steps:
                self.stores[step.predicate].ensure_index(step.key_positions)
        self._rederive_plans = plans

    def _rederive_value(self, predicate: str, values: tuple) -> Any:
        """One immediate-consequence application restricted to a single atom.

        Evaluates every head-driven plan of ``predicate`` with the head bound
        to ``values`` against the *current* stores, returning the combined
        annotation -- or ``None`` when no rule body matches (the atom has no
        derivation left and stays deleted).
        """
        contributions: List[Any] = []
        mul = self.semiring.mul
        stores = self.stores
        for plan in self._rederive_plans.get(predicate, ()):
            env: List[Any] = [None] * plan.n_slots
            bound_slots: Set[int] = set()
            ok = True
            for position, (is_slot, payload) in enumerate(plan.head_parts):
                value = values[position]
                if is_slot:
                    if payload in bound_slots:
                        if env[payload] != value:
                            ok = False
                            break
                    else:
                        env[payload] = value
                        bound_slots.add(payload)
                elif payload != value:
                    ok = False
                    break
            if not ok:
                continue
            steps = plan.steps
            depth = len(steps)

            def descend(level: int, annotation: Any) -> None:
                if level == depth:
                    contributions.append(annotation)
                    return
                step = steps[level]
                store = stores[step.predicate]
                key = tuple(
                    env[payload] if is_slot else payload
                    for is_slot, payload in step.key_parts
                )
                bucket = store.indexes[step.key_positions].get(key)
                if not bucket:
                    return
                annotations = store.relation._annotations
                for row_values, tup in bucket:
                    if step.match(row_values, env):
                        descend(level + 1, mul(annotation, annotations[tup]))

            descend(0, self.semiring.one())
        if not contributions:
            return None
        return combine_contributions(self.semiring, contributions)

    def delete_edb(
        self,
        predicate: str,
        tuples: Sequence[Tup],
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> Tuple[int, int, int]:
        """DRed deletion of EDB facts in annotate (idempotent) mode.

        Over-deletes what the removed facts transitively support -- under a
        selective ``+`` only the atoms whose annotation is attained through
        them (:meth:`_fire_heads`), otherwise everything; per round, the
        maintained delta plans fire with the round's doomed rows as drivers
        *before* those rows leave the stores, so derivations whose body
        contains several co-deleted atoms are still caught -- then
        re-derives the survivors: each over-deleted atom is re-seeded by a
        head-driven immediate-consequence evaluation over the shrunk stores
        and the ordinary delta loop drains the consequences.  Exact for
        idempotent addition by the usual semi-naive argument (every atom
        left in place keeps its annotation, and re-added contributions are
        absorbed).

        Returns ``(overdeleted, rederived, rounds)`` -- over-deleted and
        re-derived IDB row counts plus the total round count (over-delete
        rounds + rederive drain rounds).  Requires ``maintain_edb=True`` and
        annotate mode; collect mode deletes via :meth:`delete_support`.
        """
        if not self.maintain_edb:
            raise DatalogError(
                "engine was built without maintain_edb=True; "
                "EDB deletions cannot be applied incrementally"
            )
        if self.collect:
            raise DatalogError("delete_edb is annotate-mode only; use delete_support")
        store = self.stores[predicate]
        attributes = store.attributes
        known = store.relation._annotations
        rows = [
            (tup.values_for(attributes), tup) for tup in tuples if tup in known
        ]
        if not rows:
            return (0, 0, 0)
        for values, _ in rows:
            self.edb_annotations.pop(GroundAtom(predicate, values), None)

        # Phase 1: over-delete, one round per support layer.
        pending: Dict[str, List[Tuple[tuple, Tup]]] = {predicate: rows}
        removed: Dict[str, List[Tuple[tuple, Tup]]] = {}
        overdeleted = 0
        rounds = 0
        while pending:
            rounds += 1
            affected: Dict[str, Set[tuple]] = {}
            for pred, pending_rows in pending.items():
                for plan in self.delta_plans.get(pred, ()):
                    self._fire_heads(plan, pending_rows, affected)
            for pred, pending_rows in pending.items():
                self._remove_rows(pred, pending_rows)
            pending = {}
            for pred, heads in affected.items():
                head_store = self.stores[pred]
                head_known = head_store.relation._annotations
                next_rows = []
                for values in heads:
                    tup = head_store.tup_for(values)
                    if tup in head_known:
                        next_rows.append((values, tup))
                if next_rows:
                    pending[pred] = next_rows
                    removed.setdefault(pred, []).extend(next_rows)
                    overdeleted += len(next_rows)

        # Phase 2: re-derive survivors from their remaining derivations.
        self._ensure_rederive_plans()
        rederived = 0
        delta: Dict[str, List[Tuple[tuple, Tup]]] = {}
        for pred, removed_rows in removed.items():
            head_store = self.stores[pred]
            updates = []
            for values, tup in removed_rows:
                value = self._rederive_value(pred, values)
                if value is not None:
                    updates.append((tup, value))
            if not updates:
                continue
            changed = head_store.relation.merge_delta(updates)
            self._log_changes(pred, changed)
            new_rows = [
                (tup.values_for(head_store.attributes), tup) for tup in changed
            ]
            head_store.extend(new_rows)
            rederived += len(new_rows)
            delta[pred] = new_rows
        if any(delta.values()):
            # Phase 1 dropped the array state; it is rebuilt from the shrunk,
            # re-seeded stores and the drain resumes on it.
            with self._array_loop() as arrays:
                if arrays is not None:
                    delta = {p: arrays.locate(p, rows) for p, rows in delta.items()}
                rounds = self._drain(
                    delta, max_iterations, iterations=rounds, arrays=arrays
                )
        return (overdeleted, rederived, rounds)

    def delete_support(
        self, predicate: str, tuples: Sequence[Tup]
    ) -> Tuple[int, int, frozenset]:
        """DRed deletion on the instantiation graph, for collect mode.

        The maintained instantiation set records every fired rule
        application, so deletion never refires a join: over-deletion walks
        the instantiations that mention a removed atom in their body, and
        rederivation revives any over-deleted head that still has an
        instantiation whose body atoms are all alive -- classical
        delete/rederive, with the maintained grounding as the support graph.
        Exact because the shrunk database's instantiations are a subset of
        the fired ones.  Dead atoms leave the Boolean stores, the pruned
        instantiation set, and ``edb_annotations``; annotations re-solve
        lazily from the pruned grounding.

        Returns ``(overdeleted, rederived, dead_atoms)`` -- counts of IDB
        atoms over-deleted and revived, and the frozenset of ground atoms
        (deleted EDB facts plus dead IDB atoms) that left the support.
        """
        if not self.maintain_edb:
            raise DatalogError(
                "engine was built without maintain_edb=True; "
                "EDB deletions cannot be applied incrementally"
            )
        if not self.collect:
            raise DatalogError("delete_support is collect-mode only; use delete_edb")
        store = self.stores[predicate]
        attributes = store.attributes
        known = store.relation._annotations
        deleted_atoms: Set[GroundAtom] = set()
        for tup in tuples:
            if tup in known:
                atom = GroundAtom(predicate, tup.values_for(attributes))
                deleted_atoms.add(atom)
                self.edb_annotations.pop(atom, None)
        if not deleted_atoms:
            return (0, 0, frozenset())

        by_body: Dict[GroundAtom, List[Any]] = {}
        by_head: Dict[GroundAtom, List[Any]] = {}
        for inst in self.instantiations:
            by_head.setdefault(inst[1], []).append(inst)
            for atom in inst[2]:
                by_body.setdefault(atom, []).append(inst)

        # Over-delete: anything a removed atom (transitively) supports.
        removed: Set[GroundAtom] = set(deleted_atoms)
        overdeleted: Set[GroundAtom] = set()
        worklist = list(deleted_atoms)
        while worklist:
            atom = worklist.pop()
            for inst in by_body.get(atom, ()):
                head = inst[1]
                if head not in removed:
                    removed.add(head)
                    overdeleted.add(head)
                    worklist.append(head)

        # Re-derive: revive heads with a fully-alive instantiation left.
        def alive(inst) -> bool:
            return all(atom not in removed for atom in inst[2])

        rederived: Set[GroundAtom] = set()
        queue = [
            head
            for head in overdeleted
            if any(alive(inst) for inst in by_head.get(head, ()))
        ]
        while queue:
            head = queue.pop()
            if head not in removed:
                continue
            removed.discard(head)
            rederived.add(head)
            for inst in by_body.get(head, ()):
                candidate = inst[1]
                if (
                    candidate in removed
                    and candidate not in deleted_atoms
                    and alive(inst)
                ):
                    queue.append(candidate)

        # Prune the maintained grounding and the Boolean stores.
        self.instantiations = {
            inst
            for inst in self.instantiations
            if inst[1] not in removed and all(atom not in removed for atom in inst[2])
        }
        by_predicate: Dict[str, List[GroundAtom]] = {}
        for atom in removed:
            by_predicate.setdefault(atom.relation, []).append(atom)
        for pred, atoms in by_predicate.items():
            dead_store = self.stores[pred]
            dead_known = dead_store.relation._annotations
            rows = []
            for atom in atoms:
                tup = dead_store.tup_for(atom.values)
                if tup in dead_known:
                    rows.append((atom.values, tup))
            self._remove_rows(pred, rows)
        return (len(overdeleted), len(rederived), frozenset(removed))

    def _merge(self, out: Dict[str, Dict[tuple, Any]]) -> Dict[str, List[Tuple[tuple, Tup]]]:
        """Accumulate a round's contributions; return the delta rows per predicate.

        In annotation mode each head tuple's contribution batch is combined
        with one ``+``-chain (:func:`repro.engine.kernels.combine_contributions`)
        before it is merged into the store -- the same batched-accumulation
        kernel the physical engine's pipeline breaker uses.
        """
        semiring = self.semiring
        collect = self.collect
        delta: Dict[str, List[Tuple[tuple, Tup]]] = {}
        for predicate, contributions in out.items():
            store = self.stores[predicate]
            if not contributions:
                delta[predicate] = []
                continue
            relation = store.relation
            sorted_spec = store.sorted_spec
            from_sorted = Tup._from_sorted_items
            by_tup = {
                from_sorted(tuple((a, values[i]) for a, i in sorted_spec)): values
                for values in contributions
            }
            known = relation._annotations
            new_tuples = {tup for tup in by_tup if tup not in known}
            if collect:
                updates = ((tup, contributions[by_tup[tup]]) for tup in by_tup)
            else:
                updates = (
                    (tup, combine_contributions(semiring, contributions[by_tup[tup]]))
                    for tup in by_tup
                )
            changed = relation.merge_delta(updates)
            self._log_changes(predicate, changed)
            rows = [(by_tup[tup], tup) for tup in changed]
            store.extend([row for row in rows if row[1] in new_tuples])
            delta[predicate] = rows
        return delta

    # -- results ----------------------------------------------------------------
    def derivable_atoms(self) -> Set[GroundAtom]:
        known = set(self.edb_annotations)
        for predicate in self.program.idb_predicates:
            for values, _ in self.stores[predicate].rows:
                known.add(GroundAtom(predicate, values))
        return known

    def annotations(self) -> Dict[GroundAtom, Any]:
        values: Dict[GroundAtom, Any] = {}
        for predicate in self.program.idb_predicates:
            store = self.stores[predicate]
            annotations = store.relation._annotations
            for row_values, tup in store.rows:
                values[GroundAtom(predicate, row_values)] = annotations[tup]
        return values

    def ground_program(self) -> GroundProgram:
        """The instantiation recorded by a collect-mode run.

        Equivalent to :func:`repro.datalog.grounding.ground_program` -- every
        instantiation is fired at least once by the variant driven by its
        last-derived body atom -- but computed by indexed semi-naive joins
        instead of re-enumerating all matches in every Boolean round.
        """
        rules = [
            GroundRule(head, body, rule_index)
            for rule_index, head, body in sorted(
                self.instantiations,
                key=lambda entry: (
                    entry[0],
                    entry[1].relation,
                    tuple(map(str, entry[1].values)),
                    tuple(str(atom) for atom in entry[2]),
                ),
            )
        ]
        return GroundProgram(
            self.program,
            self.database,
            rules,
            self.edb_annotations,
            self.derivable_atoms(),
        )


def _run_engine(engine: "_SemiNaiveEngine", max_iterations: int, parallel: Any) -> int:
    """Run the fixpoint, partition-parallel when requested and possible.

    The parallel coordinator mutates the same engine through the same
    ``_merge`` discipline, so the stores end up identical either way; it
    returns ``None`` to decline (collect mode, a semiring outside the
    parallel whitelist, no remote-safe plan), in which case the ordinary
    serial loop runs on the still-untouched engine.
    """
    import os

    if parallel is not None or os.environ.get("REPRO_PARALLEL"):
        from repro.parallel import resolve_parallel

        resolved = resolve_parallel(parallel)
        if resolved:
            from repro.parallel.datalog import run_engine_parallel

            iterations = run_engine_parallel(
                engine, max_iterations=max_iterations, parallel=resolved
            )
            if iterations is not None:
                return iterations
    return engine.run(max_iterations)


def evaluate_program_seminaive(
    program: Program | str,
    database: Database,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    on_divergence: str = "top",
    storage: Any = None,
    parallel: Any = None,
) -> DatalogResult:
    """Semi-naive counterpart of :func:`repro.datalog.fixpoint.evaluate_program`.

    Same contract and same results; see the module docstring for how the two
    semiring regimes are handled.  Callers normally reach this through
    ``evaluate_program(..., engine="seminaive")``.

    ``parallel`` (an integer worker count, ``True``, an executor, or
    ``None`` deferring to ``REPRO_PARALLEL``) runs the annotate-mode rounds
    partition-parallel (:mod:`repro.parallel.datalog`); collect-mode runs
    and semirings without a canonical picklable carrier decline to the
    serial loop and the result is identical either way.
    """
    if on_divergence not in ("top", "error", "skip"):
        raise ValueError(
            f"on_divergence must be 'top', 'error' or 'skip', got {on_divergence!r}"
        )
    if isinstance(program, str):
        program = Program.parse(program)
    semiring = database.semiring

    if semiring.idempotent_add:
        engine = _SemiNaiveEngine(program, database, collect=False, storage=storage)
        iterations = _run_engine(engine, max_iterations, parallel)
        # The grounded instantiation was never materialized -- that is the
        # point -- so the result's ``ground`` carries no rule list.
        ground = GroundProgram(
            program,
            database,
            [],
            engine.edb_annotations,
            engine.derivable_atoms(),
        )
        return DatalogResult(
            annotations=engine.annotations(),
            iterations=iterations,
            divergent_atoms=frozenset(),
            ground=ground,
        )

    engine = _SemiNaiveEngine(program, database, collect=True, storage=storage)
    # The Boolean support fixpoint always terminates (finitely many ground
    # atoms), so the caller's iteration budget -- meant for the value
    # iteration -- does not apply here, matching the naive engine whose
    # grounding pre-pass is equally uncapped.  Collect mode records rule
    # instantiations and therefore always declines the parallel path.
    engine.run(max(max_iterations, DEFAULT_MAX_ITERATIONS))
    ground = engine.ground_program()
    return solve_ground_seminaive(
        ground,
        semiring,
        max_iterations=max_iterations,
        on_divergence=on_divergence,
    )


def solve_ground_seminaive(
    ground: GroundProgram,
    semiring: Semiring,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    on_divergence: str = "top",
) -> DatalogResult:
    """Semi-naive solver for an already-grounded program.

    The counterpart of :func:`repro.datalog.fixpoint.solve_ground`, used by
    the provenance paths (which re-annotate a shared grounding with circuit
    or polynomial variables).  Non-idempotent semirings are solved by one
    topological pass over the convergent (acyclic) atoms after the usual
    divergence analysis; idempotent semirings by rounds of a dependency-aware
    worklist that only recomputes atoms whose rule bodies changed.
    """
    divergent, finite = classify_divergence(ground, semiring, on_divergence)
    zero = semiring.zero()

    def recompute(atom: GroundAtom, values: Dict[GroundAtom, Any]) -> Any:
        # One application of T_q restricted to a single atom -- the same
        # operator (and code) the naive engine iterates over all atoms.
        return immediate_consequence(ground, semiring, values, atoms=(atom,))[atom]

    values: Dict[GroundAtom, Any] = {}
    if divergent and on_divergence == "top":
        top = semiring.top()
        for atom in divergent:
            values[atom] = top

    if not semiring.idempotent_add:
        # One pass in dependency order: every rule body of a convergent atom
        # only mentions EDB facts and convergent atoms evaluated earlier.
        for atom in _topological_order(ground, finite):
            values[atom] = recompute(atom, values)
        iterations = 1
    else:
        values.update({atom: zero for atom in finite})
        dependents: Dict[GroundAtom, Set[GroundAtom]] = {}
        for rule in ground.ground_rules:
            for body_atom in rule.body:
                if body_atom in finite:
                    dependents.setdefault(body_atom, set()).add(rule.head)
        dirty: Set[GroundAtom] = set(finite)
        iterations = 0
        while dirty:
            if iterations >= max_iterations:
                raise DivergenceError(
                    f"datalog evaluation over {semiring.name} did not converge within "
                    f"{max_iterations} iterations"
                )
            iterations += 1
            next_dirty: Set[GroundAtom] = set()
            for atom in dirty:
                updated = recompute(atom, values)
                if updated != values[atom]:
                    values[atom] = updated
                    next_dirty |= dependents.get(atom, set())
            dirty = next_dirty & finite

    return DatalogResult(
        annotations=values,
        iterations=iterations,
        divergent_atoms=divergent,
        ground=ground,
    )


def _topological_order(
    ground: GroundProgram, finite: Set[GroundAtom]
) -> List[GroundAtom]:
    """Kahn order of the finite IDB atoms under the grounded dependency graph."""
    dependents: Dict[GroundAtom, List[GroundAtom]] = {}
    in_degree: Dict[GroundAtom, int] = {atom: 0 for atom in finite}
    for atom in finite:
        seen: Set[GroundAtom] = set()
        for rule in ground.rules_with_head(atom):
            for body_atom in rule.body:
                if body_atom in finite and body_atom not in seen:
                    seen.add(body_atom)
                    dependents.setdefault(body_atom, []).append(atom)
                    in_degree[atom] += 1
    queue = [atom for atom, degree in in_degree.items() if degree == 0]
    order: List[GroundAtom] = []
    while queue:
        atom = queue.pop()
        order.append(atom)
        for dependent in dependents.get(atom, ()):
            in_degree[dependent] -= 1
            if in_degree[dependent] == 0:
                queue.append(dependent)
    if len(order) != len(finite):  # pragma: no cover - guarded by divergence analysis
        raise DivergenceError(
            "internal error: cycle among atoms classified as convergent"
        )
    return order
