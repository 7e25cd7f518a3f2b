"""Semi-naive, delta-driven datalog evaluation.

Rules are evaluated directly against
:class:`~repro.relations.krelation.KRelation`s:

* every rule is compiled once into **join plans** -- one *seed* plan for an
  all-extensional body, one *delta variant* per intensional body occurrence
  -- with a fixed greedy atom order and, per non-driver atom, the positions
  bound when it is matched;
* every predicate keeps **variable-binding hash indexes** on exactly the
  position sets its plans probe, maintained incrementally across rounds;
  a fact is its relation's row key (values in sorted-attribute order), and
  every position a plan names counts in that order, so the rounds store,
  probe and merge row keys with no conversion;
* each round fires only the variants whose **driver** is a delta atom (its
  annotation changed in the previous round) and merges the contributions
  with :meth:`~repro.relations.krelation.KRelation.merge_delta`'s row-key
  form, ``_merge_keys``.

For **idempotent** addition the accumulated values are squeezed between the
Kleene iterates and the least fixpoint, so they converge to exactly the
annotations of Definition 5.1 (re-adding an absorbed contribution is
harmless when ``a + a = a``).  With vector arithmetic and copy / single-join
plans only, the same loop runs on
:class:`repro.datalog.arraystore.ArrayState` (``round_path`` /
``round_declined`` say which loop ran, and maintenance keeps the state).
:func:`evaluate_program_seminaive` runs these loops for
:func:`repro.datalog.fixpoint.evaluate_program` over every idempotent
semiring; its result's ``ground`` carries no rule instantiations: never
recording them is where the speed comes from.

For **non-idempotent** addition accumulation would double-count.  The
engine runs once in *collect* mode over the Boolean support instead,
recording every rule instantiation as ``(rule index, head id, body ids)``
over atom ids interned in discovery order.  That run *is*
:func:`repro.datalog.grounding.ground_program`, and the one ground solver
(:func:`repro.datalog.fixpoint.solve_ground`) takes it from there.
``tests/datalog/test_seminaive_vs_naive.py`` checks ``evaluate_program``
against ``solve_ground(ground_program(...))`` on random programs over every
shipped semiring.
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
    idb_schema,
)
from repro.datalog.grounding import (
    AtomTable,
    GroundAtom,
    GroundProgram,
    edb_relations,
)
from repro.datalog.syntax import Program, Rule
from repro.logic import Atom, Constant, Variable
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.semirings.base import Semiring
from repro.semirings.boolean import BooleanSemiring

__all__ = ["evaluate_program_seminaive"]

# Post-match opcodes: bind a slot / check against a slot / check a constant.
_BIND, _CHECK_SLOT, _CHECK_CONST = 0, 1, 2


class _AtomStep:
    """Compiled matcher for one body atom at a fixed point of a join plan.

    ``key_positions``/``key_parts`` describe the index probe (positions whose
    value is already determined when the atom is reached: constants and
    variables bound by earlier atoms); ``post`` lists what to do with the
    remaining positions of a candidate tuple.  The driver atom of a plan has
    an empty key -- it is iterated, not probed; a head-driven plan's driver
    is the rule head, whose ``orig_index`` is None.
    """

    __slots__ = ("predicate", "orig_index", "key_positions", "key_parts", "post")

    def __init__(
        self,
        predicate: str,
        orig_index: int | None,
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
    schemas: Dict[str, Schema] | None = None,
) -> _Plan:
    """Compile ``rule`` with ``body[driver_index]`` as the iterated driver.

    Every position of the plan -- index keys, match opcodes, the head --
    counts in its predicate's key order: an atom's arguments are taken in
    the order of ``schemas[predicate]``'s row keys (default: as written),
    so the rows a plan reads and emits are row keys.

    ``driver_index=None`` compiles the **head-driven** plan of the deletion
    rederive pass: the rule's head atom is the driver, matched like a body
    driver (a constant or a repeated variable in the head becomes a
    ``_CHECK_CONST`` / ``_CHECK_SLOT`` opcode), and every body atom is an
    indexed probe, so firing the plan over head rows is ``T_q`` restricted
    to those atoms.  The non-driver atoms are ordered greedily: most
    determined positions first (the most selective probe), then the
    smallest EDB cardinality in ``sizes`` (IDB predicates, of unknown size,
    last).  The order, and with it every index key, is fixed at compile
    time.
    """
    sizes = sizes or {}
    schemas = schemas or {}

    def key_terms(atom: Atom) -> Sequence[Any]:
        schema = schemas.get(atom.relation)
        return atom.terms if schema is None else schema.key_of(atom.terms)

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
        for position, term in enumerate(key_terms(atom)):
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

    def build_driver(atom: Atom, index: int | None) -> _AtomStep:
        post: List[Tuple[int, int, Any]] = []
        seen_here: Set[str] = set()
        for position, term in enumerate(key_terms(atom)):
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

    driver_atom = rule.head if driver_index is None else rule.body[driver_index]
    driver = build_driver(driver_atom, driver_index)
    bound = {v.name for v in driver_atom.variables}
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
    for term in key_terms(rule.head):
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

    ``rows`` lists the relation's row keys (values in sorted-attribute
    order, the order every plan position counts in); ``indexes`` maps a
    tuple of positions to a hash index over those positions.  Indexes are
    created once per (plan, atom) binding pattern and maintained
    incrementally -- annotation updates never touch them, only genuinely new
    tuples are inserted.
    """

    __slots__ = ("relation", "arity", "rows", "indexes", "_positions")

    def __init__(self, relation: KRelation):
        self.relation = relation
        self.arity = len(relation.schema)
        self.rows: List[tuple] = list(relation._rows)
        self.indexes: Dict[Tuple[int, ...], Dict[tuple, list]] = {}
        # Lazy row -> position map, built on the first removal only so
        # insert-only runs pay nothing for deletion support.
        self._positions: Dict[tuple, int] | None = None

    def _grouped(self, positions: Tuple[int, ...]) -> Dict[tuple, list]:
        """The rows bucketed by their values at ``positions``."""
        index: Dict[tuple, list] = {}
        for row in self.rows:
            index.setdefault(tuple([row[p] for p in positions]), []).append(row)
        return index

    def ensure_index(self, positions: Tuple[int, ...]) -> None:
        if positions not in self.indexes:
            self.indexes[positions] = self._grouped(positions)

    def extend(self, rows: Sequence[tuple]) -> None:
        """Append new rows and hook them into every index."""
        if self._positions is not None:
            base = len(self.rows)
            for offset, row in enumerate(rows):
                self._positions[row] = base + offset
        self.rows.extend(rows)
        for positions, index in self.indexes.items():
            for row in rows:
                index.setdefault(tuple([row[p] for p in positions]), []).append(row)

    def remove(self, row: tuple) -> int | None:
        """Drop ``row`` (swap-with-last) and unhook it from every index.

        Returns the vacated position -- the last row now sits there unless
        the removed row was the last -- or ``None`` when the row is not
        stored.  The caller is responsible for the backing relation's
        annotation and the array state (see ``_SemiNaiveEngine._remove_rows``).
        """
        if self._positions is None:
            self._positions = {stored: i for i, stored in enumerate(self.rows)}
        position = self._positions.pop(row, None)
        if position is None:
            return None
        row = self.rows[position]
        last = len(self.rows) - 1
        if position != last:
            moved = self.rows[last]
            self.rows[position] = moved
            self._positions[moved] = position
        self.rows.pop()
        for positions, index in self.indexes.items():
            key = tuple([row[p] for p in positions])
            bucket = index[key]
            # Distinct rows differ in their (C-compared) values.
            bucket.remove(row)
            if not bucket:
                del index[key]
        return position

    def audit(self) -> str | None:
        """Describe the first way the derived structures disagree with ``rows``.

        Rows must be distinct row keys of the relation's arity, every index
        must equal the rows grouped by its key positions (no stale, missing
        or duplicated entries) and the lazy position map must invert the row
        list -- what swap-removal next to surviving rows could break.
        """
        if len(set(self.rows)) != len(self.rows):
            return "a tuple is stored in more than one row"
        for row in self.rows:
            if type(row) is not tuple or len(row) != self.arity:
                return f"row {row!r} is not a row key of arity {self.arity}"
        for positions, index in self.indexes.items():
            expected = self._grouped(positions)
            for key in index.keys() | expected.keys():
                bucket, rows = index.get(key, ()), expected.get(key, ())
                if len(bucket) != len(rows) or set(bucket) != set(rows):
                    return f"index {positions} drifted from the rows at key {key!r}"
        if self._positions is not None and self._positions != {
            row: i for i, row in enumerate(self.rows)
        }:
            return "the row -> position map drifted from the rows"
        return None


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
    ):
        self.program = program
        self.database = database
        self.collect = collect
        self.maintain_edb = maintain_edb
        self.semiring: Semiring = BooleanSemiring() if collect else database.semiring
        # The attained-support bound on ``delete_edb``'s over-delete: licensed
        # by a selective ``+`` whose ``may_attain`` can tell contributions
        # apart.  The default hook (B) accepts even a zero summand of ``1``:
        # there it would doom every supported head, as having no bound does.
        semiring = self.semiring
        self._attains = None
        if semiring.selective_add and not semiring.may_attain(
            semiring.one(), semiring.zero()
        ):
            self._attains = semiring.may_attain
        #: The database relation of each EDB predicate (validated); in
        #: collect mode the stores hold Boolean copies, so these carry the
        #: annotations.
        self._edb = edb_relations(program, database)
        #: Collect mode's atom interner -- ``(predicate, row key)`` in
        #: discovery order, ``_ids[predicate][row key]`` its position -- and
        #: the fired instantiations as ``(rule index, head id, body ids)``.
        self._atoms: List[Tuple[str, tuple]] = []
        self._ids: Dict[str, Dict[tuple, int]] = {p: {} for p in program.predicates}
        self.instantiations: Set[Tuple[int, int, Tuple[int, ...]]] = set()

        #: Which loop ran last -- ``"array"`` (:mod:`repro.datalog.arraystore`)
        #: or ``"rows"`` -- and why the array loop is not available:
        #: ``"semiring"`` (collect mode, a non-idempotent ``+``, no declared
        #: carrier or no numpy), ``"plan"`` (a plan without an array
        #: recipe) or, found on this instance when the state was built,
        #: ``"value"`` (an annotation that does not lift) and ``"radix"`` (row
        #: codes would leave ``int64``).  The ``datalog.seed`` span carries the same two values.
        self.round_path = "rows"
        self.round_declined: str | None = None
        # Annotate mode over an idempotent ``+`` with a declared carrier
        # only: collect mode records individual instantiations, and the
        # idempotent carriers (float min/max, bool) are the ones whose vector
        # arithmetic has no overflow guard that could trip in the middle of
        # a run.  A semiring without a declared carrier stays on the row
        # loop: the column kernels' object carrier is not admitted here.
        self._vector_ops = (
            None
            if collect
            or not self.semiring.idempotent_add
            or self.semiring.carrier is None
            else _vectorized.vector_ops_for(self.semiring)
        )
        if self._vector_ops is None:
            self.round_declined = "semiring"
        self._recipes: Dict[int, Recipe] = {}
        self._arrays: ArrayState | None = None

        idb = program.idb_predicates
        self.stores: Dict[str, _Store] = {}
        # EDB cardinalities feed the selectivity-ordered join plans; IDB
        # predicates are absent (their eventual size is unknown at compile
        # time) and therefore sort last among equally-bound probe candidates.
        sizes: Dict[str, int] = {}
        for predicate, relation in self._edb.items():
            sizes[predicate] = len(relation)
            if collect:
                relation = relation.map_annotations(lambda _: True, self.semiring)
            self.stores[predicate] = _Store(relation)
            if collect:
                for key in self.stores[predicate].rows:
                    self._intern(predicate, key)
        for predicate in idb:
            schema = idb_schema(program, database, predicate)
            self.stores[predicate] = _Store(KRelation(self.semiring, schema))
        # Plans count positions in each predicate's key order.
        self._schemas = schemas = {
            predicate: store.relation.schema for predicate, store in self.stores.items()
        }

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
                self.seed_plans.append(
                    _compile_plan(rule, rule_index, driver, sizes, schemas)
                )
                delta_positions = range(len(rule.body)) if maintain_edb else ()
            else:
                delta_positions = (
                    range(len(rule.body)) if maintain_edb else idb_positions
                )
            for position in delta_positions:
                plan = _compile_plan(rule, rule_index, position, sizes, schemas)
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
        self.changelog: Dict[str, Set[tuple]] | None = None

    # -- change tracking --------------------------------------------------------
    def begin_changelog(self) -> Dict[str, Set[tuple]]:
        """Start recording which stored rows the next updates touch.

        Every row key whose stored annotation changes -- merged, re-derived
        or removed -- is added to the returned ``predicate -> row keys`` map
        until :meth:`end_changelog`.  A recorded row may end up unchanged on
        the net (removed then re-derived to the same value); readers must
        consult the store for the row's current state rather than assume a
        delta.
        """
        self.changelog = {}
        return self.changelog

    def end_changelog(self) -> None:
        self.changelog = None

    def _log_changes(self, predicate: str, keys: Iterable[tuple]) -> None:
        log = self.changelog
        if log is not None:
            log.setdefault(predicate, set()).update(keys)

    def _intern(self, predicate: str, key: tuple) -> int:
        """The id of the atom ``predicate`` with row ``key``, allocated on first sight."""
        ids = self._ids[predicate]
        atom = ids.get(key)
        if atom is None:
            atom = ids[key] = len(self._atoms)
            self._atoms.append((predicate, key))
        return atom

    def _atom(self, predicate: str, key: tuple) -> GroundAtom:
        """The ground atom of a stored row: its values in argument order."""
        return GroundAtom(predicate, self._schemas[predicate].values_of(key))

    def _require_maintained(self) -> None:
        if not self.maintain_edb:
            raise DatalogError(
                "engine was built without maintain_edb=True; "
                "EDB updates cannot be applied incrementally"
            )

    # -- one plan, one batch of driver rows -----------------------------------
    def _fire(
        self,
        plan: _Plan,
        driver_rows: Sequence[tuple],
        out,
        driver_annotations: Dict[tuple, Any] | None = None,
    ) -> None:
        """Fire ``plan`` for ``driver_rows``, emitting contributions into ``out``.

        The driver rows' annotations are read from their store unless
        ``driver_annotations`` maps them (the rederive pass fires removed
        head rows, each annotated ``one()``).
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
            driver_annotations = stores[driver.predicate].relation._rows
        head_parts = plan.head_parts
        emit = out[plan.head_relation]
        if collect:
            rule_index, record = plan.rule_index, self.instantiations.add
            intern, head_relation = self._intern, plan.head_relation
            interners = [self._ids[predicate] for predicate in plan.body_predicates]

        def descend(level: int, annotation: Any) -> None:
            if level == depth:
                head = tuple(
                    env[payload] if is_slot else payload
                    for is_slot, payload in head_parts
                )
                if collect:
                    record(
                        (
                            rule_index,
                            intern(head_relation, head),
                            tuple([ids[values] for ids, values in zip(interners, body_values)]),
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
            annotations = store.relation._rows
            for values in bucket:
                if step.match(values, env):
                    if collect:
                        body_values[step.orig_index] = values
                        descend(level + 1, annotation)
                    else:
                        descend(level + 1, mul(annotation, annotations[values]))

        for values in driver_rows:
            if driver.match(values, env):
                if collect:
                    body_values[driver.orig_index] = values
                    descend(0, True)
                else:
                    descend(0, driver_annotations[values])

    # -- the delta loop ---------------------------------------------------------
    @contextmanager
    def _array_loop(self) -> Iterator[ArrayState | None]:
        """The array state one loop runs on, or ``None`` for the row loop.

        The state is built lazily from the stores' rows -- at the first loop,
        and again after an update it could not take dropped it -- and declined
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
        # Sorted: the merge order fixes the delta order, and with it the
        # order collect mode discovers -- and numbers -- atoms.
        return {predicate: {} for predicate in sorted(self.program.idb_predicates)}

    def _step(self, work: Iterable[Tuple[_Plan, Any]], arrays: ArrayState | None):
        """Fire ``(plan, driver rows)`` pairs, then merge: the next delta.

        Rows are row-key lists on the row loop and position arrays into
        ``arrays`` on the array loop; so is the returned delta.
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
        updates: List[Tuple[tuple, Any]],
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> int:
        """Merge EDB ``updates`` and resume the fixpoint from the stored state.

        ``updates`` are ``(row key, value)`` pairs over ``predicate``'s
        schema; values combine into the stored annotations with the
        semiring's ``+`` (in collect mode the value is ignored -- support is
        all that matters).  Only the plans driven by the changed predicate
        fire, against the incrementally maintained stores and indexes, then
        the ordinary delta loop drains the consequences.  Requires
        ``maintain_edb=True``; returns the number of rounds executed.
        """
        self._require_maintained()
        store = self.stores[predicate]
        relation = store.relation
        if self.collect:
            updates = [(key, True) for key, _ in updates]
        known = relation._rows
        new_keys = {key for key, _ in updates if key not in known}
        rows = list(relation._merge_keys(updates)._rows)
        self._log_changes(predicate, rows)
        new_rows = [key for key in rows if key in new_keys]
        store.extend(new_rows)
        if self.collect:
            for key in new_rows:
                self._intern(predicate, key)
        if not rows:
            return 0
        # The array state takes the appended facts and the rewritten
        # annotations of known ones; what it cannot take drops it, and the
        # loop below rebuilds it.
        arrays = self._arrays
        if arrays is not None and not (
            arrays.append(predicate, new_rows)
            and arrays.rewrite(predicate, [key for key in rows if key not in new_keys])
        ):
            self._arrays = None
        with self._array_loop() as arrays:
            if arrays is not None:
                rows = arrays.locate(predicate, rows)
            delta = self._round({predicate: rows}, arrays)
            return self._drain(delta, max_iterations, iterations=1, arrays=arrays)

    # -- deletion (DRed) --------------------------------------------------------
    def _remove_rows(self, predicate: str, rows: Sequence[tuple]) -> None:
        """Remove rows from a predicate's store, its backing relation and the
        array state."""
        if not rows:
            return
        store = self.stores[predicate]
        annotations = store.relation._annotations
        vacated = []
        for key in rows:
            position = store.remove(key)
            if position is not None:
                vacated.append(position)
            annotations.pop(key, None)
        self._log_changes(predicate, rows)
        if self._arrays is not None:
            self._arrays.remove(predicate, vacated)

    def _ensure_rederive_plans(self) -> None:
        if self._rederive_plans is not None:
            return
        plans: Dict[str, List[_Plan]] = {}
        for rule_index, rule in enumerate(self.program.rules):
            plan = _compile_plan(rule, rule_index, None, self._sizes, self._schemas)
            plans.setdefault(rule.head.relation, []).append(plan)
            for step in plan.steps:
                self.stores[step.predicate].ensure_index(step.key_positions)
        self._rederive_plans = plans

    def delete_edb(
        self,
        predicate: str,
        keys: Sequence[tuple],
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> Tuple[int, int, int]:
        """DRed deletion of EDB facts (row ``keys``) in annotate (idempotent) mode.

        Both halves fire the round plans (:meth:`_fire`).  *Over-delete*
        runs one round per support layer: the delta plans fire with the
        doomed rows as drivers *before* they leave the stores, so bodies
        with several co-deleted atoms are caught, and a stored head is
        doomed by its contribution batch.  Without the attained-support
        bound (``self._attains``) any contribution dooms it.  Under a
        selective ``+`` a head's stored annotation *is* one of its
        contributions, so a head is doomed only when a contribution may be
        that attained one; every other head keeps its value: none of its
        attaining derivations touches a doomed atom, and (induction on
        annotation value, then on derivation height, using ``a . b <= a``)
        neither do those of the atoms they use.  Ties doom, which covers
        zero-cost cycles.

        *Rederive* fires each predicate's head-driven plans over its
        removed rows, annotated ``one()`` -- ``T_q`` restricted to those
        atoms over the shrunk stores -- and merges the contributions;
        predicates go in the order they were first doomed, each seeing
        the rows rederived before it.  The delta loop then drains the
        consequences: exact for idempotent ``+``, where re-added
        contributions are absorbed.

        Returns ``(overdeleted, rederived, rounds)``: over-deleted and
        re-derived IDB rows, and the over-delete plus drain rounds.  Collect
        mode deletes via :meth:`delete_support`.
        """
        self._require_maintained()
        if self.collect:
            raise DatalogError("delete_edb is annotate-mode only; use delete_support")
        known = self.stores[predicate].relation._rows
        rows = [key for key in keys if key in known]
        if not rows:
            return (0, 0, 0)

        # Phase 1: over-delete, one round per support layer.
        attains = self._attains
        pending: Dict[str, List[tuple]] = {predicate: rows}
        removed: Dict[str, List[tuple]] = {}
        overdeleted = 0
        rounds = 0
        while pending:
            rounds += 1
            out = self._fresh()
            fired = [plan for pred in pending for plan in self.delta_plans.get(pred, ())]
            for plan in fired:
                self._fire(plan, pending[plan.driver.predicate], out)
            for pred, pending_rows in pending.items():
                self._remove_rows(pred, pending_rows)
            pending = {}
            # Head predicates in first-fired order: rederive walks them so.
            for pred in dict.fromkeys(plan.head_relation for plan in fired):
                head_known = self.stores[pred].relation._rows
                next_rows = []
                for key, batch in out[pred].items():
                    stored = head_known.get(key)
                    if stored is not None and (
                        attains is None or any(attains(stored, c) for c in batch)
                    ):
                        next_rows.append(key)
                if next_rows:
                    pending[pred] = next_rows
                    removed.setdefault(pred, []).extend(next_rows)
                    overdeleted += len(next_rows)

        # Phase 2: re-derive survivors from their remaining derivations.
        self._ensure_rederive_plans()
        one = self.semiring.one()
        rederived = 0
        delta: Dict[str, List[tuple]] = {}
        for pred, removed_rows in removed.items():
            out = {pred: {}}
            ones = dict.fromkeys(removed_rows, one)
            for plan in self._rederive_plans.get(pred, ()):
                self._fire(plan, removed_rows, out, ones)
            new_rows = self._merge(out)[pred]
            if not new_rows:
                continue
            if self._arrays is not None and not self._arrays.append(pred, new_rows):
                self._arrays = None
            rederived += len(new_rows)
            delta[pred] = new_rows
        if delta:
            # Phase 1 mirrored its removals in the array state and the
            # rederived atoms were appended to it: the drain resumes on it.
            with self._array_loop() as arrays:
                if arrays is not None:
                    delta = {p: arrays.locate(p, rows) for p, rows in delta.items()}
                rounds = self._drain(
                    delta, max_iterations, iterations=rounds, arrays=arrays
                )
        return (overdeleted, rederived, rounds)

    def delete_support(
        self, predicate: str, keys: Sequence[tuple]
    ) -> Tuple[int, int, frozenset]:
        """DRed deletion (of the EDB row ``keys``) on the recorded
        instantiations, for collect mode.

        Over-deletion walks the instantiations that read a removed atom;
        rederivation revives every over-deleted head with an instantiation
        over live atoms left -- no join refires, and the result is exact
        because the shrunk database's instantiations are a subset of the
        fired ones.  Dead atoms leave the Boolean stores, the interner and
        the instantiations.

        Returns ``(overdeleted, rederived, dead_atoms)``: counts of IDB atoms
        over-deleted and revived, and the ground atoms (deleted EDB facts
        plus dead IDB atoms) that left the support.
        """
        self._require_maintained()
        if not self.collect:
            raise DatalogError("delete_support is collect-mode only; use delete_edb")
        known = self.stores[predicate].relation._rows
        ids = self._ids[predicate]
        deleted_atoms: Set[int] = set()
        for key in keys:
            if key in known:
                deleted_atoms.add(ids[key])
        if not deleted_atoms:
            return (0, 0, frozenset())

        by_body: Dict[int, List[Any]] = {}
        by_head: Dict[int, List[Any]] = {}
        for inst in self.instantiations:
            by_head.setdefault(inst[1], []).append(inst)
            for atom in inst[2]:
                by_body.setdefault(atom, []).append(inst)

        # Over-delete: anything a removed atom (transitively) supports.
        removed: Set[int] = set(deleted_atoms)
        overdeleted: Set[int] = set()
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

        rederived: Set[int] = set()
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

        # Prune the Boolean stores, then renumber the surviving atoms (in
        # discovery order) and the instantiations that read only them.
        by_predicate: Dict[str, List[tuple]] = {}
        for atom in removed:
            dead_predicate, key = self._atoms[atom]
            by_predicate.setdefault(dead_predicate, []).append(key)
        for pred, dead_keys in by_predicate.items():
            dead_known = self.stores[pred].relation._rows
            self._remove_rows(pred, [key for key in dead_keys if key in dead_known])
        dead = frozenset(self._atom(*self._atoms[atom]) for atom in removed)
        renumbered = [-1] * len(self._atoms)
        atoms, self._atoms = self._atoms, []
        self._ids = {p: {} for p in self.program.predicates}
        for atom, (pred, key) in enumerate(atoms):
            if atom not in removed:
                renumbered[atom] = self._intern(pred, key)
        self.instantiations = {
            (rule_index, renumbered[head], tuple([renumbered[atom] for atom in body]))
            for rule_index, head, body in self.instantiations
            if head not in removed and all(atom not in removed for atom in body)
        }
        return (len(overdeleted), len(rederived), dead)

    def _merge(self, out: Dict[str, Dict[tuple, Any]]) -> Dict[str, List[tuple]]:
        """Accumulate a round's contributions; return the delta rows per predicate.

        In annotation mode each head row's contribution batch is combined
        with one ``+``-chain (:func:`repro.engine.kernels.combine_contributions`)
        before it is merged into the store -- the same batched-accumulation
        kernel the physical engine's pipeline breaker uses.  The heads are
        row keys already: they merge into the relation as they are.
        """
        semiring = self.semiring
        collect = self.collect
        delta: Dict[str, List[tuple]] = {}
        for predicate, contributions in out.items():
            store = self.stores[predicate]
            if not contributions:
                delta[predicate] = []
                continue
            relation = store.relation
            known = relation._rows
            new_keys = {key for key in contributions if key not in known}
            if collect:
                updates = contributions.items()
            else:
                updates = (
                    (key, combine_contributions(semiring, batch))
                    for key, batch in contributions.items()
                )
            rows = list(relation._merge_keys(updates)._rows)
            self._log_changes(predicate, rows)
            store.extend([key for key in rows if key in new_keys])
            delta[predicate] = rows
        return delta

    # -- results ----------------------------------------------------------------
    def annotations(self) -> Dict[GroundAtom, Any]:
        values: Dict[GroundAtom, Any] = {}
        for predicate in self.program.idb_predicates:
            store = self.stores[predicate]
            annotations = store.relation._rows
            values_of = self._schemas[predicate].values_of
            for key in store.rows:
                values[GroundAtom(predicate, values_of(key))] = annotations[key]
        return values

    def result_ground(self, annotations: Dict[GroundAtom, Any]) -> GroundProgram:
        """The rule-less ``ground`` of a round-loop result: its IDB atoms and
        a snapshot of the EDB rows, decoded on first read."""
        edb_rows = {
            predicate: (relation.schema, dict(relation._rows))
            for predicate, relation in self._edb.items()
        }
        return GroundProgram.from_snapshot(
            self.program, self.database, tuple(annotations), edb_rows
        )

    def ground_program(self) -> GroundProgram:
        """The instantiation recorded by a collect-mode run, int-coded.

        The rules are sorted by ``(rule index, head id, body ids)``: atom ids
        follow discovery order, which the program and the database's row
        order fix, so the grounding does not depend on hash seeds.  The
        facts are the database relations' rows, by the ids the interner gave
        them; a row written to the database behind a maintained engine's
        back has none and is left out.
        """
        facts: Dict[int, Any] = {}
        for predicate, relation in self._edb.items():
            ids = self._ids[predicate]
            for key, value in relation._rows.items():
                atom = ids.get(key)
                if atom is not None:
                    facts[atom] = value
        schemas = self._schemas
        atoms = [
            (predicate, schemas[predicate].values_of(key)) for predicate, key in self._atoms
        ]
        table = AtomTable(self.program, atoms, sorted(self.instantiations))
        return GroundProgram.from_ids(self.program, self.database, table, facts)


def evaluate_program_seminaive(
    program: Program | str,
    database: Database,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> DatalogResult:
    """The idempotent half of :func:`repro.datalog.fixpoint.evaluate_program`.

    Runs the delta-driven round loops (see the module docstring) over a
    database whose semiring has idempotent addition; callers reach it
    through ``evaluate_program``, which grounds and solves every other
    semiring.  The result's ``ground`` carries the derivable atoms and EDB
    annotations but no rule instantiations: never recording them is the
    point.
    """
    if isinstance(program, str):
        program = Program.parse(program)
    if not database.semiring.idempotent_add:
        raise DatalogError(
            f"the round loops need idempotent addition; {database.semiring.name} "
            "is grounded and solved by evaluate_program"
        )
    engine = _SemiNaiveEngine(program, database, collect=False)
    iterations = engine.run(max_iterations)
    annotations = engine.annotations()
    return DatalogResult(
        annotations=annotations,
        iterations=iterations,
        divergent_atoms=frozenset(),
        ground=engine.result_ground(annotations),
    )
