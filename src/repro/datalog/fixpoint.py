"""Fixpoint evaluation of datalog on K-relations (Section 5).

Definition 5.1 gives the proof-theoretic semantics -- the annotation of an
output tuple is the (possibly infinite) sum, over all its derivation trees,
of the product of the leaf annotations -- and Theorem 5.6 shows it coincides
with the least solution of the algebraic system ``Q-bar = T_q(R, Q-bar)``.
:func:`solve_ground` computes that least solution on a grounded program; it
is the one solver behind ``evaluate_program`` over non-idempotent
semirings, incremental maintenance, the algebraic systems of
Definition 5.5, All-Trees and the provenance series and circuits.

Termination strategy
--------------------
The solver builds the grounded dependency graph once, over the *live* ground
rules only: a rule is dead when one of its EDB facts is absent (annotated
zero) or one of its IDB body atoms has no live derivation.  One Tarjan pass
splits the graph into strongly connected components, listed in dependency
order, and each component is solved once every component it reads is done:

* an **acyclic** atom takes one application of the immediate-consequence
  operator;
* a **cyclic component under idempotent addition** (the lattices, tropical,
  fuzzy, Viterbi, why-provenance) is iterated as a worklist until nothing
  changes.  The iteration is monotone in the natural order and reaches the
  fixpoint after finitely many rounds; ``max_iterations`` bounds the rounds
  of any one component and raises :class:`DivergenceError` beyond them;
* under **non-idempotent addition** (``N``, ``N-inf``, ``N[X]``, circuits)
  an atom converges iff it has finitely many derivation trees, i.e. iff it
  is neither on a cyclic component nor downstream of one (the analysis
  All-Trees relies on).  These divergent atoms are decided before any value
  is computed: ``on_divergence="top"`` assigns the semiring's top element
  (``infinity`` in ``N-inf``, reproducing Figure 7(b)), ``"skip"`` drops
  them, and ``"error"`` -- or ``"top"`` over a semiring without a top --
  raises :class:`DivergenceError`;
* in the **degree-truncated power series** semiring ``N-inf[[X]]`` a cyclic
  component is iterated instead, up to its stabilisation bound, and the
  coefficients still moving after it are infinite (see
  :mod:`repro.datalog.provenance` for the bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.errors import DivergenceError, GroundingError
from repro.datalog.grounding import (
    AtomTable,
    GroundAtom,
    GroundProgram,
    ground_program,
    is_cyclic,
    strongly_connected_components,
)
from repro.datalog.syntax import Program
from repro.relations.database import Database, accept_pinned_keywords
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.semirings.base import Semiring
from repro.semirings.numeric import INFINITY
from repro.semirings.power_series import FormalPowerSeries, PowerSeriesSemiring

__all__ = [
    "DatalogResult",
    "evaluate_program",
    "evaluate",
    "immediate_consequence",
    "solve_ground",
]

#: Hard ceiling on the rounds of one cyclic component (safety net only).
DEFAULT_MAX_ITERATIONS = 10_000


def idb_schema(program: Program, database: Database, predicate: str) -> Schema:
    """The schema of ``predicate``'s relation: the database's, else the rule heads'.

    A database relation of another arity is a :class:`GroundingError`, as
    for an EDB predicate."""
    if predicate in database:
        schema = database.relation(predicate).schema
        if len(schema) != program.arity(predicate):
            raise GroundingError(
                f"relation {predicate!r} has arity {len(schema)}, "
                f"program expects {program.arity(predicate)}"
            )
        return schema
    names = program.head_attributes(predicate)
    return Schema(names or [f"c{i + 1}" for i in range(program.arity(predicate))])


@dataclass
class DatalogResult:
    """Result of a datalog evaluation.

    Attributes
    ----------
    annotations:
        Final annotation of every derivable IDB ground atom.
    iterations:
        Rounds performed: the semi-naive delta loop's rounds for idempotent
        semirings, otherwise the most rounds any one component of the
        instantiation needed (1 when every atom took a single application).
    divergent_atoms:
        Atoms whose annotation was set to the semiring's top element because
        they have infinitely many derivation trees (empty for idempotent
        semirings).
    ground:
        The grounded program the evaluation ran on (useful for inspecting the
        instantiation, e.g. in tests of Theorem 6.5): the collect run's
        int-coded instantiation, whose :class:`GroundAtom` / ``GroundRule``
        views are decoded on first read.  Results over **idempotent**
        semirings carry no rule instantiations: their round loops never
        record them (that is where their speed comes from), so ``ground``
        holds the derivable atoms and EDB annotations but an empty rule list
        (a Boolean 2-cycle's ``ground.ground_rules`` is empty, not 6 rules).
        Those two views are decoded on first read too, from a snapshot
        taken when the result is made (the IDB atoms and a copy of the EDB
        rows): editing ``annotations`` or updating the database afterwards
        does not change them.  Callers who need the instantiation call
        :func:`~repro.datalog.grounding.ground_program`.
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
        schema = idb_schema(self.ground.program, database, predicate)
        relation = KRelation(semiring, schema)
        for atom, annotation in self.annotations.items():
            if atom.relation != predicate or semiring.is_zero(annotation):
                continue
            relation._set(atom.values, annotation)
        self._relations[predicate] = relation
        return relation

    def output_relation(self, database: Database) -> KRelation:
        """The K-relation of the program's output predicate."""
        return self.relation(self.ground.program.output, database)


def _consequence(
    table: AtomTable, values: List[Any], semiring: Semiring
) -> Callable[[int], Any]:
    """``T_q`` for one atom id: the sum over its rules of their body products."""
    zero, one = semiring.zero(), semiring.one()
    add, mul, is_zero = semiring.add, semiring.mul, semiring.is_zero
    rules, by_head = table.rules, table.by_head

    def consequence(atom: int) -> Any:
        total = zero
        for position in by_head[atom]:
            product = one
            for body_atom in rules[position][2]:
                product = mul(product, values[body_atom])
                if is_zero(product):
                    break
            total = add(total, product)
        return total

    return consequence


def _initial_values(facts: Mapping[int, Any], size: int, semiring: Semiring) -> List[Any]:
    """Zero for every atom id but the EDB facts, which take their annotation."""
    values = [semiring.zero()] * size
    for atom, value in facts.items():
        values[atom] = value
    return values


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
    table, facts = ground.int_form()
    ids = {table.atom(i): i for i in range(len(table.atoms))}
    values = _initial_values(facts, len(table.atoms), semiring)
    for atom, value in current.items():
        values[ids[atom]] = value
    consequence = _consequence(table, values, semiring)
    selected = ground.idb_atoms if atoms is None else atoms
    return {atom: consequence(ids[atom]) for atom in selected}


def evaluate_program(
    program: Program | str,
    database: Database,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    on_divergence: str = "top",
    engine: str = "seminaive",
    storage: Any = None,
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

    One path per semiring regime.  Over an idempotent semiring the
    delta-driven round loops of :mod:`repro.datalog.seminaive` run, which
    never record the instantiation (the result's ``ground`` then carries no
    rule instantiations, see :attr:`DatalogResult.ground`).  Over any other
    semiring the program is grounded by
    :func:`~repro.datalog.grounding.ground_program` (the semi-naive collect
    run) and the instantiation is handed to :func:`solve_ground`, which
    solves it component by component on atom ids; that pair is also the
    reference the round loops are tested against.

    Over a finite distributive lattice (``B``, Fuzzy, ``PosBool``,
    ``P(Omega)``) the round loops are Section 8's terminating evaluation:
    absorption (``1 + a = 1``) bounds the rounds by the size of the ground
    program, not by the number of derivation trees, and by Theorem 6.4 the
    fixpoint equals ``Eval_v`` of the minimal-fringe conditions
    (:func:`~repro.datalog.lattice_eval.lattice_condition_provenance`).

    ``engine`` and ``storage`` select nothing: only the values the end-to-end
    benchmark passes are accepted (see
    :func:`~repro.relations.database.accept_pinned_keywords`).
    """
    accept_pinned_keywords(engine=engine, storage=storage)
    check_on_divergence(on_divergence)
    if isinstance(program, str):
        program = Program.parse(program)
    if database.semiring.idempotent_add:
        from repro.datalog import seminaive

        return seminaive.evaluate_program_seminaive(
            program, database, max_iterations=max_iterations
        )
    return solve_ground(
        ground_program(program, database),
        database.semiring,
        max_iterations=max_iterations,
        on_divergence=on_divergence,
    )


def check_on_divergence(on_divergence: str) -> None:
    """Reject an ``on_divergence`` policy other than top / error / skip."""
    if on_divergence not in ("top", "error", "skip"):
        raise ValueError(
            f"on_divergence must be 'top', 'error' or 'skip', got {on_divergence!r}"
        )


def _live_dependencies(table: AtomTable, facts: Mapping[int, Any]) -> List[List[int]]:
    """Atom id -> the IDB atoms its live rules read.

    A rule is live when every EDB atom of its body is a fact of the grounding
    and every IDB atom of its body has a live rule itself (least fixpoint,
    one counter per rule).  A grounding keeps only non-zero facts, so a rule
    with a zero EDB factor is dead -- and so is every cycle only such a rule
    closes (setting ``r = 0`` in Figure 7 makes ``u`` finite).  EDB atoms and
    IDB atoms that are not live read nothing.
    """
    idb, rules = table.idb, table.rules
    reads: List[List[int]] = []
    pending: List[int] = []
    waiting: Dict[int, List[int]] = {}
    ready: List[int] = []
    for position, (_, _, body) in enumerate(rules):
        idb_reads: List[int] = []
        for atom in body:
            if idb[atom]:
                idb_reads.append(atom)
            elif atom not in facts:
                break  # dead: never ready, never waiting
        else:
            if not idb_reads:
                ready.append(position)
            for atom in idb_reads:
                waiting.setdefault(atom, []).append(position)
        reads.append(idb_reads)
        pending.append(len(idb_reads))

    successors: List[List[int]] = [[] for _ in table.atoms]
    live = [False] * len(table.atoms)
    while ready:
        position = ready.pop()
        head = rules[position][1]
        successors[head].extend(reads[position])
        if live[head]:
            continue
        live[head] = True
        for waiter in waiting.get(head, ()):
            pending[waiter] -= 1
            if pending[waiter] == 0:
                ready.append(waiter)
    return successors


def component_order(
    ground: GroundProgram,
) -> Tuple[AtomTable, Dict[int, Any], List[List[int]], List[Tuple[List[int], bool]]]:
    """The int-coded instantiation in solving order.

    Returns ``(table, facts, successors, components)``: the atom table and
    EDB facts of :meth:`~GroundProgram.int_form`, the IDB atoms each atom's
    live rules read, and the IDB components of that live graph in dependency
    order, each with whether it is cyclic.
    """
    table, facts = ground.int_form()
    idb = table.idb
    successors = _live_dependencies(table, facts)
    components = [
        (component, is_cyclic(component, successors))
        for component in strongly_connected_components(successors)
        if idb[component[0]]
    ]
    return table, facts, successors, components


def solve_ground(
    ground: GroundProgram,
    semiring: Semiring,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    on_divergence: str = "top",
) -> DatalogResult:
    """Solve an already-grounded program in ``semiring``, component by component.

    The one ground solver (see the module docstring for the strategy per
    component).  Callers that already hold a
    :class:`~repro.datalog.grounding.GroundProgram` -- or a re-annotated copy
    of one, as the provenance paths and algebraic systems build -- solve it
    here without grounding a second time.  ``ground.edb_annotations`` must
    already be elements of ``semiring``; a fact it leaves out is zero.  The
    solver runs on atom ids; only the returned atoms are decoded.
    """
    check_on_divergence(on_divergence)
    table, facts, successors, components = component_order(ground)
    idb = table.idb
    series = isinstance(semiring, PowerSeriesSemiring)

    divergent: Set[int] = set()
    if not (semiring.idempotent_add or series):
        for component, cyclic in components:
            if cyclic or divergent and any(
                read in divergent for atom in component for read in successors[atom]
            ):
                divergent.update(component)
        if divergent and (
            on_divergence == "error" or (on_divergence == "top" and not semiring.has_top)
        ):
            raise DivergenceError(
                f"{len(divergent)} tuple(s) have infinitely many derivations and "
                f"{semiring.name} cannot represent the infinite sum "
                "(use an ω-continuous semiring with a top element, e.g. N∞, "
                "or on_divergence='skip' to keep only the convergent atoms)"
            )

    # EDB facts and IDB values share one vector; skipped atoms stay zero,
    # which no convergent atom observes: a live rule reading a divergent
    # atom makes its head divergent.
    values = _initial_values(facts, len(table.atoms), semiring)
    if divergent and on_divergence == "top":
        top = semiring.top()
        for atom in divergent:
            values[atom] = top
    consequence = _consequence(table, values, semiring)

    iterations = 1
    for component, cyclic in components:
        if component[0] in divergent:
            continue
        if not cyclic:
            values[component[0]] = consequence(component[0])
            continue
        if series:
            rounds = _stabilise_series(component, consequence, values, semiring)
        else:
            rounds = _iterate_to_fixpoint(
                component, successors, consequence, values, semiring, max_iterations
            )
        iterations = max(iterations, rounds)

    skipped = divergent if on_divergence == "skip" else ()
    atom = table.atom
    return DatalogResult(
        annotations={
            atom(i): values[i] for i, is_idb in enumerate(idb) if is_idb and i not in skipped
        },
        iterations=iterations,
        divergent_atoms=frozenset(map(atom, divergent)),
        ground=ground,
    )


def _iterate_to_fixpoint(
    component: Sequence[int],
    successors: Sequence[Sequence[int]],
    consequence: Callable[[int], Any],
    values: List[Any],
    semiring: Semiring,
    max_iterations: int,
) -> int:
    """Worklist rounds over one cyclic component of an idempotent semiring.

    Each round re-applies ``T_q`` to the members whose body values changed in
    the previous one; returns the number of rounds.
    """
    readers: Dict[int, List[int]] = {atom: [] for atom in component}
    for atom in component:
        for read in successors[atom]:
            if read in readers:
                readers[read].append(atom)
    zero = semiring.zero()
    for atom in component:
        values[atom] = zero
    dirty = dict.fromkeys(component)
    rounds = 0
    while dirty:
        if rounds >= max_iterations:
            raise DivergenceError(
                f"datalog evaluation over {semiring.name} did not converge within "
                f"{max_iterations} iterations"
            )
        rounds += 1
        changed: Dict[int, None] = {}
        for atom in dirty:
            value = consequence(atom)
            if value != values[atom]:
                values[atom] = value
                changed.update(dict.fromkeys(readers[atom]))
        dirty = changed
    return rounds


def _stabilise_series(
    component: Sequence[int],
    consequence: Callable[[int], Any],
    values: List[Any],
    semiring: PowerSeriesSemiring,
) -> int:
    """Jacobi rounds over one cyclic component in truncated ``N-inf[[X]]``.

    Round ``r`` accounts for every derivation whose part inside the component
    is at most ``r`` high.  After the stabilisation bound every finite
    coefficient is exact, and an infinite one grows again within
    ``len(component)`` more rounds (see :mod:`repro.datalog.provenance`);
    the coefficients that moved in those rounds are set to ``infinity``.
    """
    degree = semiring.truncation_degree
    bound = (degree + 1) * (len(component) + 1) + 1
    zero = semiring.zero()
    for atom in component:
        values[atom] = zero

    def jacobi_round() -> bool:
        updated = [(atom, consequence(atom)) for atom in component]
        changed = any(value != values[atom] for atom, value in updated)
        for atom, value in updated:
            values[atom] = value
        return changed

    for rounds in range(1, bound + 1):
        if not jacobi_round():
            return rounds
    settled = {atom: values[atom] for atom in component}
    for _ in component:
        jacobi_round()
    for atom in component:
        before, after = settled[atom], values[atom]
        terms = {monomial: coefficient for monomial, coefficient in after.terms}
        for monomial in terms.keys() | {monomial for monomial, _ in before.terms}:
            if before.coefficient(monomial) != after.coefficient(monomial):
                terms[monomial] = INFINITY
        values[atom] = FormalPowerSeries(terms, degree)
    return bound + len(component)


def evaluate(
    program: Program | str,
    database: Database,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    on_divergence: str = "top",
) -> KRelation:
    """Evaluate and return the output predicate's K-relation.

    Over a distributive lattice this is the Section 8 evaluation (see
    :func:`evaluate_program`).
    """
    result = evaluate_program(
        program, database, max_iterations=max_iterations, on_divergence=on_divergence
    )
    return result.output_relation(database)
