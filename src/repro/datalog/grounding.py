"""Grounding (instantiation) of datalog programs over a database.

The *instantiation* of a datalog query (the paper uses the term in
Theorem 6.5) is the set of ground rules obtained by substituting constants
for variables in all ways that make every body atom derivable.  The grounded
program is the common substrate for all the evaluation algorithms in this
package: the fixpoint engine, the algebraic-system construction
(Definition 5.5), derivation-tree enumeration, All-Trees (Figure 8),
Monomial-Coefficient (Figure 9), and the finiteness analysis (Theorem 6.5).

:func:`ground_program` derives it with the semi-naive engine's collect run
(:mod:`repro.datalog.seminaive`): indexed, delta-driven joins over the
Boolean support that record every rule instantiation they fire.  A
:class:`GroundProgram` keeps it int-coded -- an atom is its index in one
atom table -- and builds :class:`GroundAtom` / :class:`GroundRule` objects
only when a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.errors import GroundingError
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema

__all__ = [
    "GroundAtom",
    "GroundRule",
    "GroundProgram",
    "ground_program",
    "collect_edb_annotations",
    "strongly_connected_components",
    "is_cyclic",
]


@dataclass(frozen=True)
class GroundAtom:
    """A ground relational atom: a relation name and a tuple of constant values."""

    relation: str
    values: Tuple[Any, ...]

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(map(str, self.values))})"


@dataclass(frozen=True)
class GroundRule:
    """A fully instantiated rule: ground head, ground body, originating rule index.

    The body is an ordered tuple (the same atom may appear twice, e.g. when
    ``Q(x,y) :- Q(x,z), Q(z,y)`` is instantiated with ``x = z = y``), which is
    essential for counting derivations correctly under bag semantics.
    """

    head: GroundAtom
    body: Tuple[GroundAtom, ...]
    rule_index: int

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}"


#: EDB rows per predicate: the relation's schema and its rows (row key ->
#: annotation).
EdbRows = Dict[str, Tuple[Schema, Dict[tuple, Any]]]


class AtomTable:
    """The int-coded instantiation, shared by a grounding and its re-annotated copies.

    ``atoms[i]`` is atom ``i`` as a ``(relation, values)`` pair, ``rules``
    holds ``(rule index, head id, body ids)`` triples, ``by_head[i]`` the
    positions in ``rules`` of atom ``i``'s rules and ``idb[i]`` whether it
    belongs to an intensional predicate.
    """

    __slots__ = ("atoms", "rules", "by_head", "idb", "_objects")

    def __init__(
        self,
        program: Program,
        atoms: List[Tuple[str, tuple]],
        rules: List[Tuple[int, int, Tuple[int, ...]]],
    ):
        self.atoms = atoms
        self.rules = rules
        idb = program.idb_predicates
        self.idb = [relation in idb for relation, _ in atoms]
        self.by_head: List[List[int]] = [[] for _ in atoms]
        for position, rule in enumerate(rules):
            self.by_head[rule[1]].append(position)
        self._objects: List[GroundAtom | None] = [None] * len(atoms)

    def atom(self, atom_id: int) -> GroundAtom:
        """The :class:`GroundAtom` of an id (built once)."""
        atom = self._objects[atom_id]
        if atom is None:
            atom = self._objects[atom_id] = GroundAtom(*self.atoms[atom_id])
        return atom


class GroundProgram:
    """The instantiation of a program over a database, plus analysis helpers.

    Stored int-coded: an :class:`AtomTable` and the EDB facts' annotations
    keyed by atom id.  The ground solver and the cycle analyses run on that
    form; ``ground_rules``, ``edb_annotations``, ``derivable`` and the other
    :class:`GroundAtom`-level views are decoded on first read.  The
    constructor takes the object form and encodes it on first use;
    :meth:`from_ids` takes the int-coded form and :meth:`from_snapshot` the
    rule-less snapshot of the idempotent results, which never pay for
    encoding.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        ground_rules: List[GroundRule],
        edb_annotations: Dict[GroundAtom, Any],
        derivable: Set[GroundAtom],
    ):
        self.program = program
        self.database = database
        self._ground_rules: Tuple[GroundRule, ...] | None = tuple(ground_rules)
        self._edb_annotations: Dict[GroundAtom, Any] | None = dict(edb_annotations)
        self._derivable: frozenset[GroundAtom] | None = frozenset(derivable)
        self._table: AtomTable | None = None
        self._facts: Dict[int, Any] | None = None
        self._snapshot: Tuple[Tuple[GroundAtom, ...], EdbRows] | None = None
        self._rules_by_head: Dict[GroundAtom, List[GroundRule]] | None = None

    @classmethod
    def from_ids(
        cls, program: Program, database: Database, table: AtomTable, facts: Dict[int, Any]
    ) -> "GroundProgram":
        """A grounding given int-coded: every atom of ``table`` is derivable
        and ``facts`` maps the EDB facts' ids to their annotations."""
        ground = cls(program, database, (), {}, ())
        ground._ground_rules = ground._edb_annotations = ground._derivable = None
        ground._table, ground._facts = table, facts
        return ground

    @classmethod
    def from_snapshot(
        cls,
        program: Program,
        database: Database,
        idb_atoms: Tuple[GroundAtom, ...],
        edb_rows: EdbRows,
    ) -> "GroundProgram":
        """A rule-less grounding: the derivable IDB atoms and, per EDB
        predicate, its relation's schema and a copy of its rows (row key ->
        annotation).

        ``derivable`` and ``edb_annotations`` are decoded on first read.  The
        caller hands over copies it no longer mutates, so the views report
        the state at the time of the snapshot.
        """
        ground = cls(program, database, (), {}, ())
        ground._edb_annotations = ground._derivable = None
        ground._snapshot = (idb_atoms, edb_rows)
        return ground

    def int_form(self) -> Tuple[AtomTable, Dict[int, Any]]:
        """``(atom table, EDB annotation per fact id)``, encoded on first use."""
        if self._table is None:
            ids: Dict[GroundAtom, int] = {}
            for atom in chain(
                self.derivable,
                self.edb_annotations,
                (a for rule in self._ground_rules for a in (rule.head, *rule.body)),
            ):
                ids.setdefault(atom, len(ids))
            table = AtomTable(
                self.program,
                [(atom.relation, atom.values) for atom in ids],
                [
                    (rule.rule_index, ids[rule.head], tuple(ids[a] for a in rule.body))
                    for rule in self._ground_rules
                ],
            )
            table._objects = list(ids)
            self._table = table
            self._facts = {ids[atom]: v for atom, v in self.edb_annotations.items()}
        return self._table, self._facts

    # -- basic accessors --------------------------------------------------------
    @property
    def ground_rules(self) -> Tuple[GroundRule, ...]:
        """Every rule instantiation, as :class:`GroundRule` objects."""
        if self._ground_rules is None:
            atom = self._table.atom
            self._ground_rules = tuple(
                GroundRule(atom(head), tuple(map(atom, body)), index)
                for index, head, body in self._table.rules
            )
        return self._ground_rules

    @property
    def edb_annotations(self) -> Dict[GroundAtom, Any]:
        """The EDB facts and their annotations."""
        if self._edb_annotations is None:
            if self._snapshot is not None:
                self._edb_annotations = _decode_edb_rows(self._snapshot[1])
            else:
                atom = self._table.atom
                self._edb_annotations = {atom(i): v for i, v in self._facts.items()}
        return self._edb_annotations

    @property
    def derivable(self) -> frozenset[GroundAtom]:
        """Every derivable ground atom, EDB facts included."""
        if self._derivable is None:
            if self._snapshot is not None:
                self._derivable = frozenset(self._snapshot[0]).union(self.edb_annotations)
            else:
                self._derivable = frozenset(
                    map(self._table.atom, range(len(self._table.atoms)))
                )
        return self._derivable

    @property
    def idb_atoms(self) -> frozenset[GroundAtom]:
        """Derivable ground atoms of IDB predicates."""
        idb = self.program.idb_predicates
        return frozenset(a for a in self.derivable if a.relation in idb)

    @property
    def edb_atoms(self) -> frozenset[GroundAtom]:
        """Ground atoms backed by database facts (non-zero annotation)."""
        return frozenset(self.edb_annotations)

    def rules_with_head(self, atom: GroundAtom) -> list[GroundRule]:
        """Grounded rules whose head is ``atom``."""
        if self._rules_by_head is None:
            self._rules_by_head = {}
            for rule in self.ground_rules:
                self._rules_by_head.setdefault(rule.head, []).append(rule)
        return self._rules_by_head.get(atom, [])

    def output_atoms(self) -> frozenset[GroundAtom]:
        """Derivable atoms of the program's output predicate."""
        return frozenset(
            a for a in self.derivable if a.relation == self.program.output
        )

    def is_edb(self, atom: GroundAtom) -> bool:
        """Whether the atom belongs to an extensional predicate."""
        return atom.relation in self.program.edb_predicates

    def edb_annotation(self, atom: GroundAtom) -> Any:
        """The database annotation of an EDB ground atom."""
        try:
            return self.edb_annotations[atom]
        except KeyError:
            raise GroundingError(f"{atom} is not a known EDB fact") from None

    # -- dependency analysis -------------------------------------------------------
    def cyclic_ids(self, *, unit_rules_only: bool = False) -> Set[int]:
        """Ids of the IDB atoms lying on a cycle of the grounded dependency graph.

        With ``unit_rules_only`` the graph is restricted to grounded unit
        rules (single IDB body atom), which is the analysis of Theorem 6.5;
        otherwise all grounded rules contribute edges, which characterizes the
        atoms with infinitely many derivation trees.
        """
        table, _ = self.int_form()
        idb = table.idb
        successors: List[List[int]] = [[] for _ in table.atoms]
        for _, head, body in table.rules:
            if unit_rules_only and not (len(body) == 1 and idb[body[0]]):
                continue
            for atom in body:
                if idb[atom]:
                    successors[atom].append(head)
        return {
            atom
            for component in strongly_connected_components(successors)
            if is_cyclic(component, successors)
            for atom in component
        }

    def downstream_ids(self, atoms: Set[int]) -> Set[int]:
        """``atoms`` and the ids of every atom some rule derives from them."""
        if not atoms:
            return set()
        table, _ = self.int_form()
        forward: List[List[int]] = [[] for _ in table.atoms]
        for _, head, body in table.rules:
            for atom in body:
                forward[atom].append(head)
        reached: Set[int] = set()
        frontier = list(atoms)
        while frontier:
            atom = frontier.pop()
            if atom not in reached:
                reached.add(atom)
                frontier.extend(forward[atom])
        return reached

    def _decode(self, atoms: Iterable[int]) -> frozenset[GroundAtom]:
        return frozenset(map(self.int_form()[0].atom, atoms))

    def atoms_with_infinite_derivations(self) -> frozenset[GroundAtom]:
        """Derivable atoms possessing infinitely many derivation trees.

        An atom has infinitely many derivation trees exactly when it is
        (transitively) derivable *from* an atom that lies on a cycle of the
        grounded dependency graph (all of whose rules only use derivable
        atoms).  This is the structural fact behind the termination argument
        of All-Trees and behind the ∞ entries in Figure 7(b).
        """
        return self._decode(self.downstream_ids(self.cyclic_ids()))

    def atoms_with_unit_rule_cycles(self) -> frozenset[GroundAtom]:
        """Atoms involved in (or reachable from) a cycle of grounded unit rules.

        Theorem 6.5: the provenance series of an output tuple stays in
        ``N[[X]]`` (all coefficients finite) iff the tuple is not part of such
        a cycle's downstream.
        """
        return self._decode(self.downstream_ids(self.cyclic_ids(unit_rules_only=True)))

    def reannotate(self, edb_annotations: Mapping[GroundAtom, Any]) -> "GroundProgram":
        """A copy of this grounding with the EDB facts annotated differently.

        The provenance paths use this to re-run the same instantiation under
        an abstract tagging (circuit variables, polynomial variables, ...)
        without grounding a second time, and algebraic systems to solve it
        under a valuation.  A fact of this grounding that ``edb_annotations``
        leaves out is annotated zero: it leaves the support, and the ground
        solver treats every rule reading it as dead.  The copy shares the
        int-coded rules; only the EDB values change.
        """
        table, facts = self.int_form()
        kept: Dict[GroundAtom, Any] = {}
        kept_facts: Dict[int, Any] = {}
        for atom_id in facts:
            atom = table.atom(atom_id)
            if atom in edb_annotations:
                kept[atom] = kept_facts[atom_id] = edb_annotations[atom]
        copy = GroundProgram.from_ids(self.program, self.database, table, kept_facts)
        copy._ground_rules, copy._edb_annotations = self._ground_rules, kept
        copy._derivable = self._derivable
        return copy

    def __repr__(self) -> str:  # pragma: no cover - trivial
        table, _ = self.int_form()
        return f"GroundProgram({len(table.rules)} ground rules, {len(table.atoms)} atoms)"


def ground_program(program: Program, database: Database) -> GroundProgram:
    """Instantiate ``program`` over ``database``.

    The EDB facts are the support tuples of the database relations named by
    the program's EDB predicates.  The semi-naive engine runs over their
    Boolean support (Proposition 5.4 guarantees this is the right support
    for every omega-continuous semiring) and records every rule
    instantiation it fires: each one fires at least once, from the variant
    driven by its last-derived body atom.  Atom ids follow discovery order,
    which depends only on the program and the database's row order.
    """
    from repro.datalog.seminaive import _SemiNaiveEngine

    engine = _SemiNaiveEngine(program, database, collect=True)
    # The Boolean support fixpoint always terminates (finitely many atoms).
    engine.run(float("inf"))
    return engine.ground_program()


def edb_relations(program: Program, database: Database) -> Dict[str, KRelation]:
    """The database relation of every EDB predicate, in sorted predicate order.

    Validates that every EDB predicate names a database relation of the right
    arity -- the shared input contract of grounding and the round loops.
    """
    relations: Dict[str, KRelation] = {}
    for predicate in sorted(program.edb_predicates):
        if predicate not in database:
            raise GroundingError(
                f"program uses EDB predicate {predicate!r} but the database has no such relation"
            )
        relation = database.relation(predicate)
        if len(relation.schema) != program.arity(predicate):
            raise GroundingError(
                f"relation {predicate!r} has arity {len(relation.schema)}, "
                f"program expects {program.arity(predicate)}"
            )
        relations[predicate] = relation
    return relations


def _decode_edb_rows(edb_rows: EdbRows) -> Dict[GroundAtom, Any]:
    """EDB rows keyed by predicate as annotated ground atoms."""
    edb_annotations: Dict[GroundAtom, Any] = {}
    for predicate, (schema, rows) in edb_rows.items():
        values_of = schema.values_of
        for key, annotation in rows.items():
            edb_annotations[GroundAtom(predicate, values_of(key))] = annotation
    return edb_annotations


def collect_edb_annotations(program: Program, database: Database) -> Dict[GroundAtom, Any]:
    """Read the program's EDB facts out of ``database`` as annotated ground atoms
    (validated as by :func:`edb_relations`)."""
    return _decode_edb_rows(
        {
            predicate: (relation.schema, relation._rows)
            for predicate, relation in edb_relations(program, database).items()
        }
    )


def strongly_connected_components(successors: Sequence[Iterable[int]]) -> List[List[int]]:
    """Tarjan's strongly connected components, iteratively (no recursion).

    The nodes are ``0 .. len(successors) - 1`` and ``successors[node]`` lists
    the nodes ``node`` points to.  Every component is listed after all the
    components reachable from it, so with edges pointing from an atom to the
    atoms its rules read, the list is in dependency order.  The instantiation
    solver, :meth:`GroundProgram.cyclic_ids` and Monomial-Coefficient's bag
    graph all decompose their graphs with this one pass.
    """
    counter = 0
    indices = [-1] * len(successors)
    lowlink = [0] * len(successors)
    on_stack = [False] * len(successors)
    stack: List[int] = []
    components: List[List[int]] = []

    for root in range(len(successors)):
        if indices[root] >= 0:
            continue
        indices[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(successors[root]))]
        while work:
            node, pending = work[-1]
            for successor in pending:
                if indices[successor] < 0:
                    indices[successor] = lowlink[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack[successor] = True
                    work.append((successor, iter(successors[successor])))
                    break
                if on_stack[successor] and indices[successor] < lowlink[node]:
                    lowlink[node] = indices[successor]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == indices[node]:
                    component: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def is_cyclic(component: Sequence[int], successors: Sequence[Iterable[int]]) -> bool:
    """Whether a strongly connected component contains a cycle (or a self-loop)."""
    if len(component) > 1:
        return True
    (node,) = component
    return node in successors[node]
