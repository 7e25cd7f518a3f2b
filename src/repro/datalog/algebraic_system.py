"""Algebraic systems of polynomial fixpoint equations (Definition 5.5).

For a datalog program ``q`` and an EDB K-relation ``R``, the paper associates
to every derivable output tuple a variable and equates it with the polynomial
computed by the immediate-consequence operator ``T_q`` on the abstractly
tagged output ``Q-bar``:  ``Q-bar = T_q(R, Q-bar)``.  The least solution of
this system, taken in any commutative omega-continuous semiring, equals the
proof-theoretic annotation of Definition 5.1 (Theorem 5.6).

This module builds that system explicitly.  Every derivable IDB ground atom
gets a variable, every EDB fact gets a variable too (its tuple id), and each
equation is a plain ``N``-polynomial over both variable kinds -- exactly the
shape of Figure 7(f)::

    x = m + y·z        u = r + u·v
    y = n              v = s + v^2
    z = p              w = x·u + w·v

Solving the system in a semiring ``K`` under a valuation of the EDB variables
into ``K`` (Definition 5.5's least fixpoint) is solving the grounding it was
built from, so :meth:`AlgebraicSystem.solve` hands that grounding to the one
ground solver of :mod:`repro.datalog.fixpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.errors import DatalogError, SemiringError
from repro.datalog.fixpoint import DEFAULT_MAX_ITERATIONS, solve_ground
from repro.datalog.grounding import GroundAtom, GroundProgram, ground_program
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.semirings.base import Semiring
from repro.semirings.polynomial import Polynomial

__all__ = ["AlgebraicSystem", "build_algebraic_system"]


@dataclass
class AlgebraicSystem:
    """A system ``x_i = P_i(x_1, ..., x_n)`` of polynomial equations over variables.

    Attributes
    ----------
    ground:
        The grounded program the system was built from.
    idb_variables:
        Maps each derivable IDB ground atom to its equation variable.
    edb_variables:
        Maps each EDB fact to its tuple-id variable.
    equations:
        Maps each IDB variable to its right-hand-side polynomial (an element
        of ``N[edb variables ∪ idb variables]``).
    edb_valuation:
        Maps each EDB variable to the fact's original annotation in the
        source database's semiring.
    """

    ground: GroundProgram
    idb_variables: Dict[GroundAtom, str]
    edb_variables: Dict[GroundAtom, str]
    equations: Dict[str, Polynomial]
    edb_valuation: Dict[str, Any]

    # -- inspection ------------------------------------------------------------
    @property
    def variables(self) -> list[str]:
        """The IDB equation variables, in deterministic order."""
        return [self.idb_variables[atom] for atom in self._ordered_idb_atoms()]

    def _ordered_idb_atoms(self) -> list[GroundAtom]:
        return sorted(self.idb_variables, key=lambda a: (a.relation, tuple(map(str, a.values))))

    def variable_for(self, atom: GroundAtom) -> str:
        """The equation variable of a derivable IDB ground atom."""
        try:
            return self.idb_variables[atom]
        except KeyError:
            raise DatalogError(f"{atom} is not a derivable IDB atom of the system") from None

    def atom_for(self, variable: str) -> GroundAtom:
        """The ground atom an equation variable stands for."""
        for atom, name in self.idb_variables.items():
            if name == variable:
                return atom
        for atom, name in self.edb_variables.items():
            if name == variable:
                return atom
        raise DatalogError(f"unknown system variable {variable!r}")

    def equation(self, variable: str) -> Polynomial:
        """The right-hand-side polynomial of ``variable``."""
        try:
            return self.equations[variable]
        except KeyError:
            raise DatalogError(f"no equation for variable {variable!r}") from None

    def __str__(self) -> str:
        lines = []
        for atom in self._ordered_idb_atoms():
            variable = self.idb_variables[atom]
            lines.append(f"{variable} = {self.equations[variable]}")
        return "\n".join(lines)

    # -- solving -----------------------------------------------------------------
    def solve(
        self,
        semiring: Semiring,
        valuation: Mapping[str, Any] | None = None,
        *,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        on_divergence: str = "top",
    ) -> Dict[GroundAtom, Any]:
        """Least solution of the system in ``semiring`` (Definition 5.5).

        ``valuation`` maps EDB variables into the target semiring; it defaults
        to coercing the original EDB annotations.  The right-hand sides are
        ``T_q`` on the grounding, so the system is solved by re-annotating the
        grounding under the valuation and handing it to the ground solver
        (:func:`repro.datalog.fixpoint.solve_ground`).  A fact valued zero
        leaves the grounding, which kills every rule that uses it and can
        break cycles (setting ``r = 0`` in Figure 7 makes ``u`` finite again).
        Divergent components (atoms with infinitely many derivations) are
        handled as by the solver: ``"top"`` assigns the semiring's top element
        (an error when the semiring has none), ``"error"`` always raises, and
        ``"skip"`` drops the divergent components from the solution while
        keeping the exact values of the convergent ones.
        """
        source = self.edb_valuation if valuation is None else valuation
        facts: Dict[GroundAtom, Any] = {}
        for atom, variable in self.edb_variables.items():
            if variable not in source:
                raise SemiringError(f"valuation is missing variable {variable!r}")
            value = semiring.coerce(source[variable])
            if not semiring.is_zero(value):
                facts[atom] = value
        result = solve_ground(
            self.ground.reannotate(facts),
            semiring,
            max_iterations=max_iterations,
            on_divergence=on_divergence,
        )
        return result.annotations

    def solve_output(
        self,
        semiring: Semiring,
        valuation: Mapping[str, Any] | None = None,
        **kwargs: Any,
    ) -> Dict[GroundAtom, Any]:
        """Solve and keep only the output predicate's components."""
        solution = self.solve(semiring, valuation, **kwargs)
        output = self.ground.program.output
        return {atom: value for atom, value in solution.items() if atom.relation == output}


def build_algebraic_system(
    program: Program | str,
    database: Database,
    *,
    idb_ids: Mapping[GroundAtom, str] | None = None,
    edb_ids: Mapping[GroundAtom, str] | None = None,
) -> AlgebraicSystem:
    """Construct the algebraic system ``Q-bar = T_q(R, Q-bar)`` (Theorem 5.6).

    ``idb_ids`` / ``edb_ids`` optionally pin variable names to specific ground
    atoms (as the paper does with ``x, y, z, u, v, w`` and ``m, n, p, r, s``
    in Figure 7); unnamed atoms get generated names.
    """
    if isinstance(program, str):
        program = Program.parse(program)
    ground = ground_program(program, database)

    edb_variables: Dict[GroundAtom, str] = {}
    edb_valuation: Dict[str, Any] = {}
    used_names: set[str] = set(dict(edb_ids or {}).values()) | set(dict(idb_ids or {}).values())
    counter = 1
    for atom in sorted(ground.edb_atoms, key=lambda a: (a.relation, tuple(map(str, a.values)))):
        name = (edb_ids or {}).get(atom)
        if name is None:
            name, counter = _fresh_name("t", counter, used_names)
        edb_variables[atom] = name
        edb_valuation[name] = ground.edb_annotation(atom)

    idb_variables: Dict[GroundAtom, str] = {}
    counter = 1
    for atom in sorted(ground.idb_atoms, key=lambda a: (a.relation, tuple(map(str, a.values)))):
        name = (idb_ids or {}).get(atom)
        if name is None:
            name, counter = _fresh_name("q", counter, used_names)
        idb_variables[atom] = name

    overlap = set(edb_variables.values()) & set(idb_variables.values())
    if overlap:
        raise DatalogError(f"variable names used for both EDB and IDB atoms: {sorted(overlap)}")

    equations: Dict[str, Polynomial] = {}
    for atom in ground.idb_atoms:
        total = Polynomial.zero()
        for rule in ground.rules_with_head(atom):
            product = Polynomial.one()
            for body_atom in rule.body:
                if ground.is_edb(body_atom):
                    product = product * Polynomial.var(edb_variables[body_atom])
                else:
                    product = product * Polynomial.var(idb_variables[body_atom])
            total = total + product
        equations[idb_variables[atom]] = total

    return AlgebraicSystem(
        ground=ground,
        idb_variables=idb_variables,
        edb_variables=edb_variables,
        equations=equations,
        edb_valuation=edb_valuation,
    )


def _fresh_name(prefix: str, counter: int, used: set[str]) -> tuple[str, int]:
    while f"{prefix}{counter}" in used:
        counter += 1
    name = f"{prefix}{counter}"
    used.add(name)
    return name, counter + 1
