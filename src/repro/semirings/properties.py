"""Axiom checkers for semiring structures.

Proposition 3.4 of the paper says the expected relational-algebra identities
hold over K-relations exactly when ``(K, +, ., 0, 1)`` is a commutative
semiring.  This module provides sample-based checkers for the semiring
axioms (and the extra lattice / omega-continuity properties), which the test
suite runs over every shipped semiring with hypothesis-generated elements,
and over deliberately broken structures as negative controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Iterable, Sequence

from repro.semirings.base import Semiring

__all__ = ["PropertyReport", "check_semiring_axioms", "check_distributive_lattice"]


@dataclass
class PropertyReport:
    """Result of checking algebraic laws on a sample of elements."""

    semiring_name: str
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether no violation was detected on the sample."""
        return not self.violations

    def add(self, law: str, detail: str) -> None:
        """Record a violation of ``law`` with a human-readable detail."""
        self.violations.append(f"{law}: {detail}")

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:  # pragma: no cover - trivial
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"<PropertyReport {self.semiring_name}: {status}>"


def check_semiring_axioms(
    semiring: Semiring, sample: Sequence[Any]
) -> PropertyReport:
    """Check the commutative-semiring axioms on all element combinations.

    The laws checked (for all a, b, c drawn from ``sample`` together with 0
    and 1):

    * ``(K, +, 0)`` is a commutative monoid,
    * ``(K, ., 1)`` is a commutative monoid,
    * ``.`` distributes over ``+``,
    * ``0`` annihilates ``.``,
    * the declared ``idempotent_add`` / ``idempotent_mul`` / ``selective_add``
      flags hold, and ``may_attain`` accepts the summand each sum selected.
    """
    report = PropertyReport(semiring.name)
    zero, one = semiring.zero(), semiring.one()
    elements = [semiring.coerce(value) for value in sample]
    elements.extend([zero, one])

    add, mul = semiring.add, semiring.mul

    for a in elements:
        if add(a, zero) != a:
            report.add("additive identity", f"{a} + 0 != {a}")
        if add(zero, a) != a:
            report.add("additive identity", f"0 + {a} != {a}")
        if mul(a, one) != a:
            report.add("multiplicative identity", f"{a} · 1 != {a}")
        if mul(one, a) != a:
            report.add("multiplicative identity", f"1 · {a} != {a}")
        if mul(a, zero) != zero:
            report.add("annihilation", f"{a} · 0 != 0")
        if mul(zero, a) != zero:
            report.add("annihilation", f"0 · {a} != 0")

    for a, b in product(elements, repeat=2):
        if add(a, b) != add(b, a):
            report.add("commutativity of +", f"{a} + {b} != {b} + {a}")
        if mul(a, b) != mul(b, a):
            report.add("commutativity of ·", f"{a} · {b} != {b} · {a}")

    for a, b, c in product(elements, repeat=3):
        if add(add(a, b), c) != add(a, add(b, c)):
            report.add("associativity of +", f"({a}+{b})+{c}")
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            report.add("associativity of ·", f"({a}·{b})·{c}")
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            report.add("distributivity", f"{a}·({b}+{c})")

    if semiring.idempotent_add:
        for a in elements:
            if add(a, a) != a:
                report.add("declared + idempotence", f"{a} + {a} != {a}")
    if semiring.idempotent_mul:
        for a in elements:
            if mul(a, a) != a:
                report.add("declared · idempotence", f"{a} · {a} != {a}")
    if semiring.selective_add:
        for a, b in product(elements, repeat=2):
            total = add(a, b)
            selected = a if total == a else b
            if total != selected:
                report.add("declared selective +", f"{a} + {b} is neither")
            elif not semiring.may_attain(total, selected):
                report.add("may_attain", f"rejects the summand {selected} of {a} + {b}")
    return report


def check_distributive_lattice(
    semiring: Semiring, sample: Sequence[Any]
) -> PropertyReport:
    """Check the absorption laws that make ``(K, +, .)`` a lattice.

    A commutative semiring whose operations additionally satisfy the
    absorption laws ``a + (a . b) == a`` and ``a . (a + b) == a`` is a
    (bounded, distributive) lattice -- the hypothesis of Section 8 and
    Theorem 9.2.
    """
    report = PropertyReport(semiring.name)
    elements = [semiring.coerce(value) for value in sample]
    elements.extend([semiring.zero(), semiring.one()])
    for a, b in product(elements, repeat=2):
        if semiring.add(a, semiring.mul(a, b)) != a:
            report.add("absorption (+ over ·)", f"{a} + {a}·{b} != {a}")
        if semiring.mul(a, semiring.add(a, b)) != a:
            report.add("absorption (· over +)", f"{a} · ({a}+{b}) != {a}")
    return report


def natural_order_is_partial_order(
    semiring: Semiring, sample: Iterable[Any]
) -> PropertyReport:
    """Check reflexivity, transitivity and antisymmetry of the natural order."""
    report = PropertyReport(semiring.name)
    elements = [semiring.coerce(value) for value in sample]
    elements.extend([semiring.zero(), semiring.one()])
    leq = semiring.leq
    for a in elements:
        if not leq(a, a):
            report.add("reflexivity", f"not {a} <= {a}")
    for a, b in product(elements, repeat=2):
        if leq(a, b) and leq(b, a) and a != b:
            report.add("antisymmetry", f"{a} <= {b} <= {a} but {a} != {b}")
    for a, b, c in product(elements, repeat=3):
        if leq(a, b) and leq(b, c) and not leq(a, c):
            report.add("transitivity", f"{a} <= {b} <= {c} but not {a} <= {c}")
    return report
