"""Unit tests for each rewrite rule: legality, gating, and the fixpoint."""

from __future__ import annotations

import pytest

from repro import Database, Q
from repro.algebra import predicates
from repro.algebra.ast import EmptyRelation, Join, Project, Rename, Select, Union
from repro.planner import explain, optimize, plan_signature
from repro.semirings import (
    BooleanSemiring,
    NaturalsSemiring,
    PosBoolSemiring,
    get_semiring,
)


def _database(semiring=None):
    semiring = semiring or NaturalsSemiring()
    database = Database(semiring)
    numeric = semiring.name in ("N", "Tropical")
    annotations = (2, 3, 1, 4, 1) if numeric else (True,) * 5
    database.create(
        "R", ["a", "b"], [(("1", "2"), annotations[0]), (("2", "3"), annotations[1])]
    )
    database.create(
        "S", ["b", "c"], [(("2", "x"), annotations[2]), (("3", "y"), annotations[3])]
    )
    database.create("T", ["c", "d"], [(("x", "u"), annotations[4])])
    return database


def _nodes(query, kind):
    found = [query] if isinstance(query, kind) else []
    for child in query.children():
        found.extend(_nodes(child, kind))
    return found


# ---------------------------------------------------------------------------
# Selection pushdown
# ---------------------------------------------------------------------------


def test_selection_pushes_through_join_to_the_covering_side():
    db = _database()
    query = Q.relation("R").join(Q.relation("S")).where_eq("a", "1")
    plan = optimize(query, db)
    selects = _nodes(plan, Select)
    assert len(selects) == 1
    # The selection sits directly on R (the only side with attribute "a").
    assert selects[0].child.name == "R"
    assert plan.evaluate(db).equal_to(query.evaluate(db))


def test_conjunction_splits_across_both_join_sides():
    db = _database()
    predicate = predicates.conjunction(
        predicates.attr_eq_const("a", "1"), predicates.attr_eq_const("c", "x")
    )
    query = Q.relation("R").join(Q.relation("S")).select(predicate)
    plan = optimize(query, db)
    selects = _nodes(plan, Select)
    placed = {s.child.name for s in selects}
    assert placed == {"R", "S"}
    assert plan.evaluate(db).equal_to(query.evaluate(db))


def test_cross_side_conjunct_stays_above_the_join():
    db = _database()
    predicate = predicates.conjunction(
        predicates.attr_eq("a", "c"),  # spans both sides: not pushable
        predicates.attr_eq_const("a", "1"),
    )
    query = Q.relation("R").join(Q.relation("S")).select(predicate)
    plan = optimize(query, db)
    kept = [s for s in _nodes(plan, Select) if isinstance(s.child, Join)]
    assert len(kept) == 1
    assert predicates.as_predicate(kept[0].predicate).attributes == {"a", "c"}
    assert plan.evaluate(db).equal_to(query.evaluate(db))


def test_selection_pushes_through_projection_only_when_scoped():
    db = _database()
    scoped = Q.relation("R").project("a").where_eq("a", "1")
    plan = optimize(scoped, db)
    assert isinstance(plan, Project)
    assert isinstance(plan.child, Select)
    assert plan.evaluate(db).equal_to(scoped.evaluate(db))


def test_opaque_predicate_is_never_pushed_into_a_join():
    db = _database()

    def mystery(tup):
        return tup["a"] == "1"

    query = Q.relation("R").join(Q.relation("S")).select(mystery)
    plan = optimize(query, db)
    selects = _nodes(plan, Select)
    assert len(selects) == 1
    assert isinstance(selects[0].child, Join)
    assert plan.evaluate(db).equal_to(query.evaluate(db))


def test_opaque_predicate_still_pushes_through_union():
    db = _database()

    def mystery(tup):
        return tup["b"] == "2"

    query = Q.relation("R").union(Q.relation("R")).select(mystery)
    plan = optimize(query, db)
    for select in _nodes(plan, Select):
        assert not isinstance(select.child, Union)
    assert plan.evaluate(db).equal_to(query.evaluate(db))


def test_selection_pushes_through_rename_with_inverse_mapping():
    db = _database()
    query = Q.relation("R").rename({"b": "u"}).where_eq("u", "2")
    plan = optimize(query, db)
    assert isinstance(plan, Rename)
    select = plan.child
    assert isinstance(select, Select)
    assert predicates.as_predicate(select.predicate).attributes == {"b"}
    assert plan.evaluate(db).equal_to(query.evaluate(db))


def test_cascaded_selections_fuse():
    db = _database()
    query = Q.relation("R").where_eq("a", "1").where_eq("b", "2")
    plan = optimize(query, db)
    assert len(_nodes(plan, Select)) == 1
    assert plan.evaluate(db).equal_to(query.evaluate(db))


def test_fused_selections_keep_inner_guard_order():
    # Regression: σ_P(σ_Q(R)) must evaluate Q before P after fusion -- the
    # inner selection may be a guard for a partial outer predicate.
    from repro import Database

    db = Database(NaturalsSemiring())
    db.create("R", ["a"], [(("0",), 1), (("2",), 2)])
    query = (
        Q.relation("R")
        .select(predicates.attr_neq_const("a", "0"))
        .select(lambda t: 10 / int(t["a"]) > 1)
    )
    baseline = query._execute(db)
    optimized = query.optimized(db)._execute(db)  # must not divide by zero
    assert optimized.equal_to(baseline)


# ---------------------------------------------------------------------------
# Projection rules
# ---------------------------------------------------------------------------


def test_projections_fuse_and_push_into_join_sides():
    db = _database()
    query = (
        Q.relation("R").join(Q.relation("T"))  # cross product: no shared attrs
        .project("a", "b", "c", "d")
        .project("a", "d")
    )
    plan = optimize(query, db)
    # π_{a,d} over the cross product narrows R to (a) and leaves T alone
    # (T is already exactly (c, d)?  no -- d wanted, c not shared, so (d)).
    inner = [p for p in _nodes(plan, Project) if not isinstance(p.child, Join)]
    narrowed = {tuple(p.attributes) for p in inner}
    assert ("a",) in narrowed
    assert ("d",) in narrowed
    assert plan.evaluate(db).equal_to(query.evaluate(db))


def test_identity_projection_is_eliminated():
    db = _database()
    query = Q.relation("R").project("a", "b")
    plan = optimize(query, db)
    assert plan_signature(plan) == ("rel", "R")


def test_projection_pushes_through_union():
    db = _database()
    query = Q.relation("R").union(Q.relation("R")).project("a")
    plan = optimize(query, db)
    assert isinstance(plan, Union)
    assert plan.evaluate(db).equal_to(query.evaluate(db))


def test_projection_pushes_through_rename():
    db = _database()
    query = Q.relation("R").rename({"b": "u"}).project("a")
    plan = optimize(query, db)
    # The rename renamed only "b", which the projection drops: both vanish.
    assert plan_signature(plan) == ("project", ("a",), ("rel", "R"))


# ---------------------------------------------------------------------------
# Empty relation, rename and trivial-predicate elimination
# ---------------------------------------------------------------------------


def test_empty_relation_annihilates_joins_and_unions():
    db = _database()
    empty = Q.empty(["a", "b"])
    join_plan = optimize(Q.relation("R").join(empty), db)
    assert isinstance(join_plan, EmptyRelation)
    union_plan = optimize(Q.relation("R").union(empty), db)
    assert plan_signature(union_plan) == ("rel", "R")


def test_select_false_becomes_empty_and_true_vanishes():
    db = _database()
    false_plan = optimize(Q.relation("R").select(predicates.false), db)
    assert isinstance(false_plan, EmptyRelation)
    assert false_plan.schema.attribute_set == {"a", "b"}
    true_plan = optimize(Q.relation("R").select(predicates.true), db)
    assert plan_signature(true_plan) == ("rel", "R")


def test_cascaded_renames_fuse_and_identity_renames_vanish():
    db = _database()
    roundtrip = Q.relation("R").rename({"b": "u"}).rename({"u": "b"})
    assert plan_signature(optimize(roundtrip, db)) == ("rel", "R")
    chained = Q.relation("R").rename({"b": "u"}).rename({"u": "v"})
    plan = optimize(chained, db)
    assert isinstance(plan, Rename)
    assert plan.mapping == {"b": "v"}
    assert plan.evaluate(db).equal_to(chained.evaluate(db))


# ---------------------------------------------------------------------------
# Idempotence-gated rewrites
# ---------------------------------------------------------------------------


def test_union_dedupe_fires_only_under_idempotent_addition():
    query = Q.relation("R").union(Q.relation("R"))
    bool_db = _database(BooleanSemiring())
    assert plan_signature(optimize(query, bool_db)) == ("rel", "R")
    bag_db = _database()
    bag_plan = optimize(query, bag_db)
    assert isinstance(bag_plan, Union)  # N is not idempotent: R ∪ R != R
    assert bag_plan.evaluate(bag_db).equal_to(query.evaluate(bag_db))


def test_self_join_dedupe_fires_only_under_idempotent_multiplication():
    query = Q.relation("R").join(Q.relation("R"))
    posbool_db = _database(PosBoolSemiring())
    assert plan_signature(optimize(query, posbool_db)) == ("rel", "R")
    bag_db = _database()
    bag_plan = optimize(query, bag_db)
    assert isinstance(bag_plan, Join)  # N squares annotations: R ⋈ R != R
    assert bag_plan.evaluate(bag_db).equal_to(query.evaluate(bag_db))


def test_partial_comparison_conjunct_is_not_pushed_into_a_join():
    # Regression: σ_{c<5} over R ⋈ S must not move onto S, where it would see
    # (and raise on) mixed-type tuples the join filters away as written.
    from repro import Database

    db = Database(NaturalsSemiring())
    db.create("R", ["a", "b"], [(("x", 1), 1)])
    db.create("S", ["b", "c"], [((1, 2), 1), ((99, "oops"), 1)])
    predicate = predicates.conjunction(
        predicates.attr_eq_const("a", "x"), predicates.comparison("c", "<", 5)
    )
    query = Q.relation("R").join(Q.relation("S")).select(predicate)
    baseline = query._execute(db)
    optimized = query.optimized(db)._execute(db)  # must not raise TypeError
    assert optimized.equal_to(baseline)
    plan = optimize(query, db)
    kept = [s for s in _nodes(plan, Select) if isinstance(s.child, Join)]
    assert any(
        "comparison" in str(predicates.as_predicate(s.predicate).signature())
        for s in kept
    )


def test_repr_equal_but_distinct_constants_do_not_dedupe():
    # Regression: two unequal constants with identical repr() must keep the
    # two union branches distinct under the idempotent dedupe rewrite.
    class Opaque:
        def __repr__(self):
            return "Opaque"

    c1, c2 = Opaque(), Opaque()
    db = Database(BooleanSemiring())
    relation = db.create("R", ["a", "b"], [])
    relation.add({"a": c1, "b": "l"})
    relation.add({"a": c2, "b": "r"})
    query = (
        Q.relation("R").select(predicates.attr_eq_const("a", c1))
        .union(Q.relation("R").select(predicates.attr_eq_const("a", c2)))
    )
    plan = optimize(query, db)
    assert plan.evaluate(db).equal_to(query.evaluate(db))
    assert len(plan.evaluate(db)) == 2


def test_tropical_gets_union_dedupe_but_not_join_dedupe():
    tropical = get_semiring("tropical")
    db = Database(tropical)
    db.create("R", ["a", "b"], [(("1", "2"), 2.0)])
    union_plan = optimize(Q.relation("R").union(Q.relation("R")), db)
    assert plan_signature(union_plan) == ("rel", "R")  # min is idempotent
    join_plan = optimize(Q.relation("R").join(Q.relation("R")), db)
    assert isinstance(join_plan, Join)  # + is not


def test_verify_properties_disables_gates_on_a_lying_semiring():
    class LyingSemiring(BooleanSemiring):
        # Declares idempotent multiplication but its `one` breaks the axioms
        # the verifier samples, so the gate must shut.
        name = "lying"

        def mul(self, a, b):
            return not (a and b)

    db = _database(LyingSemiring())
    query = Q.relation("R").join(Q.relation("R"))
    verified = optimize(query, db, verify_properties=True)
    assert isinstance(verified, Join)


# ---------------------------------------------------------------------------
# Fixpoint and explain
# ---------------------------------------------------------------------------

FIXPOINT_QUERIES = [
    Q.relation("R").join(Q.relation("S")).join(Q.relation("T")).where_eq("a", "1"),
    Q.relation("R").join(Q.relation("S")).project("a", "c").where_eq("a", "1"),
    Q.relation("R").rename({"b": "u"}).where_eq("u", "2").project("a"),
    Q.relation("R").union(Q.relation("R")).select(predicates.attr_eq("a", "b")),
    Q.relation("R").join(Q.empty(["a", "b"])).union(Q.relation("R")),
]


@pytest.mark.parametrize("query", FIXPOINT_QUERIES, ids=[str(q) for q in FIXPOINT_QUERIES])
def test_optimize_twice_is_a_no_op(query):
    db = _database()
    once = optimize(query, db)
    twice = optimize(once, db)
    assert plan_signature(once) == plan_signature(twice)


def test_explain_reports_the_applied_rules():
    db = _database()
    query = (
        Q.relation("R").join(Q.relation("S")).join(Q.relation("T"))
        .where_eq("a", "1")
        .project("a", "d")
    )
    report = explain(query, db)
    assert report.changed
    # explain plans as optimize does.
    assert plan_signature(report.optimized) == plan_signature(optimize(query, db))
    assert any("selection-pushdown" in rule for rule in report.applied_rules)
    assert "optimized:" in str(report)
