"""K-relations: finite-support annotated relations (Definition 3.1)."""

import pickle
from collections.abc import Mapping

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import semiring_elements

from repro.errors import SchemaError, SemiringError
from repro.relations import Database, KRelation, Tup
from repro.semirings import (
    BooleanSemiring,
    IntegerRing,
    NaturalsSemiring,
    Polynomial,
    ProvenancePolynomialSemiring,
    get_semiring,
)

#: One registry name per shipped semiring.  The stored-zero rule hangs on
#: each one's ``is_zero``: ``False``, ``0``, ``inf`` for Tropical, ``0.0``,
#: the empty polynomial or witness set, the zero circuit.
EVERY_SEMIRING_NAME = (
    "bool",
    "bag",
    "natinf",
    "tropical",
    "fuzzy",
    "viterbi",
    "posbool",
    "why",
    "why-witness",
    "z",
    "zx",
    "nx",
    "polynomial-inf",
    "power-series",
    "circuit",
)


class TestConstruction:
    def test_rows_with_and_without_annotations(self):
        bag = NaturalsSemiring()
        relation = KRelation(bag, ["a", "b"], [("x", "y"), (("x", "z"), 3)])
        assert relation.annotation(("x", "y")) == 1
        assert relation.annotation(("x", "z")) == 3

    def test_rows_as_dicts_and_tups(self):
        bag = NaturalsSemiring()
        relation = KRelation(bag, ["a", "b"])
        relation.add({"a": 1, "b": 2}, 4)
        relation.add(Tup(a=1, b=3))
        assert relation.annotation(Tup(a=1, b=2)) == 4
        assert len(relation) == 2

    def test_schema_mismatch_rejected(self):
        bag = NaturalsSemiring()
        relation = KRelation(bag, ["a", "b"])
        with pytest.raises(SchemaError):
            relation.add(("only-one",))
        with pytest.raises(SchemaError):
            relation.add(Tup(a=1, c=2))

    def test_from_dict(self):
        bag = NaturalsSemiring()
        relation = KRelation.from_dict(bag, ["a"], {("x",): 2, ("y",): 3})
        assert relation.total_annotation() == 5


class TestSupportSemantics:
    def test_absent_tuples_have_zero_annotation(self):
        boolean = BooleanSemiring()
        relation = KRelation(boolean, ["a"], [("x",)])
        assert relation.annotation(("missing",)) is False
        assert ("missing",) not in relation

    def test_adding_zero_keeps_support_clean(self):
        bag = NaturalsSemiring()
        relation = KRelation(bag, ["a"])
        relation.add(("x",), 0)
        assert len(relation) == 0
        relation.set(("x",), 5)
        relation.set(("x",), 0)
        assert len(relation) == 0

    def test_add_accumulates_with_semiring_plus(self):
        bag = NaturalsSemiring()
        relation = KRelation(bag, ["a"])
        relation.add(("x",), 2)
        relation.add(("x",), 3)
        assert relation.annotation(("x",)) == 5

    def test_discard(self):
        bag = NaturalsSemiring()
        relation = KRelation(bag, ["a"], [(("x",), 2)])
        relation.discard(("x",))
        assert not relation

    def test_check_consistency(self):
        bag = NaturalsSemiring()
        relation = KRelation(bag, ["a"], [(("x",), 2)])
        relation.check_consistency()
        relation._annotations[("bad",)] = -1
        with pytest.raises(SemiringError):
            relation.check_consistency()


class TestStoredZeroRule:
    """Every mutation path drops exact zeros from the support (Def. 3.1)."""

    def test_add_cancellation_removes_the_tuple(self):
        relation = KRelation(IntegerRing(), ["a"])
        relation.add(("1",), 2)
        relation.add(("1",), -2)
        assert ("1",) not in relation
        assert len(relation) == 0
        relation.check_consistency()

    def test_accumulate_cancellation_removes_the_tuple(self):
        relation = KRelation(IntegerRing(), ["a"])
        tup = relation.add(("1",), 3)
        relation._accumulate(relation._key(tup), -3)
        assert tup not in relation.support
        relation.check_consistency()

    def test_merge_delta_cancellation_within_one_batch_leaves_no_delta(self):
        # Regression: the first update reported the tuple, the second one
        # cancelled it, and the stale report stayed in the returned delta.
        relation = KRelation(IntegerRing(), ["a"])
        tup = Tup(a="1")
        delta = relation.merge_delta([(tup, -1), (tup, 1)])
        assert len(relation) == 0 and len(delta) == 0
        relation.check_consistency()
        delta.check_consistency()

    def test_zero_update_of_an_absent_tuple_is_a_noop(self):
        relation = KRelation(IntegerRing(), ["a"])
        delta = relation.merge_delta([(("9",), 0)])
        assert len(relation) == 0 and len(delta) == 0
        relation.add(("9",), 0)
        relation.discard(("9",))
        assert len(relation) == 0
        relation.check_consistency()

    def test_check_consistency_flags_a_smuggled_stored_zero(self):
        relation = KRelation(IntegerRing(), ["a"], [(("1",), 1)])
        # The raw dictionary bypasses the relation layer's zero handling;
        # the audit must catch what slips through it.
        relation._annotations[relation._key(("1",))] = 0
        with pytest.raises(SemiringError, match="stored zero"):
            relation.check_consistency()

    def test_len_membership_and_iteration_agree(self):
        relation = KRelation(IntegerRing(), ["a", "b"])
        for i in range(6):
            relation.add((str(i), str(i % 2)), i - 2)  # i == 2 stores nothing
        relation.add(("3", "1"), -1)  # cancels to zero
        relation.discard(("5", "1"))
        relation.set(("0", "0"), 7)
        support = list(relation)
        assert len(support) == len(set(support)) == len(relation) == 3
        assert set(support) == relation.support == {tup for tup, _ in relation.items()}
        assert all(tup in relation for tup in support)
        assert ("2", "0") not in relation and ("3", "1") not in relation
        assert list(relation.annotations()) == [value for _, value in relation.items()]
        relation.check_consistency()

    @pytest.mark.parametrize("name", EVERY_SEMIRING_NAME)
    def test_no_mutator_stores_the_zero_of(self, name):
        semiring = get_semiring(name)
        zero, one = semiring.zero(), semiring.one()
        relation = KRelation(semiring, ["a"], [(("0",), zero), (("1",), one)])
        kept = Tup(a="1")
        assert list(relation) == [kept]
        relation.add(("2",), zero)
        relation.set(("3",), zero)
        relation.merge_delta([(("4",), zero)])
        relation._accumulate(relation._key(("5",)), zero)
        assert relation.support == {kept} and relation.annotation(kept) == one
        relation.check_consistency()
        relation.set(("1",), zero)  # overwriting with zero leaves the support
        assert len(relation) == 0 and kept not in relation
        built = KRelation.from_dict(semiring, ["a"], {("6",): zero, ("7",): one})
        assert list(built) == [Tup(a="7")]
        assert len(built.map_annotations(lambda value: zero)) == 0
        built.check_consistency()

    @pytest.mark.parametrize("name", EVERY_SEMIRING_NAME)
    def test_check_consistency_flags_a_smuggled_zero_of(self, name):
        semiring = get_semiring(name)
        relation = KRelation(semiring, ["a"], [(("1",), semiring.one())])
        relation.check_consistency()
        relation._annotations[relation._key(("1",))] = semiring.zero()
        with pytest.raises(SemiringError, match="stored zero"):
            relation.check_consistency()


class TestTransformations:
    def test_map_annotations_drops_zeros(self):
        """Proposition 3.5's 'support may shrink but never increase'."""
        bag = NaturalsSemiring()
        relation = KRelation(bag, ["a"], [(("x",), 2), (("y",), 1)])
        halved = relation.map_annotations(lambda n: n // 2)
        assert halved.annotation(("x",)) == 1
        assert ("y",) not in halved

    def test_to_semiring_coercion(self):
        bag = NaturalsSemiring()
        relation = KRelation(bag, ["a"], [(("x",), 2)])
        boolean = relation.to_semiring(BooleanSemiring(), lambda n: n > 0)
        assert boolean.annotation(("x",)) is True

    def test_copy_is_independent(self):
        bag = NaturalsSemiring()
        relation = KRelation(bag, ["a"], [(("x",), 2)])
        clone = relation.copy()
        clone.set(("x",), 9)
        assert relation.annotation(("x",)) == 2

    def test_contained_in_uses_natural_order(self):
        bag = NaturalsSemiring()
        small = KRelation(bag, ["a"], [(("x",), 2)])
        large = KRelation(bag, ["a"], [(("x",), 5), (("y",), 1)])
        assert small.contained_in(large)
        assert not large.contained_in(small)


class TestMergeDelta:
    def test_new_and_changed_tuples_form_the_delta(self):
        bag = NaturalsSemiring()
        relation = KRelation(bag, ["a"], [(("x",), 2)])
        delta = relation.merge_delta(
            [(Tup(a="x"), 3), (Tup(a="y"), 1), (Tup(a="z"), 0)]
        )
        assert relation.annotation(("x",)) == 5
        assert relation.annotation(("y",)) == 1
        assert ("z",) not in relation
        assert dict(delta.items()) == {Tup(a="x"): 5, Tup(a="y"): 1}

    def test_idempotent_readds_produce_empty_delta(self):
        boolean = BooleanSemiring()
        relation = KRelation(boolean, ["a"], [("x",)])
        delta = relation.merge_delta([(Tup(a="x"), True)])
        assert len(delta) == 0
        assert relation.annotation(("x",)) is True

    def test_delta_carries_the_new_annotation(self):
        nx = ProvenancePolynomialSemiring()
        relation = KRelation(nx, ["a"], [(("x",), Polynomial.var("p"))])
        delta = relation.merge_delta([(Tup(a="x"), Polynomial.var("r"))])
        combined = Polynomial.var("p") + Polynomial.var("r")
        assert relation.annotation(("x",)) == combined
        assert delta.annotation(("x",)) == combined

    def test_exact_cancellation_drops_tuple_from_support(self):
        # Regression: a delta that cancels an annotation to zero must remove
        # the tuple (no stored zero), keeping check_consistency clean.
        ring = IntegerRing()
        relation = KRelation(ring, ["a"], [(("x",), 3), (("y",), 1)])
        delta = relation.merge_delta([(Tup(a="x"), -3), (Tup(a="y"), 2)])
        assert ("x",) not in relation
        assert relation.annotation(("x",)) == 0
        assert relation.support == frozenset({Tup(a="y")})
        relation.check_consistency()
        # the cancelled tuple cannot carry a zero in the returned delta
        assert dict(delta.items()) == {Tup(a="y"): 3}

    def test_cancellation_inside_materialized_view(self):
        from repro.incremental import MaterializedView, UpdateBatch

        ring = IntegerRing()
        database = Database(ring)
        database.create("R", ["a", "b"], [(("1", "2"), 2)])
        database.create("S", ["b", "c"], [(("2", "x"), 3)])
        from repro.algebra.ast import Q

        view = MaterializedView(
            Q.relation("R").join(Q.relation("S")).project("a", "c"), database
        )
        assert view.relation.annotation(("1", "x")) == 6
        # a negative insertion that exactly cancels the view annotation
        changed = view.apply(UpdateBatch(insertions={"R": [(("1", "2"), -2)]}))
        assert changed == {Tup(a="1", c="x"): 0}
        assert len(view.relation) == 0
        view.relation.check_consistency()
        database.relation("R").check_consistency()


class TestDatabase:
    def test_register_requires_matching_semiring(self):
        db = Database(NaturalsSemiring())
        foreign = KRelation(BooleanSemiring(), ["a"])
        with pytest.raises(SemiringError):
            db.register("R", foreign)

    def test_create_and_lookup(self):
        db = Database(NaturalsSemiring())
        db.create("R", ["a"], [(("x",), 2)])
        assert db["R"].annotation(("x",)) == 2
        assert "R" in db and len(db) == 1
        with pytest.raises(SchemaError):
            db.relation("S")

    def test_map_annotations_database_wide(self):
        db = Database(NaturalsSemiring())
        db.create("R", ["a"], [(("x",), 2)])
        boolean_db = db.map_annotations(lambda n: n > 0, BooleanSemiring())
        assert boolean_db.semiring.name == "B"
        assert boolean_db["R"].annotation(("x",)) is True


class TestDisplayAndProvenanceRelations:
    def test_to_table_renders_annotations(self):
        nx = ProvenancePolynomialSemiring()
        relation = KRelation(nx, ["a"], [(("x",), Polynomial.parse("2*p^2"))])
        table = relation.to_table()
        assert "2·p^2" in table
        assert "a" in table.splitlines()[0]

    def test_empty_relation_renders_placeholder(self):
        relation = KRelation(NaturalsSemiring(), ["a", "b"])
        assert "(empty)" in relation.to_table()


# -- the store against a {Tup: annotation} model -----------------------------------

#: Attribute names whose sorted order differs from any natural display order
#: (``c10`` sorts before ``c2``, capitals before lower case).
MODEL_NAMES = ("b", "a", "c10", "c2", "Z", "x1")
#: ``1``, ``1.0`` and ``True`` are one value; so are ``0`` and ``False``.
MODEL_VALUES = (1, 1.0, True, 0, False, "a", 2)
MODEL_SEMIRING_NAMES = ("bag", "z", "tropical", "posbool")


class _TupModel:
    """The reference store: one ``{Tup: annotation}`` dict whose rows are
    coerced as the relation layer always has (``Tup`` as is, a mapping
    through ``Tup(...)``, a sequence zipped with the display order)."""

    def __init__(self, semiring, attributes):
        self.semiring = semiring
        self.attributes = tuple(attributes)
        self.rows = {}

    def tup(self, row):
        if isinstance(row, Tup):
            candidate = row
        elif isinstance(row, Mapping):
            candidate = Tup(row)
        elif isinstance(row, (tuple, list)):
            candidate = Tup.from_values(self.attributes, row)
        else:
            raise SchemaError(row)
        if candidate.attributes != frozenset(self.attributes):
            raise SchemaError(row)
        return candidate

    def _store(self, tup, value):
        if self.semiring.is_zero(value):
            self.rows.pop(tup, None)
        else:
            self.rows[tup] = value

    def add(self, row, value):
        tup = self.tup(row)
        value = self.semiring.coerce(value)
        current = self.rows.get(tup)
        self._store(tup, value if current is None else self.semiring.add(current, value))
        return tup

    def set(self, row, value):
        tup = self.tup(row)
        self._store(tup, self.semiring.coerce(value))
        return tup

    def discard(self, row):
        self.rows.pop(self.tup(row), None)

    def merge_delta(self, updates):
        delta = {}
        for row, value in updates:
            tup = self.tup(row)
            current = self.rows.get(tup)
            combined = value if current is None else self.semiring.add(current, value)
            if current is None and self.semiring.is_zero(combined):
                continue
            if combined != current:
                self._store(tup, combined)
                if self.semiring.is_zero(combined):
                    delta.pop(tup, None)
                else:
                    delta[tup] = combined
        return delta

    def annotation(self, row):
        return self.rows.get(self.tup(row), self.semiring.zero())


def _row_forms(draw, attributes):
    """One row over ``attributes`` as a Tup, a dict, a tuple or a list."""
    values = [draw(st.sampled_from(MODEL_VALUES)) for _ in attributes]
    form = draw(st.sampled_from(("tup", "dict", "tuple", "list")))
    if form == "tup":
        return Tup(zip(attributes, values))
    if form == "dict":
        return dict(zip(attributes, values))
    return tuple(values) if form == "tuple" else values


def _agrees(relation, model):
    assert len(relation) == len(model.rows)
    assert dict(relation.items()) == model.rows
    assert relation.support == frozenset(model.rows)
    assert list(relation) == list(model.rows)
    relation.check_consistency()


@pytest.mark.parametrize("semiring_name", MODEL_SEMIRING_NAMES)
@given(data=st.data())
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_the_store_behaves_like_a_tup_keyed_model(semiring_name, data):
    """Every mutator, ``merge_delta``, ``copy``, pickling,
    ``map_annotations``, ``equal_to`` and ``contained_in`` against the
    ``{Tup: annotation}`` model, over schemas whose display order is not
    sorted (nullary ones included) and rows given in every form."""
    semiring = get_semiring(semiring_name)
    attributes = data.draw(
        st.permutations(MODEL_NAMES).flatmap(
            lambda names: st.integers(0, len(names)).map(lambda n: names[:n])
        ),
        label="attributes",
    )
    relation = KRelation(semiring, attributes)
    model = _TupModel(semiring, attributes)

    def row():
        return _row_forms(data.draw, attributes)

    def value():
        return data.draw(semiring_elements(semiring))

    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        kind = data.draw(
            st.sampled_from(
                ("add", "set", "discard", "merge_delta", "bulk", "read", "copy",
                 "pickle", "map", "compare")
            ),
            label="operation",
        )
        if kind in ("add", "set"):
            r, v = row(), value()
            assert getattr(relation, kind)(r, v) == getattr(model, kind)(r, v)
        elif kind == "discard":
            r = row()
            relation.discard(r)
            model.discard(r)
        elif kind == "merge_delta":
            updates = [(row(), value()) for _ in range(data.draw(st.integers(0, 4)))]
            delta = relation.merge_delta(updates)
            assert dict(delta.items()) == model.merge_delta(updates)
            delta.check_consistency()
        elif kind == "bulk":
            entries = [(row(), value()) for _ in range(data.draw(st.integers(0, 4)))]
            loaded = KRelation(semiring, attributes, entries)
            reference = _TupModel(semiring, attributes)
            for r, v in entries:
                reference.add(r, v)
            _agrees(loaded, reference)
        elif kind == "read":
            r = row()
            assert relation.annotation(r) == model.annotation(r)
            assert (r in relation) == (model.tup(r) in model.rows)
        elif kind == "copy":
            clone = relation.copy()
            r = row()
            clone.set(r, semiring.one())
            _agrees(relation, model)
            assert clone.annotation(r) == semiring.one()
        elif kind == "pickle":
            _agrees(pickle.loads(pickle.dumps(relation)), model)
        elif kind == "map":
            mapped = relation.map_annotations(lambda v: semiring.add(v, v))
            expected = {
                tup: semiring.add(v, v)
                for tup, v in model.rows.items()
                if not semiring.is_zero(semiring.add(v, v))
            }
            assert dict(mapped.items()) == expected
        else:
            # The same support in another display order is equal, and
            # containment follows the model annotation by annotation.
            other = KRelation(semiring, attributes[::-1], list(model.rows.items()))
            assert relation.equal_to(other) and other.equal_to(relation)
            bigger = other.copy()
            r, v = row(), value()
            bigger.add(r, v)
            assert relation.equal_to(bigger) == (dict(bigger.items()) == model.rows)
            if not semiring.has_negation:  # a ring has no natural order to decide
                expected = all(
                    semiring.leq(model.rows.get(tup, semiring.zero()), bigger.annotation(tup))
                    for tup in set(model.rows) | set(bigger)
                )
                assert relation.contained_in(bigger) == expected
        _agrees(relation, model)

