"""Storage backends: selection, layout invariants, and the stored-zero sweep.

The physical layer behind :class:`KRelation` (``src/repro/relations/
storage.py``) must be observably interchangeable: the same finite-support
map, whichever backend holds it.  This file unit-tests the backend-specific
machinery the differential harnesses only exercise indirectly -- kind
resolution, the columnar store's parallel-array/position-index invariants,
swap-with-last deletion, the bulk ``extend_rows`` path -- plus the
Definition 3.1 stored-zero audit: every mutation path that can produce a
semiring zero (exact cancellation under a ring, zero-valued writes) must
drop the tuple from the support on **both** backends, and
``check_consistency`` must flag a zero that is smuggled past the relation
layer through the raw mapping view.
"""

from __future__ import annotations

import pytest

from repro.errors import SchemaError, SemiringError
from repro.relations.krelation import KRelation
from repro.relations.storage import (
    STORAGE_KINDS,
    ColumnarRowStore,
    DictRowStore,
    make_store,
    resolve_storage_kind,
)
from repro.relations.tuples import Tup
from repro.semirings import get_semiring

BACKENDS = STORAGE_KINDS


class TestResolveStorageKind:
    def test_default_is_row(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORAGE", raising=False)
        assert resolve_storage_kind(None) == "row"

    def test_environment_variable_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "columnar")
        assert resolve_storage_kind(None) == "columnar"
        assert KRelation(get_semiring("bag"), ["a"]).storage == "columnar"

    @pytest.mark.parametrize(
        "alias, kind",
        [
            ("row", "row"),
            ("dict", "row"),
            ("rows", "row"),
            ("ROW", "row"),
            ("columnar", "columnar"),
            ("column", "columnar"),
            ("col", "columnar"),
            ("columns", "columnar"),
            ("  Columnar ", "columnar"),
        ],
    )
    def test_aliases_normalize(self, alias, kind):
        assert resolve_storage_kind(alias) == kind

    def test_store_instance_resolves_to_its_own_kind(self):
        assert resolve_storage_kind(DictRowStore()) == "row"
        assert resolve_storage_kind(ColumnarRowStore(["a"])) == "columnar"

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(SchemaError):
            resolve_storage_kind("vectorized")
        with pytest.raises(SchemaError):
            KRelation(get_semiring("bag"), ["a"], storage="paged")


def _tup(a, b):
    return Tup(a=a, b=b)


class TestColumnarStoreLayout:
    def _populated(self):
        store = ColumnarRowStore(["a", "b"])
        for i in range(4):
            store.set(_tup(f"x{i}", i), i + 1)
        return store

    def test_parallel_arrays_stay_aligned(self):
        store = self._populated()
        assert store.tuples == [_tup(f"x{i}", i) for i in range(4)]
        assert store.columns[0] == ["x0", "x1", "x2", "x3"]
        assert store.columns[1] == [0, 1, 2, 3]
        assert store.annotations == [1, 2, 3, 4]
        store.check(("a", "b"))

    def test_discard_swaps_last_row_into_the_hole(self):
        store = self._populated()
        assert store.discard(_tup("x1", 1))
        # x3 moved into position 1; arrays shrink by one and stay dense.
        assert store.tuples == [_tup("x0", 0), _tup("x3", 3), _tup("x2", 2)]
        assert store.columns[1] == [0, 3, 2]
        assert store.annotations == [1, 4, 3]
        assert store.get(_tup("x3", 3)) == 4
        assert not store.discard(_tup("x1", 1))
        store.check(("a", "b"))

    def test_extend_rows_equals_per_row_sets(self):
        bulk = ColumnarRowStore(["a", "b"])
        tuples = [_tup(f"y{i}", i) for i in range(5)]
        version_before = bulk.version
        bulk.extend_rows(
            tuples,
            [[f"y{i}" for i in range(5)], list(range(5))],
            [10 * i + 1 for i in range(5)],
        )
        assert bulk.version == version_before + 1  # one bump for the batch
        one_by_one = ColumnarRowStore(["a", "b"])
        for i, tup in enumerate(tuples):
            one_by_one.set(tup, 10 * i + 1)
        assert bulk.tuples == one_by_one.tuples
        assert bulk.columns == one_by_one.columns
        assert bulk.annotations == one_by_one.annotations
        assert all(bulk.get(tup) == one_by_one.get(tup) for tup in tuples)
        bulk.check(("a", "b"))

    def test_malformed_row_is_reported_by_check_not_a_crash(self):
        store = ColumnarRowStore(["a", "b"])
        store.set(Tup(c="stray"), 1)  # validation bypassed: wrong attributes
        with pytest.raises(SchemaError):
            store.check(("a", "b"))

    def test_copy_is_independent(self):
        store = self._populated()
        clone = store.copy()
        clone.set(_tup("extra", 99), 7)
        clone.discard(_tup("x0", 0))
        assert len(store) == 4
        assert store.get(_tup("x0", 0)) == 1
        assert _tup("extra", 99) not in store
        store.check(("a", "b"))
        clone.check(("a", "b"))

    def test_make_store_dispatches_on_kind(self):
        assert isinstance(make_store("row", ["a"]), DictRowStore)
        assert isinstance(make_store("columnar", ["a"]), ColumnarRowStore)


ALL_SEMIRING_NAMES = ("bag", "bool", "tropical", "posbool", "z", "nx", "circuit")


class TestWithStorageRoundTrip:
    @pytest.mark.parametrize("semiring_name", ALL_SEMIRING_NAMES)
    def test_round_trip_preserves_annotations(self, semiring_name):
        semiring = get_semiring(semiring_name)
        relation = KRelation(
            semiring,
            ["a", "b"],
            [(("1", "2"), semiring.one()), (("2", "3"), semiring.one())],
        )
        relation.add(("1", "2"), semiring.one())  # a combined annotation too
        columnar = relation.with_storage("columnar")
        assert columnar.storage == "columnar"
        columnar.check_consistency()
        back = columnar.with_storage("row")
        assert back.storage == "row"
        assert relation.equal_to(columnar)
        assert relation.equal_to(back)

    def test_same_kind_conversion_still_copies(self):
        relation = KRelation(get_semiring("bag"), ["a"], [(("1",), 2)])
        copy = relation.with_storage("row")
        copy.add(("1",), 1)
        assert relation.annotation(("1",)) == 2
        assert copy.annotation(("1",)) == 3


class TestStoredZeroSweep:
    """Every mutation path drops exact zeros from the support (Def. 3.1)."""

    @pytest.mark.parametrize("storage", BACKENDS)
    def test_add_cancellation_removes_the_tuple(self, storage):
        relation = KRelation(get_semiring("z"), ["a"], storage=storage)
        relation.add(("1",), 2)
        relation.add(("1",), -2)
        assert ("1",) not in relation
        assert len(relation) == 0
        relation.check_consistency()

    @pytest.mark.parametrize("storage", BACKENDS)
    def test_set_zero_removes_the_tuple(self, storage):
        relation = KRelation(get_semiring("z"), ["a"], [(("1",), 5)], storage=storage)
        relation.set(("1",), 0)
        assert ("1",) not in relation
        relation.check_consistency()

    @pytest.mark.parametrize("storage", BACKENDS)
    def test_accumulate_cancellation_removes_the_tuple(self, storage):
        relation = KRelation(get_semiring("z"), ["a"], storage=storage)
        tup = relation.add(("1",), 3)
        relation._accumulate(tup, -3)
        assert tup not in relation.support
        relation.check_consistency()

    @pytest.mark.parametrize("storage", BACKENDS)
    def test_merge_delta_cancellation_is_absent_from_the_delta(self, storage):
        relation = KRelation(get_semiring("z"), ["a"], [(("1",), 2)], storage=storage)
        tup = relation._coerce_tuple(("1",))
        other = relation._coerce_tuple(("2",))
        delta = relation.merge_delta([(tup, -2), (other, 4)])
        assert tup not in relation
        assert relation.annotation(other) == 4
        # the cancelled tuple left the support, so it cannot be in the delta
        assert set(delta.support) == {other}
        relation.check_consistency()
        delta.check_consistency()

    @pytest.mark.parametrize("storage", BACKENDS)
    def test_merge_delta_cancellation_within_one_batch_leaves_no_delta(self, storage):
        # Regression: the first update reported the tuple, the second one
        # cancelled it, and the stale report stayed in the returned delta.
        relation = KRelation(get_semiring("z"), ["a"], storage=storage)
        tup = relation._coerce_tuple(("1",))
        delta = relation.merge_delta([(tup, -1), (tup, 1)])
        assert len(relation) == 0 and len(delta) == 0
        relation.check_consistency()
        delta.check_consistency()

    @pytest.mark.parametrize("storage", BACKENDS)
    def test_zero_update_of_an_absent_tuple_is_a_noop(self, storage):
        relation = KRelation(get_semiring("z"), ["a"], storage=storage)
        tup = relation._coerce_tuple(("9",))
        delta = relation.merge_delta([(tup, 0)])
        assert len(relation) == 0 and len(delta) == 0
        relation.add(("9",), 0)
        assert len(relation) == 0
        relation.check_consistency()

    @pytest.mark.parametrize("storage", BACKENDS)
    def test_check_consistency_flags_a_smuggled_stored_zero(self, storage):
        relation = KRelation(get_semiring("z"), ["a"], [(("1",), 1)], storage=storage)
        # The raw mapping view bypasses the relation layer's zero handling;
        # the audit must catch what slips through it on either backend.
        relation._annotations[relation._coerce_tuple(("1",))] = 0
        with pytest.raises(SemiringError, match="stored zero"):
            relation.check_consistency()

    @pytest.mark.parametrize("storage", BACKENDS)
    def test_check_consistency_flags_a_foreign_annotation(self, storage):
        relation = KRelation(get_semiring("bag"), ["a"], storage=storage)
        relation._annotations[relation._coerce_tuple(("1",))] = -3
        with pytest.raises(SemiringError):
            relation.check_consistency()
