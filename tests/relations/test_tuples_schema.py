"""Named-perspective tuples and schemas."""

import pytest

from repro.errors import SchemaError
from repro.relations import Schema, Tup


class TestTup:
    def test_equality_is_order_independent(self):
        assert Tup(a=1, b=2) == Tup(b=2, a=1)
        assert hash(Tup(a=1, b=2)) == hash(Tup(b=2, a=1))

    def test_from_values(self):
        t = Tup.from_values(["a", "b"], [1, 2])
        assert t["a"] == 1 and t["b"] == 2
        with pytest.raises(SchemaError):
            Tup.from_values(["a"], [1, 2])

    def test_restrict_is_projection(self):
        t = Tup(a=1, b=2, c=3)
        assert t.restrict(["a", "c"]) == Tup(a=1, c=3)
        with pytest.raises(SchemaError):
            t.restrict(["z"])

    def test_rename(self):
        t = Tup(a=1, b=2)
        assert t.rename({"a": "x"}) == Tup(x=1, b=2)
        with pytest.raises(SchemaError):
            t.rename({"a": "b"})  # collides with existing attribute

    def test_merge_compatible(self):
        left, right = Tup(a=1, b=2), Tup(b=2, c=3)
        assert left.compatible_with(right)
        assert left.merge(right) == Tup(a=1, b=2, c=3)

    def test_merge_incompatible_raises(self):
        with pytest.raises(SchemaError):
            Tup(a=1, b=2).merge(Tup(b=9, c=3))

    def test_mapping_protocol(self):
        t = Tup(a=1, b=2)
        assert set(t) == {"a", "b"}
        assert "a" in t and "z" not in t
        assert t.get("z", 42) == 42
        assert len(t) == 2
        assert t.as_dict() == {"a": 1, "b": 2}
        assert t.values_for(["b", "a"]) == (2, 1)

    def test_duplicate_kwarg_rejected(self):
        with pytest.raises(SchemaError):
            Tup({"a": 1}, a=2)


class TestSchema:
    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"])

    def test_equality_ignores_order(self):
        assert Schema(["a", "b"]) == Schema(["b", "a"])
        assert hash(Schema(["a", "b"])) == hash(Schema(["b", "a"]))

    def test_project_and_rename(self):
        schema = Schema(["a", "b", "c"])
        assert schema.project(["c", "a"]).attributes == ("c", "a")
        with pytest.raises(SchemaError):
            schema.project(["z"])
        assert schema.rename({"a": "x"}).attribute_set == {"x", "b", "c"}

    def test_join_unions_attributes(self):
        assert Schema(["a", "b"]).join(Schema(["b", "c"])).attribute_set == {"a", "b", "c"}

    def test_row_keys_follow_the_sorted_attribute_order(self):
        schema = Schema(["c2", "b", "c10"])
        assert schema.key_attributes == ("b", "c10", "c2")
        key = schema.key_of(("x", "y", "z"))
        assert key == ("y", "z", "x")
        assert schema.values_of(key) == ("x", "y", "z")
        assert schema.tup_of(key) == Tup(c2="x", b="y", c10="z")
        # an already-sorted schema keys a value tuple as it is
        values = (1, 2)
        assert Schema(["a", "b"]).key_of(values) is values
        assert Schema([]).key_of(()) == () and Schema([]).tup_of(()) == Tup()

    def test_pickles_with_its_key_order(self):
        import pickle

        schema = pickle.loads(pickle.dumps(Schema(["c2", "b"])))
        assert schema.attributes == ("c2", "b")
        assert schema.key_of(("x", "y")) == ("y", "x")

    def test_compatibility(self):
        assert Schema(["a", "b"]).is_compatible_with(Schema(["b", "a"]))
        assert not Schema(["a"]).is_compatible_with(Schema(["a", "b"]))


class TestFromSortedItemsDebugMode:
    """The ``Tup._from_sorted_items`` fast path and its env-gated validation.

    The fast constructor trusts its caller (a relation handing out a stored
    row, the row pipeline's opaque-predicate filter) and skips
    sorting/validation; ``REPRO_DEBUG_TUPLES=1`` (or flipping the module
    flag, as these tests do) re-enables the bypassed checks so a bug
    surfaces as a :class:`SchemaError` instead of a malformed tuple.
    """

    @staticmethod
    def _debug(monkeypatch, enabled: bool):
        from repro.relations import tuples as tuples_module

        monkeypatch.setattr(tuples_module, "_DEBUG_TUPLES", enabled)

    def test_fast_path_equals_the_validating_constructor(self, monkeypatch):
        self._debug(monkeypatch, True)
        items = (("a", 1), ("b", "x"))
        fast = Tup._from_sorted_items(items)
        assert fast == Tup(a=1, b="x")
        assert hash(fast) == hash(Tup(a=1, b="x"))

    def test_debug_flags_unsorted_items(self, monkeypatch):
        self._debug(monkeypatch, True)
        with pytest.raises(SchemaError, match="not sorted"):
            Tup._from_sorted_items((("b", 1), ("a", 2)))

    def test_debug_flags_duplicate_attributes(self, monkeypatch):
        self._debug(monkeypatch, True)
        with pytest.raises(SchemaError, match="not sorted"):
            Tup._from_sorted_items((("a", 1), ("a", 2)))

    def test_debug_flags_non_string_attribute(self, monkeypatch):
        self._debug(monkeypatch, True)
        with pytest.raises(SchemaError, match="not a string"):
            Tup._from_sorted_items(((1, "x"),))

    def test_debug_flags_malformed_pairs(self, monkeypatch):
        self._debug(monkeypatch, True)
        with pytest.raises(SchemaError, match="malformed"):
            Tup._from_sorted_items((("a",),))
        with pytest.raises(SchemaError, match="tuple of pairs"):
            Tup._from_sorted_items([("a", 1)])

    def test_disabled_debug_skips_the_checks(self, monkeypatch):
        # The documented trade-off: without the flag the fast path accepts
        # whatever it is handed -- that is exactly why the debug mode exists.
        self._debug(monkeypatch, False)
        malformed = Tup._from_sorted_items((("b", 1), ("a", 2)))
        assert malformed._items == (("b", 1), ("a", 2))
