"""The scan's column encoding against the relation it encodes.

:func:`repro.engine.vectorized._encoding` dictionary-encodes every attribute
of a relation and lists its annotations; every column-kernel scan reads it.
This checks it under every shipped semiring, on empty, nullary and
mixed-value relations (``1``, ``1.0`` and ``True`` are one value to a hash
table): each alphabet is exactly the column's set of values, the codes
decode back to every row's value, the annotations follow the same row
order, and a second call on the unchanged relation returns the cached
encoding.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from strategies import annotation_for

from repro import Database
from repro.engine import vectorized
from repro.semirings import available_semirings, get_semiring

pytestmark = pytest.mark.skipif(not vectorized.numpy_available(), reason="needs numpy")

#: One registry name per shipped semiring.
SHIPPED_SEMIRING_NAMES = tuple(
    {get_semiring(name).name: name for name in available_semirings()}.values()
)

#: ``1``, ``1.0`` and ``True`` (and ``0``, ``0.0``, ``False``) are one value
#: to a ``set``, so a relation holding several of them encodes each group once.
VALUES = st.sampled_from(("x", "y", 0, 0.0, False, 1, 1.0, True, 2))


@st.composite
def _databases(draw, semiring):
    """An empty, a nullary and a mixed-value relation, then up to two drawn
    relations of arity 0-3, any of them possibly empty."""
    one = semiring.one()
    database = Database(semiring)
    database.create("Empty", ["a", "b"])
    database.create("Nullary", [], [((), one)])
    database.create("Mixed", ["a", "b"], [((1, "x"), one), ((1.0, "y"), one), ((True, 1), one)])
    index = 0
    for name in ("R", "S")[: draw(st.integers(min_value=0, max_value=2))]:
        attributes = draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3))
        rows = []
        for values in draw(st.lists(st.tuples(*[VALUES] * len(attributes)), max_size=12)):
            index += 1
            rows.append((values, annotation_for(semiring, index, draw)))
        database.create(name, attributes, rows)
    return database


@pytest.mark.parametrize("semiring_name", SHIPPED_SEMIRING_NAMES)
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_the_encoding_decodes_to_the_relation(semiring_name, data):
    database = data.draw(_databases(get_semiring(semiring_name)), label="database")
    for name, relation in database.items():
        assert relation._scan_cache is None, name
        encoding = vectorized._encoding(relation)
        columns, annotations = encoding
        assert set(columns) == relation.schema.attribute_set
        rows = list(relation.items())
        for attribute, column in columns.items():
            uniques = column.uniques.tolist()
            assert len(uniques) == len(set(uniques))
            assert set(uniques) == {tup[attribute] for tup, _ in rows}
            assert column.values().tolist() == [tup[attribute] for tup, _ in rows]
        assert len(annotations) == len(rows)
        assert all(ann is value for ann, (_, value) in zip(annotations, rows))
        assert vectorized._encoding(relation) is encoding
