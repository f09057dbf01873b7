"""Hypothesis strategies for polygen relations.

Small alphabets keep examples readable while still exercising duplicates,
nils, overlapping tag sets and multi-attribute headings.
"""

from __future__ import annotations

import math
from typing import Sequence

from hypothesis import strategies as st

from repro.core.cell import Cell
from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple

DATABASES = ("AD", "PD", "CD")
ATTRIBUTES = ("A", "B", "C", "D")
VALUES = ("x", "y", "z", 1, 2)

#: Key data where match rules can disagree: nil, values equal under ``==``
#: across types (``1``/``True``/``1.0``, ``0``/``-0.0``), one NaN object
#: shared by every draw, and — from :func:`keys` — a fresh NaN per draw, as
#: a wire decoder builds it.
SHARED_NAN = math.nan
KEY_VALUES = (None, 1, True, 1.0, 0, -0.0, SHARED_NAN)


def tag_sets():
    return st.frozensets(st.sampled_from(DATABASES), max_size=len(DATABASES))


def data(allow_nil: bool = True):
    values = st.sampled_from(VALUES)
    if allow_nil:
        return st.one_of(st.none(), values)
    return values


def keys():
    """Key data from :data:`KEY_VALUES`, or a fresh NaN object."""
    return st.one_of(st.sampled_from(KEY_VALUES), st.builds(float, st.just("nan")))


def _cell(datum, origins, intermediates):
    if datum is None:
        return Cell(None, frozenset(), intermediates)
    return Cell(datum, origins, intermediates)


def cells(allow_nil: bool = True):
    return st.builds(_cell, data(allow_nil), tag_sets(), tag_sets())


def key_cells():
    return st.builds(_cell, keys(), tag_sets(), tag_sets())


def headings(min_size: int = 1, max_size: int = 3):
    return st.lists(
        st.sampled_from(ATTRIBUTES), min_size=min_size, max_size=max_size, unique=True
    )


@st.composite
def relations(draw, heading=None, min_rows: int = 0, max_rows: int = 6,
              allow_nil: bool = True, keyed: Sequence[str] = ()):
    """A random polygen relation (optionally over a fixed heading); the
    attributes in ``keyed`` draw their data from :func:`keys`."""
    if heading is None:
        heading = draw(headings())
    cell = cells(allow_nil)
    row = (
        st.tuples(*(key_cells() if name in keyed else cell for name in heading))
        if keyed
        else st.lists(cell, min_size=len(heading), max_size=len(heading))
    )
    rows = draw(st.lists(row, min_size=min_rows, max_size=max_rows))
    return PolygenRelation(heading, (PolygenTuple(row) for row in rows))


@st.composite
def relation_pairs(draw, min_rows: int = 0, max_rows: int = 6):
    """Two relations over the same random heading (union-compatible)."""
    heading = draw(headings())
    left = draw(relations(heading=heading, min_rows=min_rows, max_rows=max_rows))
    right = draw(relations(heading=heading, min_rows=min_rows, max_rows=max_rows))
    return left, right


@st.composite
def keyed_relation_sets(draw, max_relations: int = 3):
    """Relations suitable for Merge: a shared key attribute K, conflict-free
    shared attributes (every relation agrees on V(k) by construction), and
    per-relation origin tags — the shape the executor feeds to Merge."""
    keys = draw(st.lists(st.sampled_from(["k1", "k2", "k3", "k4"]), min_size=1, unique=True))
    value_of = draw(
        st.fixed_dictionaries({key: st.sampled_from(["v1", "v2", "v3"]) for key in keys})
    )
    relation_count = draw(st.integers(min_value=2, max_value=max_relations))
    relations_ = []
    for index in range(relation_count):
        database = DATABASES[index % len(DATABASES)]
        covered = draw(
            st.lists(st.sampled_from(keys), min_size=1, unique=True)
        )
        rows = [(key, value_of[key]) for key in covered]
        relations_.append(
            PolygenRelation.from_data(["K", "V"], rows, origins=[database])
        )
    return relations_
