"""Hypothesis strategies for polygen relations.

Small alphabets keep examples readable while still exercising duplicates,
nils, overlapping tag sets and multi-attribute headings.
"""

from __future__ import annotations

import math
from typing import Sequence

from hypothesis import strategies as st

from repro.core.cell import Cell, ConflictPolicy
from repro.core.heading import Heading
from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple
from repro.storage import kernels
from repro.storage.columnar import ColumnarRelation

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
    return PolygenRelation(heading, (PolygenTuple(row) for row in rows + stamp_twins(draw, rows)))


def stamp_twins(draw, rows):
    """Copies of up to two of ``rows`` whose every cell already holds one
    cell's origins as intermediates.  A Restrict or join comparing that
    cell stamps the row and its twin alike, so a kernel must collapse the
    pair: equal rows no random draw would make."""
    twins = []
    for row in draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else ():
        mediators = row[draw(st.integers(0, len(row) - 1))].origins
        twins.append([cell.with_intermediates(mediators) for cell in row])
    return twins


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


def _shipped(draw, heading, rows):
    """``rows`` as a local database ships them: every cell tagged alike."""
    rows = list(dict.fromkeys(rows))
    columns = tuple(zip(*rows)) if rows else ((),) * len(heading)
    return ColumnarRelation.uniform(Heading(heading), columns, draw(tag_sets()), draw(tag_sets()))


@st.composite
def shipped_join_operands(draw, max_rows: int = 6):
    """Join operands over ``A, B`` and ``C, D`` shaped as a federation ships
    them.  The left is :meth:`ColumnarRelation.uniform`, its ``A`` keys
    free to repeat.  The right is another such relation or, more often, the
    Merge of 2..3 of them on ``C``: keys unique within each operand (two of
    ``1``/``True``/``1.0`` are one key), ``D`` agreeing per key unless the
    case disagrees.  In a fifth of the relations a nil or NaN key joins."""
    plain = st.sampled_from(("k1", "k2", "k3", 1, True, 1.0))
    odd = st.one_of(st.sampled_from((None, SHARED_NAN)), st.builds(float, st.just("nan")))
    data = st.sampled_from(("x", "y", None))

    def keys(**bounds):
        drawn = draw(st.lists(plain, min_size=1, max_size=max_rows, **bounds))
        return drawn + [draw(odd)] if draw(st.integers(0, 4)) == 0 else drawn

    left = _shipped(draw, ["A", "B"], [(value, draw(data)) for value in keys()])
    disagree = draw(st.integers(0, 3)) == 0
    agreed = {}
    operands = []
    for _ in range(draw(st.sampled_from((2, 1, 2, 3)))):
        rows = []
        for value in keys(unique=True):
            datum = agreed.setdefault(value, draw(data))
            rows.append((value, draw(data) if disagree else datum))
        operands.append(_shipped(draw, ["C", "D"], rows))
    right = kernels.hash_merge(operands, ["C"], ConflictPolicy.DROP)
    return PolygenRelation.from_store(left), PolygenRelation.from_store(right)
