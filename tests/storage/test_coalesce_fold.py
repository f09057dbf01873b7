"""Coalesce on the accumulator fold, row for row against the reference.

:func:`repro.storage.kernels.coalesce` folds ``y``'s column into a copy of
``x``'s through the one cell fold Merge also runs, and acts on the
conflicts it returns: ``DROP`` drops those rows, ``ERROR`` raises on the
first.  Each policy must give exactly what the row-at-a-time
:func:`tests.reference.rowpath.coalesce` gives: the same rows in the same
order, the same data types, the same tags — and under ``ERROR`` the same
error, naming the output attribute and the first conflicting row's data.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cell import Cell, ConflictPolicy
from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple
from repro.errors import CoalesceConflictError
from repro.storage import kernels

from tests.property.strategies import relations
from tests.reference import rowpath

POLICIES = tuple(ConflictPolicy)


def in_order(relation):
    """Rows in order, each cell as (datum type, datum, origins, intermediates)."""
    return relation.attributes, [
        tuple((type(c.datum), c.datum, c.origins, c.intermediates) for c in row)
        for row in relation
    ]


def kernel_coalesce(relation, x, y, w, policy):
    store = relation.store
    heading = relation.heading.replace(x, w).remove([y])
    return PolygenRelation.from_store(kernels.coalesce(
        store, store.heading.index(x), store.heading.index(y), heading, w, policy
    ))


def outcome(coalesce, relation, x, y, policy):
    try:
        return in_order(coalesce(relation, x, y, "W", policy))
    except CoalesceConflictError as error:
        return "raised", error.attribute, type(error.left), error.left, error.right


def cell(datum, origins, intermediates=()):
    return Cell(datum, frozenset(origins), frozenset(intermediates))


def edge_rows():
    """One row per branch of the fold, two conflicts (so "first" means
    something), a ``1``/``True`` pair, and two rows that collapse once
    coalesced."""
    rows = [
        ("same", ["AD"], "same", ["CD"], "z1"),
        (None, [], "only-y", ["CD"], "z2"),
        ("only-x", ["AD"], None, [], "z3"),
        (None, [], None, [], "z4"),
        ("left", ["AD"], "right", ["CD"], "z5"),
        (1, ["AD"], True, ["PD"], "z6"),
        ("second-left", ["PD"], "second-right", ["AD"], "z7"),
        ("dup", ["AD"], None, [], "z8"),
        (None, [], "dup", ["AD"], "z8"),
    ]
    return PolygenRelation(["X", "Y", "Z"], [
        PolygenTuple([
            cell(x, x_origins, ["PD"] if x is None else ()),
            cell(y, y_origins, ["AD"] if y is None else ()),
            cell(z, ["CD"]),
        ])
        for x, x_origins, y, y_origins, z in rows
    ])


@pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: policy.name)
def test_each_policy_matches_the_reference_row_for_row(policy):
    relation = edge_rows()
    actual = outcome(kernel_coalesce, relation, "X", "Y", policy)
    assert actual == outcome(rowpath.coalesce, relation, "X", "Y", policy)


def test_error_names_the_attribute_and_the_first_conflicting_row():
    relation = edge_rows()
    with pytest.raises(CoalesceConflictError) as raised:
        kernel_coalesce(relation, "X", "Y", "W", ConflictPolicy.ERROR)
    error = raised.value
    assert (error.attribute, error.left, error.right) == ("W", "left", "right")


def test_drop_removes_exactly_the_conflicting_rows():
    merged = kernel_coalesce(edge_rows(), "X", "Y", "W", ConflictPolicy.DROP)
    data = [row.data for row in merged]
    assert ("left", "z5") not in data and ("second-left", "z7") not in data
    # Each "dup" row keeps its non-nil side verbatim, so the two become
    # one: data and tags alike.
    assert data == [
        ("same", "z1"), ("only-y", "z2"), ("only-x", "z3"), (None, "z4"),
        (1, "z6"), ("dup", "z8"),
    ]
    assert type(data[4][0]) is int


@pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: policy.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_relations_match_the_reference_row_for_row(policy, data):
    relation = data.draw(relations(heading=["A", "B", "C"], max_rows=8))
    x = data.draw(st.sampled_from(relation.attributes))
    y = data.draw(st.sampled_from([a for a in relation.attributes if a != x]))
    assert outcome(kernel_coalesce, relation, x, y, policy) == outcome(
        rowpath.coalesce, relation, x, y, policy
    )
