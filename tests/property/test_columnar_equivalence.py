"""Differential property tests: columnar kernels vs. row-path references.

Every algebra primitive (and the heavy derived operators) must produce the
*same relation* whether evaluated through the columnar kernels
(:mod:`repro.core.algebra` → :mod:`repro.storage.kernels`) or through the
original row-at-a-time transcriptions preserved in
``tests/reference/rowpath.py``.  Relation equality here is the full polygen
notion — same heading and same set of (data, origins, intermediates)
tuples — so a passing run means the storage refactor is bit-identical at
the logical level.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import algebra, derived
from repro.core.cell import Cell, ConflictPolicy
from repro.core.predicate import AttributeRef, Literal, Theta
from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple
from repro.errors import CoalesceConflictError, IncomparableTypesError

from tests.property.strategies import VALUES, relation_pairs, relations, tag_sets
from tests.reference import rowpath


def assert_same_outcome(columnar_fn, rowpath_fn):
    """Run both paths; either both return equal relations or both raise the
    same error type (e.g. order-comparing mixed types)."""
    try:
        expected = rowpath_fn()
    except (IncomparableTypesError, CoalesceConflictError) as error:
        try:
            columnar_fn()
        except type(error):
            return
        raise AssertionError(
            f"row path raised {type(error).__name__}, columnar path did not"
        )
    actual = columnar_fn()
    assert actual == expected
    assert actual.heading == expected.heading
    # Equality is of sets: a duplicate the kernel failed to collapse shows
    # only in the count.
    assert actual.cardinality == expected.cardinality
    assert set(actual.tuples) == set(expected.tuples)


@given(relations(min_rows=0, max_rows=8), st.data())
def test_project_equivalence(relation, data):
    attributes = data.draw(
        st.lists(
            st.sampled_from(relation.attributes),
            min_size=1,
            max_size=relation.degree,
            unique=True,
        )
    )
    assert_same_outcome(
        lambda: algebra.project(relation, attributes),
        lambda: rowpath.project(relation, attributes),
    )


def in_order(relation):
    """Rows in order, each cell as (datum type, datum, origins, intermediates)."""
    return relation.attributes, [
        tuple((type(c.datum), c.datum, c.origins, c.intermediates) for c in row)
        for row in relation
    ]


@settings(max_examples=50)
@given(relations(min_rows=0, max_rows=8), st.data())
def test_project_matches_row_path_in_order(relation, data):
    # Copies of some rows' data under fresh tags: equal data rows that the
    # projection must still merge, even when it keeps every attribute.
    tags = st.lists(st.tuples(tag_sets(), tag_sets()), min_size=4, max_size=4)
    copies = data.draw(st.lists(
        st.tuples(st.sampled_from(relation.tuples), tags), max_size=3
    )) if relation.tuples else []
    relation = PolygenRelation(relation.attributes, list(relation.tuples) + [
        PolygenTuple(
            Cell(old.datum, frozenset() if old.is_nil else origins, intermediates)
            for old, (origins, intermediates) in zip(row, fresh)
        )
        for row, fresh in copies
    ])
    attributes = data.draw(st.lists(
        st.sampled_from(relation.attributes), min_size=1, unique=True,
        max_size=relation.degree,
    ))
    assert in_order(algebra.project(relation, attributes)) == in_order(
        rowpath.project(relation, attributes)
    )


@given(st.data())
def test_product_equivalence(data):
    left = data.draw(relations(heading=["A", "B"], max_rows=5))
    right = data.draw(relations(heading=["C", "D"], max_rows=5))
    assert_same_outcome(
        lambda: algebra.product(left, right),
        lambda: rowpath.product(left, right),
    )


@given(relations(min_rows=0, max_rows=8), st.sampled_from(list(Theta)), st.data())
def test_restrict_literal_equivalence(relation, theta, data):
    x = data.draw(st.sampled_from(relation.attributes))
    value = data.draw(st.sampled_from(VALUES))
    assert_same_outcome(
        lambda: algebra.restrict(relation, x, theta, Literal(value)),
        lambda: rowpath.restrict(relation, x, theta, Literal(value)),
    )


@given(relations(min_rows=0, max_rows=8), st.sampled_from(list(Theta)), st.data())
def test_restrict_attribute_equivalence(relation, theta, data):
    x = data.draw(st.sampled_from(relation.attributes))
    y = data.draw(st.sampled_from(relation.attributes))
    assert_same_outcome(
        lambda: algebra.restrict(relation, x, theta, AttributeRef(y)),
        lambda: rowpath.restrict(relation, x, theta, AttributeRef(y)),
    )


@given(relation_pairs(max_rows=8))
def test_union_equivalence(pair):
    left, right = pair
    assert_same_outcome(
        lambda: algebra.union(left, right),
        lambda: rowpath.union(left, right),
    )


@given(relation_pairs(max_rows=8))
def test_difference_equivalence(pair):
    left, right = pair
    assert_same_outcome(
        lambda: algebra.difference(left, right),
        lambda: rowpath.difference(left, right),
    )


@given(st.data(), st.sampled_from(list(ConflictPolicy)))
def test_coalesce_equivalence(data, policy):
    relation = data.draw(relations(heading=["A", "B", "C"], max_rows=8))
    x = data.draw(st.sampled_from(relation.attributes))
    y = data.draw(st.sampled_from([a for a in relation.attributes if a != x]))
    assert_same_outcome(
        lambda: algebra.coalesce(relation, x, y, w="W", policy=policy),
        lambda: rowpath.coalesce(relation, x, y, w="W", policy=policy),
    )


@given(relation_pairs(max_rows=8))
def test_intersect_equivalence(pair):
    left, right = pair
    assert_same_outcome(
        lambda: derived.intersect(left, right),
        lambda: rowpath.intersect(left, right),
    )


@given(st.data())
def test_outer_join_equivalence(data):
    left = data.draw(relations(heading=["A", "B"], max_rows=6, keyed=["A"]))
    right = data.draw(relations(heading=["C", "D"], max_rows=6, keyed=["C"]))
    key_pairs = [("A", "C")]
    assert_same_outcome(
        lambda: derived.outer_join(left, right, key_pairs),
        lambda: rowpath.outer_join(left, right, key_pairs),
    )

@given(st.data())
def test_operator_chain_equivalence(data):
    """A pipeline representative of executor plans agrees end-to-end."""
    left = data.draw(relations(heading=["A", "B"], max_rows=6))
    right = data.draw(relations(heading=["A", "B"], max_rows=6))

    def columnar():
        combined = algebra.union(left, right)
        filtered = algebra.restrict(combined, "A", Theta.NE, Literal("zz"))
        return algebra.project(filtered, ["A"])

    def row():
        combined = rowpath.union(left, right)
        filtered = rowpath.restrict(combined, "A", Theta.NE, Literal("zz"))
        return rowpath.project(filtered, ["A"])

    assert_same_outcome(columnar, row)
