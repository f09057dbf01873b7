"""Differential properties: hash-partitioned Merge ≡ the paper's fold.

:func:`repro.core.derived.merge` now evaluates an n-ary Merge as one
hash-partitioned pass (:func:`repro.storage.kernels.hash_merge`);
:func:`tests.reference.fold.merge_fold` remains the literal left fold of
Outer Natural Total Joins the paper defines.  The fold order is
immaterial (paper, §II), so the two must agree on *everything*: row bags,
cell tags, raised conflicts.  Hypothesis drives adversarial operand sets —
nil keys (loner rows), nil and conflicting data cells, operands with
different headings, empty operands — under every conflict policy.

The kernel gathers columns for partitions with at most one row per operand
and folds the rest row at a time; :mod:`tests.reference.merge_rows` keeps
the all-rows kernel it replaced, and the two must agree row for row —
order, data types and tag ids included — on operands whose keys are mostly
unique, so that both paths run.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cell import Cell, ConflictPolicy
from repro.core.derived import merge
from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple
from repro.errors import CoalesceConflictError
from repro.storage import kernels

from tests.property.strategies import (
    DATABASES,
    SHARED_NAN,
    keyed_relation_sets,
    relations,
    tag_sets,
)
from tests.reference import merge_rows
from tests.reference.fold import merge_fold

POLICIES = tuple(ConflictPolicy)


def normalize(relation):
    """Bag view of a polygen relation, tags included: blind to row order
    and to NaN identity, not to a datum's type (``1`` vs ``True``)."""
    assert isinstance(relation, PolygenRelation)

    def datum(value):
        return type(value).__name__, "NaN" if value != value else value

    return relation.attributes, Counter(
        tuple((datum(c.datum), c.origins, c.intermediates) for c in row)
        for row in relation
    )


@st.composite
def merge_cases(draw):
    """2..5 operands over headings ``K (+ V, W subsets)`` with fully random
    cells: keys from the key alphabet (nil, ``1``/``True``/``1.0``,
    ``0``/``-0.0``, shared and fresh NaN), nil data, disagreeing values,
    overlapping tag sets."""
    count = draw(st.integers(min_value=2, max_value=5))
    operands = []
    for _ in range(count):
        heading = ["K"] + draw(
            st.lists(st.sampled_from(("V", "W")), unique=True, max_size=2)
        )
        operands.append(draw(relations(heading=heading, max_rows=4, keyed=["K"])))
    policy = draw(st.sampled_from(POLICIES))
    return operands, policy


@settings(max_examples=200, deadline=None)
@given(case=merge_cases())
def test_hash_merge_matches_fold(case):
    operands, policy = case
    try:
        expected = merge_fold(operands, key=["K"], policy=policy)
    except CoalesceConflictError:
        with pytest.raises(CoalesceConflictError):
            merge(operands, key=["K"], policy=policy)
        return
    actual = merge(operands, key=["K"], policy=policy)
    assert normalize(actual) == normalize(expected)


@settings(max_examples=100, deadline=None)
@given(
    operands=keyed_relation_sets(),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_operand_order_is_immaterial(operands, policy, seed):
    # The paper's §II claim, which licenses hash partitioning in the first
    # place — and, under the symmetric policies, shuffling too.
    reference = merge(operands, key=["K"], policy=policy)
    if policy in (ConflictPolicy.PREFER_LEFT, ConflictPolicy.PREFER_RIGHT):
        # Order-sensitive by design; only the fold equivalence holds.
        assert normalize(reference) == normalize(
            merge_fold(operands, key=["K"], policy=policy)
        )
        return
    shuffled = list(operands)
    random.Random(seed).shuffle(shuffled)
    assert normalize(merge(shuffled, key=["K"], policy=policy)) == normalize(
        reference
    )


def test_single_operand_and_empty_operand():
    relation = PolygenRelation.from_data(
        ["K", "V"], [("k1", "v1"), (None, "v2")], origins=["AD"]
    )
    empty = PolygenRelation(["K"], ())
    assert normalize(merge([relation], key=["K"])) == normalize(
        merge_fold([relation], key=["K"])
    )
    assert normalize(merge([relation, empty], key=["K"])) == normalize(
        merge_fold([relation, empty], key=["K"])
    )


def exact(store):
    """Ordered view of a columnar relation: heading, every column's data
    with its type, every tag id.  NaN data compare by object, as the two
    kernels hand through the same objects."""
    return (
        store.heading.attributes,
        [[(type(value), value) for value in column] for column in store.columns],
        store.tags,
    )


@st.composite
def gather_cases(draw):
    """2..4 operands whose keys are mostly unique within each operand, so
    most partitions take the column path; mixed in: a key repeated inside
    an operand, nil keys, NaN keys (shared and fresh), nil and conflicting
    data cells, differing headings (key not always first), empty operands.
    Cell-level choices come from one drawn ``Random`` to keep draws few."""
    rnd = draw(st.randoms(use_true_random=False))
    count = draw(st.integers(min_value=2, max_value=4))
    operands = []
    for _ in range(count):
        heading = draw(st.permutations(
            ["K"] + draw(st.lists(st.sampled_from(("V", "W")), unique=True, max_size=2))
        ))
        keys = draw(st.lists(st.integers(0, 9), unique=True, max_size=8))
        odd = st.one_of(
            st.none(), st.just(SHARED_NAN), st.builds(float, st.just("nan")),
            st.sampled_from(keys) if keys else st.none(),
        )
        keys += draw(st.lists(odd, max_size=2))
        origins = draw(tag_sets())
        conflicting = draw(st.booleans())

        def cell(name, key):
            if name == "K":
                datum = key
            elif conflicting and rnd.random() < 0.5:
                datum = rnd.choice((None, "x", "y"))
            else:
                datum = f"{name}{key}"
            mediators = frozenset(rnd.sample(DATABASES, rnd.randint(0, 1)))
            return Cell(datum, frozenset() if datum is None else origins, mediators)

        rows = [PolygenTuple(cell(name, key) for name in heading) for key in keys]
        operands.append(PolygenRelation(heading, rows))
    return operands


def _outcome(kernel, stores, policy):
    try:
        return exact(kernel(stores, ["K"], policy))
    except CoalesceConflictError as error:
        return "raised", error.attribute, type(error.left), error.left, error.right


@pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: policy.name)
@settings(max_examples=50, deadline=None)
@given(operands=gather_cases())
def test_hash_merge_matches_row_kernel_in_order(policy, operands):
    stores = [relation.store for relation in operands]
    assert _outcome(kernels.hash_merge, stores, policy) == _outcome(
        merge_rows.hash_merge, stores, policy
    )
