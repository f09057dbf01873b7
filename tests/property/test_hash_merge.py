"""Differential properties: hash-partitioned Merge ≡ the paper's fold.

:func:`repro.core.derived.merge` now evaluates an n-ary Merge as one
hash-partitioned pass (:func:`repro.storage.kernels.hash_merge`);
:func:`tests.reference.fold.merge_fold` remains the literal left fold of
Outer Natural Total Joins the paper defines.  The fold order is
immaterial (paper, §II), so the two must agree on *everything*: row bags,
cell tags, raised conflicts.  Hypothesis drives adversarial operand sets —
nil keys (loner rows), nil and conflicting data cells, operands with
different headings, empty operands — under every conflict policy.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cell import ConflictPolicy
from repro.core.derived import merge
from repro.core.relation import PolygenRelation
from repro.errors import CoalesceConflictError

from tests.property.strategies import keyed_relation_sets, relations
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
