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
unique, so that both paths run.  Operands tagged as a local database ships
them (one tag id per column), uniquely keyed, mostly agreeing, drive the
gather path that skips the fold; they are held to both oracles too.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cell import Cell, ConflictPolicy
from repro.core.derived import merge
from repro.core.heading import Heading
from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple
from repro.errors import CoalesceConflictError
from repro.storage import kernels
from repro.storage.columnar import ColumnarRelation

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


#: Key choices, pairwise unequal under ``==`` whatever each draws: one of
#: ``1``/``True``/``1.0``, one of ``0``/``-0.0``, and plain values.
UNIQUE_KEYS = (
    st.sampled_from((1, True, 1.0)), st.sampled_from((0, -0.0)),
    st.just("a"), st.just("b"), st.just(2),
)
#: Data cells: plain values, ``1``/``True``/``1.0`` among them (equal
#: across types); where a case allows odd cells, also nil, the shared NaN
#: object and a fresh NaN (unequal even to themselves).
PLAIN_DATA = st.sampled_from(("x", "y", 1, True, 1.0))
ODD_DATA = st.one_of(
    PLAIN_DATA, st.sampled_from((None, SHARED_NAN)), st.builds(float, st.just("nan"))
)


@st.composite
def uniform_cases(draw):
    """2..4 operands built as a local database's shipment is:
    :meth:`ColumnarRelation.uniform` over ``K, V, W`` in a drawn order,
    every data cell ``(origins, intermediates)`` alike (a nil cell too
    when the origins are empty).  Keys are unique, drawn from
    :data:`UNIQUE_KEYS`; now and then a nil or NaN key joins them.  Each
    (key, attribute) has one drawn datum every operand repeats — equal, or
    for a ``1`` maybe ``True`` or ``1.0`` — unless the case disagrees,
    when a cell may draw its own.  Nil and NaN cells come in a third of
    the cases, so that most cases take the gather path."""
    count = draw(st.integers(min_value=2, max_value=4))
    disagree = draw(st.integers(0, 3)) == 0
    data = ODD_DATA if draw(st.integers(0, 2)) == 0 else PLAIN_DATA
    shared = {}
    operands = []
    for _ in range(count):
        names = draw(st.permutations(["K", "V", "W"]))
        groups = draw(st.lists(st.integers(0, len(UNIQUE_KEYS) - 1), unique=True, max_size=5))
        keys = [(group, draw(UNIQUE_KEYS[group])) for group in groups]
        if draw(st.integers(0, 9)) == 0:
            keys.append((None, draw(st.sampled_from((None, SHARED_NAN)))))
        rows = []
        for group, key in keys:
            row = {"K": key}
            for name in ("V", "W"):
                if (group, name) not in shared:
                    shared[group, name] = draw(data)
                datum = shared[group, name]
                if datum == 1:
                    datum = draw(st.sampled_from((1, True, 1.0)))
                if disagree and draw(st.integers(0, 3)) == 0:
                    datum = draw(data)
                row[name] = datum
            rows.append(tuple(row[name] for name in names))
        columns = tuple(zip(*rows)) if rows else ((),) * 3
        operands.append(ColumnarRelation.uniform(
            Heading(names), columns, draw(tag_sets()), draw(tag_sets())
        ))
    return operands


@pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: policy.name)
@settings(max_examples=60, deadline=None)
@given(stores=uniform_cases())
def test_uniform_operands_match_both_oracles(policy, stores):
    got = _outcome(kernels.hash_merge, stores, policy)
    assert got == _outcome(merge_rows.hash_merge, stores, policy)
    relations = [PolygenRelation.from_store(store) for store in stores]
    try:
        expected = merge_fold(relations, key=["K"], policy=policy)
    except CoalesceConflictError:
        assert got[0] == "raised"
        return
    assert normalize(PolygenRelation.from_store(kernels.hash_merge(stores, ["K"], policy))) == (
        normalize(expected)
    )
