"""Which of Merge's two paths a partition takes, and what each returns.

:func:`repro.storage.kernels.hash_merge` folds a partition as columns when
every operand has at most one row in it, and row at a time (through
``_merge_partition``) when a key repeats inside one operand or a conflict
``DROP`` or ``ERROR`` must act on.  Each case is also checked row for row
against the all-rows kernel in :mod:`tests.reference.merge_rows`.
"""

import pytest

from repro.core.cell import ConflictPolicy
from repro.core.relation import PolygenRelation
from repro.errors import CoalesceConflictError
from repro.storage import kernels

from tests.reference import merge_rows


def stores(*operands):
    return [PolygenRelation.from_data(*operand).store for operand in operands]


def exact(store):
    """Heading, every column's data with its type (``1`` is not ``True``),
    every tag id, in row order."""
    return (
        store.heading.attributes,
        [[(type(value), value) for value in column] for column in store.columns],
        store.tags,
    )


def outcome(kernel, operands, key, policy):
    try:
        return exact(kernel(operands, key, policy))
    except CoalesceConflictError as error:
        return "raised", error.attribute, error.left, error.right


def cells(store):
    return [
        [(cell.datum, cell.origins, cell.intermediates) for cell in row]
        for row in PolygenRelation.from_store(store)
    ]


def unique_keys():
    """Three sources, unique keys, overlapping attributes that agree, and
    one nil-keyed (loner) row in the second."""
    return [
        (["K", "V"], [("k1", "v1"), ("k2", "v2"), ("k3", "v3")], ["AD"]),
        (["K", "W"], [("k2", "w2"), (None, "w0"), ("k4", "w4")], ["CD"]),
        (["K", "V", "W"], [("k4", None, "w4"), ("k1", "v1", "w1")], ["PD"]),
    ]


@pytest.fixture
def row_path_calls(monkeypatch):
    calls = []
    real = kernels._merge_partition

    def counting(pool, policy, names, groups):
        calls.append(groups)
        return real(pool, policy, names, groups)

    monkeypatch.setattr(kernels, "_merge_partition", counting)
    return calls


@pytest.mark.parametrize("policy", tuple(ConflictPolicy), ids=lambda p: p.name)
def test_unique_keys_never_enter_the_row_path(monkeypatch, policy):
    def refuse(*args):
        raise AssertionError("row path entered")

    monkeypatch.setattr(kernels, "_merge_partition", refuse)
    operands = stores(*unique_keys())
    merged = kernels.hash_merge(operands, ["K"], policy)
    assert merged.columns[0] == ("k1", "k2", "k3", "k4", None)
    assert exact(merged) == exact(merge_rows.hash_merge(operands, ["K"], policy))


def test_a_repeated_key_sends_only_its_partition_down_the_row_path(row_path_calls):
    cases = unique_keys()
    heading, rows, origins = cases[1]
    cases[1] = (heading, rows + [("k2", "w9")], origins)
    operands = stores(*cases)
    merged = kernels.hash_merge(operands, ["K"], ConflictPolicy.DROP)
    assert len(row_path_calls) == 1
    (first, second) = row_path_calls[0]
    assert [partial[0][0] for partial in first + second] == ["k2", "k2", "k2"]
    # Partitions in first-encounter order (k2 now two rows), then the loner.
    assert merged.columns[0] == ("k1", "k2", "k2", "k3", "k4", None)
    assert merged.columns[2] == ("w1", "w2", "w9", None, "w4", "w0")
    assert exact(merged) == exact(
        merge_rows.hash_merge(operands, ["K"], ConflictPolicy.DROP)
    )


def test_drop_lets_the_third_operand_re_enter(row_path_calls):
    operands = stores(
        (["K", "V"], [("k", "left"), ("j", "v")], ["AD"]),
        (["K", "V"], [("k", "right"), ("j", "v")], ["CD"]),
        (["K", "V"], [("k", "third")], ["PD"]),
    )
    merged = kernels.hash_merge(operands, ["K"], ConflictPolicy.DROP)
    assert len(row_path_calls) == 1
    assert exact(merged) == exact(
        merge_rows.hash_merge(operands, ["K"], ConflictPolicy.DROP)
    )
    rows = [
        [(cell.datum, cell.origins, cell.intermediates) for cell in row]
        for row in PolygenRelation.from_store(merged)
    ]
    # AD × CD died on V, so PD's row enters as a fresh partial, mediated by
    # its own key cell alone.
    assert rows == [
        [("k", {"PD"}, {"PD"}), ("third", {"PD"}, {"PD"})],
        [("j", {"AD", "CD"}, {"AD", "CD"}), ("v", {"AD", "CD"}, {"AD", "CD"})],
    ]


@pytest.mark.parametrize("policy", tuple(ConflictPolicy), ids=lambda p: p.name)
def test_a_partition_missing_from_a_middle_operand_is_passed_over(policy):
    # k1 is in operands 0 and 2 but not 1, which still carries V: the fold
    # never visits k1 for operand 1.  k1's V conflicts between 0 and 2; k3's
    # agrees.
    operands = stores(
        (["K", "V"], [("k1", "a"), ("k2", "b"), ("k3", "c")], ["AD"]),
        (["K", "V"], [("k2", "b"), ("k4", "d")], ["CD"]),
        (["K", "V"], [("k3", "c"), ("k1", "z")], ["PD"]),
    )
    merged = outcome(kernels.hash_merge, operands, ["K"], policy)
    assert merged == outcome(merge_rows.hash_merge, operands, ["K"], policy)
    if policy is ConflictPolicy.ERROR:
        assert merged == ("raised", "V", "a", "z")
        return
    k1 = {
        ConflictPolicy.DROP: [],
        ConflictPolicy.PREFER_LEFT: [("a", {"AD"}, {"AD", "PD"})],
        ConflictPolicy.PREFER_RIGHT: [("z", {"PD"}, {"AD", "PD"})],
    }[policy]
    rows = cells(kernels.hash_merge(operands, ["K"], policy))
    assert [row[1] for row in rows if row[0][0] == "k1"] == k1
    assert [row for row in rows if row[0][0] == "k3"] == [
        [("k3", {"AD", "PD"}, {"AD", "PD"}), ("c", {"AD", "PD"}, {"AD", "PD"})]
    ]


@pytest.mark.parametrize("policy", tuple(ConflictPolicy), ids=lambda p: p.name)
@pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0)])
def test_a_nil_cell_with_intermediates_meets_a_missing_row_and_a_nil_row(policy, order):
    # V is nil in AD's row (intermediates {CD}) and in PD's (intermediates
    # {AD}); CD carries V but has no row with key k.  Nil meets nil: the
    # tags union.  Nil meets a missing row: nothing changes.
    sources = [
        (["K", "V"], [("k", None)], ["AD"], ["CD"]),
        (["K", "V"], [("j", "v")], ["CD"], []),
        (["K", "V"], [("k", None)], ["PD"], ["AD"]),
    ]
    operands = [
        PolygenRelation.from_data(*sources[i][:3], intermediates=sources[i][3]).store
        for i in order
    ]
    merged = kernels.hash_merge(operands, ["K"], policy)
    assert exact(merged) == exact(merge_rows.hash_merge(operands, ["K"], policy))
    (row,) = [row for row in cells(merged) if row[0][0] == "k"]
    assert row[1] == (None, set(), {"AD", "CD", "PD"})


@pytest.mark.parametrize("policy", tuple(ConflictPolicy), ids=lambda p: p.name)
def test_a_two_attribute_key_matches_1_true_and_1_0(policy):
    # (1, "a"), (True, "a") and (1.0, "a") are one key: one partition,
    # whose key data keep the first operand's types.  (1.0, "b") is not.
    operands = stores(
        (["K1", "K2", "V"], [(1, "a", "v"), (2, "a", "w")], ["AD"]),
        (["K2", "K1", "W"], [("a", True, "x"), ("a", 2, None)], ["CD"]),
        (["K1", "K2", "V"], [(1.0, "b", "u"), (1.0, "a", None)], ["PD"]),
    )
    merged = kernels.hash_merge(operands, ["K1", "K2"], policy)
    assert exact(merged) == exact(
        merge_rows.hash_merge(operands, ["K1", "K2"], policy)
    )
    rows = cells(merged)
    assert [[type(datum) for datum, _, _ in row[:2]] for row in rows] == [
        [int, str], [int, str], [float, str]
    ]
    mediators = {"AD", "CD", "PD"}
    assert rows[0] == [
        (1, mediators, mediators),
        ("a", mediators, mediators),
        ("v", {"AD"}, mediators),
        ("x", {"CD"}, mediators),
    ]
