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
from repro.storage import kernels

from tests.reference import merge_rows


def stores(*operands):
    return [PolygenRelation.from_data(*operand).store for operand in operands]


def exact(store):
    return store.heading.attributes, store.columns, store.tags


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
