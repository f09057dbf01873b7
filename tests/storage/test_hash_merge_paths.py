"""Which of Merge's three paths an input takes, and what each returns.

:func:`repro.storage.kernels.hash_merge` gathers the whole Merge without a
fold when every operand carries every attribute with one tag id per
column, its keys are unique and non-nil, and shared cells agree; it never
reaches ``_fold_columns`` then.  Otherwise it folds a partition as columns
when every operand has at most one row in it, and row at a time (through
``_merge_partition``) when a key repeats inside one operand or a conflict
``DROP`` or ``ERROR`` must act on.  Each case is also checked row for row
against the all-rows kernel in :mod:`tests.reference.merge_rows`.
"""

import math

import pytest

from repro.core.cell import ConflictPolicy
from repro.core.relation import PolygenRelation
from repro.core.heading import Heading
from repro.errors import CoalesceConflictError
from repro.storage import kernels
from repro.storage.columnar import ColumnarRelation

from tests.reference import merge_rows

POLICIES = tuple(ConflictPolicy)


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


# -- the gather path -------------------------------------------------------


@pytest.fixture
def fold_calls(monkeypatch):
    """How many Merges went past the gather path into the fold."""
    calls = []
    real = kernels._fold_columns

    def counting(stores, parts, size, names, policy):
        calls.append(parts)
        return real(stores, parts, size, names, policy)

    monkeypatch.setattr(kernels, "_fold_columns", counting)
    return calls


def agreeing():
    """Uniformly tagged operands (every column one tag id), unique keys,
    shared cells equal under ``==`` — ``1``, ``True`` and ``1.0`` among
    them — columns in differing orders, and k1 missing from the middle
    operand."""
    return [
        (["K", "V", "W"], [("k1", 1, "a"), ("k2", "b", "c")], ["AD"]),
        (["W", "K", "V"], [("c", "k2", "b"), ("d", "k3", True)], ["CD"]),
        (["V", "W", "K"], [(1.0, "a", "k1"), (True, "d", "k3"), ("e", "f", "k4")], ["PD"]),
    ]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_uniform_unique_agreeing_operands_take_the_gather_path(fold_calls, policy):
    operands = stores(*agreeing())
    merged = kernels.hash_merge(operands, ["K"], policy)
    assert fold_calls == []
    assert exact(merged) == exact(merge_rows.hash_merge(operands, ["K"], policy))
    # Each cell keeps its first contributor's datum, type included.
    assert exact(merged)[1] == [
        [(str, "k1"), (str, "k2"), (str, "k3"), (str, "k4")],
        [(int, 1), (str, "b"), (bool, True), (str, "e")],
        [(str, "a"), (str, "c"), (str, "d"), (str, "f")],
    ]
    k1, k2, k3, k4 = cells(merged)
    assert k1[1] == (1, {"AD", "PD"}, {"AD", "PD"})
    assert k2[2] == ("c", {"AD", "CD"}, {"AD", "CD"})
    assert k3[0] == ("k3", {"CD", "PD"}, {"CD", "PD"})
    assert k4 == [(datum, {"PD"}, {"PD"}) for datum in ("k4", "e", "f")]


def test_the_gather_path_unions_intermediates_and_key_origins(fold_calls):
    # A two-attribute key; the operands' own intermediates survive the
    # merge, and the stamp adds every contributor's key-cell origins.
    operands = [
        PolygenRelation.from_data(heading, rows, origins, intermediates).store
        for heading, rows, origins, intermediates in (
            (["K1", "K2", "V"], [(1, "a", "v"), (2, "a", "w")], ["AD"], ["PD"]),
            (["K2", "K1", "V"], [("a", 2, "w"), ("b", 1, "u")], ["CD"], []),
        )
    ]
    merged = kernels.hash_merge(operands, ["K1", "K2"], ConflictPolicy.ERROR)
    assert fold_calls == []
    assert exact(merged) == exact(
        merge_rows.hash_merge(operands, ["K1", "K2"], ConflictPolicy.ERROR)
    )
    assert cells(merged) == [
        [(1, {"AD"}, {"AD", "PD"}), ("a", {"AD"}, {"AD", "PD"}), ("v", {"AD"}, {"AD", "PD"})],
        [(2, {"AD", "CD"}, {"AD", "CD", "PD"}), ("a", {"AD", "CD"}, {"AD", "CD", "PD"}),
         ("w", {"AD", "CD"}, {"AD", "CD", "PD"})],
        [(1, {"CD"}, {"CD"}), ("b", {"CD"}, {"CD"}), ("u", {"CD"}, {"CD"})],
    ]


def test_nil_cells_under_one_tag_and_an_empty_operand_take_the_gather_path(fold_calls):
    # With no origins a nil cell and a datum share one tag id, so the
    # column is uniform; nil meets nil in k1, as equal data.
    operands = [
        PolygenRelation.from_data(["K", "V"], [("k1", None), ("k2", "x")], [], ["AD"]).store,
        PolygenRelation(["K", "V"], ()).store,
        PolygenRelation.from_data(["V", "K"], [(None, "k1"), (None, "k3")], [], ["CD"]).store,
    ]
    merged = kernels.hash_merge(operands, ["K"], ConflictPolicy.DROP)
    assert fold_calls == []
    assert exact(merged) == exact(
        merge_rows.hash_merge(operands, ["K"], ConflictPolicy.DROP)
    )
    assert merged.columns == (("k1", "k2", "k3"), (None, "x", None))


def _disagreeing():
    cases = agreeing()
    heading, rows, origins = cases[1]
    cases[1] = (heading, [("c", "k2", "B"), rows[1]], origins)
    return cases


def _nil_key():
    cases = agreeing()
    heading, rows, origins = cases[2]
    cases[2] = (heading, rows + [("g", "h", None)], origins)
    return cases


def _repeated_key():
    cases = agreeing()
    heading, rows, origins = cases[0]
    cases[0] = (heading, rows + [("k1", 1, "z")], origins)
    return cases


def _lacking_attribute():
    cases = agreeing()
    cases[1] = (["K", "V"], [("k2", "b"), ("k3", True)], ["CD"])
    return cases


def _nil_in_a_fresh_row():
    # The nil cell has empty origins, so its column holds two tag ids.
    cases = agreeing()
    heading, rows, origins = cases[2]
    cases[2] = (heading, rows[:2] + [(None, "f", "k4")], origins)
    return cases


def _non_uniform_tags():
    operands = stores(*agreeing())
    first = operands[0]
    pool = first.pool
    other = pool.intern(frozenset({"AD"}), frozenset({"CD"}))
    tags = (first.tags[0], first.tags[1], (first.tags[2][0], other))
    operands[0] = ColumnarRelation(first.heading, first.columns, tags, pool)
    return operands


FALLBACKS = {
    "one-disagreeing-cell": lambda: stores(*_disagreeing()),
    "a-nil-key": lambda: stores(*_nil_key()),
    "a-repeated-key": lambda: stores(*_repeated_key()),
    "a-non-uniform-tag-column": _non_uniform_tags,
    "an-operand-lacking-an-attribute": lambda: stores(*_lacking_attribute()),
    "a-nil-cell-in-a-fresh-row": lambda: stores(*_nil_in_a_fresh_row()),
}


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("case", FALLBACKS)
def test_other_inputs_fall_back_to_the_fold(fold_calls, case, policy):
    operands = FALLBACKS[case]()
    merged = outcome(kernels.hash_merge, operands, ["K"], policy)
    assert len(fold_calls) == 1
    assert merged == outcome(merge_rows.hash_merge, operands, ["K"], policy)


@pytest.mark.parametrize("nan", [math.nan, float("nan")], ids=["shared", "fresh"])
def test_a_shared_nan_cell_is_a_disagreement(fold_calls, nan):
    # The same NaN object on both sides is unequal under ==, as in the
    # fold, which settles it by policy; tuple equality would call it equal.
    operands = [
        ColumnarRelation.uniform(Heading(["K", "V"]), (("k",), (math.nan,)), ["AD"]),
        ColumnarRelation.uniform(Heading(["K", "V"]), (("k",), (nan,)), ["CD"]),
    ]
    for policy in POLICIES:
        merged = outcome(kernels.hash_merge, operands, ["K"], policy)
        assert merged == outcome(merge_rows.hash_merge, operands, ["K"], policy)
    assert len(fold_calls) == len(POLICIES)
    dropped = kernels.hash_merge(operands, ["K"], ConflictPolicy.DROP)
    assert dropped.cardinality == 0


@pytest.mark.parametrize(
    "keyed",
    [
        [["a", "b"], ["b", "c", 1], [True, "d", "a"]],
        [[], ["x"], ["x", "y"]],
        [[(1, "a"), (2, "a")], [(2, "a"), (1.0, "a"), (3, "b")]],
    ],
    ids=["strings-and-1-true", "empty-first", "two-attribute"],
)
def test_unique_partitions_number_as_partitions_does(keyed):
    # The gather path and a fold it declines share this one map.
    parts, size = kernels._unique_partitions(keyed)
    assert (parts, size, set()) == kernels._partitions(keyed)
    assert type(parts[0]) is range


@pytest.mark.parametrize(
    "keyed",
    [[["a", "a"], ["b"]], [["a"], ["b", "b"]], [["a"], ["b", "a", "b"]], [["a", None], ["b"]],
     [["a"], [None, "b"]]],
    ids=["repeat-first", "repeat-fresh", "repeat-shared", "nil-first", "nil-later"],
)
def test_unique_partitions_decline_repeated_or_nil_keys(keyed):
    assert kernels._unique_partitions(keyed) is None
