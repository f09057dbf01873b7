"""Which path :func:`repro.storage.kernels.hash_join` takes, and what each returns.

The join matches rows in ``_pairs``: when the right operand's keys are
unique (nil and NaN keys aside: they match nothing), each left key probes a
key → row dict; a repeated right key falls back to ``buckets``.  Both sides'
columns are then gathered at the matched rows, every cell is stamped with
the union of its row's key cells' origins, and ``_build_deduped`` runs only
when two output rows agree in data.  Every case is held row for row —
order, datum types and tag ids — to the definition, ``restrict(product(p1,
p2), x = y)``, and the outer join to the row-at-a-time reference.
"""

import math

import pytest

from repro.core.cell import Cell
from repro.core.predicate import Theta
from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple
from repro.core.tags import EMPTY_SOURCES
from repro.storage import kernels
from repro.storage.tag_pool import TagPool

from tests.reference import rowpath

NAN = math.nan


def store(heading, rows, origins=("AD",), intermediates=()):
    """Rows tagged as a local database ships them: every cell alike."""
    return PolygenRelation.from_data(heading, rows, origins, intermediates).store


def exact(result):
    """Heading, every column's data with its type (``1`` is not ``True``),
    every tag id, in row order."""
    return (
        result.heading.attributes,
        [[(type(value), value) for value in column] for column in result.columns],
        result.tags,
    )


def join(s1, s2, left_pos=(0,), right_pos=(0,)):
    heading = s1.heading.concat(s2.heading)
    return kernels.hash_join(s1, s2, heading, left_pos, right_pos)


def definition(s1, s2, left_pos=(0,), right_pos=(0,)):
    """``restrict(product(s1, s2), x = y)``, one Restrict per key pair."""
    out = kernels.product(s1, s2, s1.heading.concat(s2.heading))
    for x, y in zip(left_pos, right_pos):
        out = kernels.restrict(out, x, Theta.EQ, s1.degree + y, None)
    return out


def outer(s1, s2, left_pos=(0,), right_pos=(0,)):
    heading = s1.heading.concat(s2.heading)
    return kernels.outer_join(s1, s2, heading, left_pos, right_pos)


def outer_reference(s1, s2, left_pos=(0,), right_pos=(0,)):
    pairs = [
        (s1.heading.attributes[x], s2.heading.attributes[y])
        for x, y in zip(left_pos, right_pos)
    ]
    return rowpath.outer_join(
        PolygenRelation.from_store(s1), PolygenRelation.from_store(s2), pairs
    ).store


@pytest.fixture
def calls(monkeypatch):
    """How often the join reached ``buckets`` and ``_build_deduped``."""
    counted = {"buckets": 0, "_build_deduped": 0}
    for name in counted:
        real = getattr(kernels, name)

        def counting(*args, name=name, real=real):
            counted[name] += 1
            return real(*args)

        monkeypatch.setattr(kernels, name, counting)
    return counted


def people():
    return store(["PNAME", "EMPLOYER"], [
        ("ann", "ibm"), ("bob", "dec"), ("cy", "ibm"), ("di", "ge"), ("ed", None),
    ], origins=["AD"])


def firms(*rows):
    return store(["NAME", "IND"], list(rows), origins=["CD"])


def test_unique_right_keys_take_the_probe(calls):
    left = people()
    right = firms(("dec", "tech"), ("ibm", "tech"), ("bp", "oil"))
    got = join(left, right, (1,), (0,))
    assert calls == {"buckets": 0, "_build_deduped": 0}
    assert exact(got) == exact(definition(left, right, (1,), (0,)))
    assert got.cardinality == 3


def test_a_repeated_right_key_falls_back_to_buckets(calls):
    left = people()
    right = firms(("ibm", "tech"), ("dec", "tech"), ("ibm", "services"), ("ibm", "cloud"))
    got = join(left, right, (1,), (0,))
    assert calls["buckets"] == 1
    assert exact(got) == exact(definition(left, right, (1,), (0,)))
    # Every match of a repeated key, in right row order, per left row.
    assert [row[1:] for row in got.data_rows()] == [
        ("ibm", "ibm", "tech"), ("ibm", "ibm", "services"), ("ibm", "ibm", "cloud"),
        ("dec", "dec", "tech"),
        ("ibm", "ibm", "tech"), ("ibm", "ibm", "services"), ("ibm", "ibm", "cloud"),
    ]


def test_matched_cells_gain_both_key_cells_origins():
    left = store(["K", "V"], [("k", "v")], origins=["AD"], intermediates=["PD"])
    right = store(["J", "W"], [("k", "w")], origins=["CD"])
    (row,) = PolygenRelation.from_store(join(left, right))
    assert [cell.intermediates for cell in row] == [frozenset({"AD", "CD", "PD"})] * 2 + [
        frozenset({"AD", "CD"})
    ] * 2


@pytest.mark.parametrize(
    "right_keys, bucketed",
    [
        ((True, None, NAN, "b"), 0),  # unique, with one nil and one NaN
        ((None, None, True, "b"), 0),  # unique but for two nils: still the probe
        ((True, None, 1.0, NAN), 1),  # True and 1.0 are one key: buckets
    ],
    ids=["unique", "two-nils", "repeated"],
)
def test_nil_and_nan_match_nothing_and_one_true_one_point_oh_are_one_key(
    calls, right_keys, bucketed
):
    fresh_nan = float("nan")
    left = store(["K", "V"], [(None, "n"), (NAN, "shared"), (fresh_nan, "fresh"), (1, "one"),
                              ("b", "b")])
    right = store(["J", "W"], [(key, f"w{at}") for at, key in enumerate(right_keys)],
                  origins=["CD"])
    got = join(left, right)
    assert calls["buckets"] == bucketed
    for operands in ((left, right), (right, left)):
        got = join(*operands)
        assert exact(got) == exact(definition(*operands))
        assert None not in got.columns[0] and all(value == value for value in got.columns[0])
        assert exact(outer(*operands)) == exact(outer_reference(*operands))
    # Left ``1`` keeps its type and meets ``True`` (and ``1.0``) on the right.
    ones = [row for row in join(left, right).data_rows() if row[1] == "one"]
    assert [type(row[2]) for row in ones] == [type(key) for key in right_keys if key == 1]


@pytest.mark.parametrize("repeat_key", [False, True], ids=["unique", "repeated"])
def test_a_two_attribute_key(repeat_key):
    left = store(["A", "B", "V"], [(1, "x", "a"), (1, "y", "b"), (2, "x", "c"), (None, "x", "d"),
                                   (1, NAN, "e")])
    rows = [("x", 1, "p"), ("y", 2, "q"), ("y", 1, "r")] + ([("x", 1, "s")] if repeat_key else [])
    right = store(["C", "D", "W"], rows, origins=["CD"])
    for positions in (((0, 1), (1, 0)), ((1, 0), (0, 1))):
        got = join(left, right, *positions)
        assert exact(got) == exact(definition(left, right, *positions))
        assert exact(outer(left, right, *positions)) == exact(
            outer_reference(left, right, *positions)
        )
    assert join(left, right, (0, 1), (1, 0)).cardinality == (3 if repeat_key else 2)


@pytest.mark.parametrize("which", ["left", "right", "both", "no-match"])
def test_empty_and_no_match_operands(which):
    left, right = people(), firms(("dec", "tech"), ("ibm", "tech"))
    if which in ("left", "both"):
        left = store(["PNAME", "EMPLOYER"], [])
    if which in ("right", "both"):
        right = store(["NAME", "IND"], [])
    if which == "no-match":
        right = firms(("bp", "oil"))
    got = join(left, right, (1,), (0,))
    assert exact(got) == exact(definition(left, right, (1,), (0,)))
    assert got.cardinality == 0
    assert got.heading.attributes == ("PNAME", "EMPLOYER", "NAME", "IND")
    padded = outer(left, right, (1,), (0,))
    assert exact(padded) == exact(outer_reference(left, right, (1,), (0,)))
    assert padded.cardinality == left.cardinality + right.cardinality


def test_operands_on_different_pools():
    left = people()
    right = firms(("ibm", "tech"), ("dec", "tech"), ("ibm", "services"))
    elsewhere = right.translated(TagPool())
    assert elsewhere.pool is not left.pool
    for kernel in (join, outer):
        got = kernel(left, elsewhere, (1,), (0,))
        assert got.pool is left.pool
        assert exact(got) == exact(kernel(left, right, (1,), (0,)))


def test_outer_pads_are_nil_cells_carrying_the_rows_own_key_origins():
    left = store(["K", "V"], [("a", "v"), ("b", "u")], origins=["AD"])
    right = store(["J", "W"], [("a", "w"), ("c", "x")], origins=["CD"])
    got = outer(left, right)
    assert exact(got) == exact(outer_reference(left, right))
    pool = got.pool
    only_ad = pool.intern(EMPTY_SOURCES, frozenset({"AD"}))
    only_cd = pool.intern(EMPTY_SOURCES, frozenset({"CD"}))
    assert got.data_rows() == [
        ("a", "v", "a", "w"), ("b", "u", None, None), (None, None, "c", "x"),
    ]
    assert got.tag_rows()[1][2:] == (only_ad, only_ad)
    assert got.tag_rows()[2][:2] == (only_cd, only_cd)


def test_rows_equal_once_stamped_collapse(calls):
    # Two left rows equal in data whose tags differ only by a mediator the
    # stamp adds: ({AD}, {}) and ({AD}, {CD}) both become ({AD}, {AD, CD}).
    ad = frozenset({"AD"})
    left = PolygenRelation(["K", "V"], [
        PolygenTuple([Cell("k", ad), Cell("v", ad)]),
        PolygenTuple([Cell("k", ad, frozenset({"CD"})), Cell("v", ad, frozenset({"CD"}))]),
    ]).store
    right = store(["J", "W"], [("k", "w")], origins=["CD"])
    assert left.cardinality == 2
    got = join(left, right)
    assert calls["_build_deduped"] == 1
    assert exact(got) == exact(definition(left, right))
    assert got.cardinality == 1
    assert exact(outer(left, right)) == exact(outer_reference(left, right))
