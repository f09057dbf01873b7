"""Which path :func:`repro.storage.kernels.restrict` takes, and what each returns.

Restrict filters in ``_survivors``: with no nil compared and, under an
ordering, one comparable type, one C-level ``map`` of θ's operator decides;
any other input runs ``theta.evaluate`` row by row.  Surviving rows are
gathered (not at all when every row passes), every cell is stamped with the
compared cells' origins, and ``_build_deduped`` runs only when two output
rows agree in data.  Difference shares the gather and the dedup.  Every
case is held row for row — order, datum types and tag ids — to the
row-at-a-time reference, and an error to the reference's error.

The cursor's rows come from ``ColumnarRelation.to_tuples``, which shares
one cell among equal (type, datum, tag) triples of ``str``, ``int``,
``bool`` and nil columns; the last tests hold each cell's datum, type and
``repr`` to the cell built for its row alone.
"""

import math
from decimal import Decimal

import pytest

from repro.core.cell import Cell, pooled_cells
from repro.core.predicate import AttributeRef, Literal, Theta
from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple
from repro.errors import IncomparableTypesError
from repro.storage import kernels

from tests.reference import rowpath

NAN = math.nan
AD, CD = frozenset({"AD"}), frozenset({"CD"})


def store(heading, rows, origins=("AD",), intermediates=()):
    """Rows tagged as a local database ships them: every cell alike."""
    return PolygenRelation.from_data(heading, rows, origins, intermediates).store


def exact(result):
    """Heading, every column's data with its type (``1`` is not ``True``),
    every tag id, in row order."""
    return (
        result.heading.attributes,
        [[(type(value), repr(value)) for value in column] for column in result.columns],
        result.tags,
    )


def restrict(s, x, theta, y=None, literal=None):
    positions = s.heading.attributes
    return kernels.restrict(s, positions.index(x), theta, None if y is None else
                            positions.index(y), literal)


def reference(s, x, theta, y=None, literal=None):
    rhs = Literal(literal) if y is None else AttributeRef(y)
    return rowpath.restrict(PolygenRelation.from_store(s), x, theta, rhs).store


def outcome(function, *args):
    """The result held exactly, or the error's type and message."""
    try:
        return exact(function(*args))
    except IncomparableTypesError as error:
        return type(error), str(error)


def checked(calls, s, x, theta, y=None, literal=None):
    """Hold Restrict's outcome to the reference's, and return what
    Restrict alone added to ``calls``."""
    before = dict(calls)
    got = outcome(restrict, s, x, theta, y, literal)
    counted = {name: calls[name] - before[name] for name in calls}
    assert got == outcome(reference, s, x, theta, y, literal)
    return counted


@pytest.fixture
def calls(monkeypatch):
    """How often Restrict gathered, deduplicated and evaluated θ per row."""
    counted = {"_gathered": 0, "_build_deduped": 0, "evaluate": 0}
    for name in ("_gathered", "_build_deduped"):
        real = getattr(kernels, name)

        def counting(*args, name=name, real=real):
            counted[name] += 1
            return real(*args)

        monkeypatch.setattr(kernels, name, counting)
    evaluate = Theta.evaluate

    def evaluating(self, left, right):
        counted["evaluate"] += 1
        return evaluate(self, left, right)

    monkeypatch.setattr(Theta, "evaluate", evaluating)
    return counted


def firms():
    return store(["NAME", "IND", "EMP"], [
        ("ibm", "tech", 300), ("dec", "tech", 120), ("bp", "oil", 80), ("ge", "tech", 250),
    ])


def test_every_row_passing_gathers_nothing_and_reuses_the_columns(calls):
    s = firms()
    counted = checked(calls, s, "IND", Theta.NE, literal="retail")
    assert counted == {"_gathered": 0, "_build_deduped": 0, "evaluate": 0}
    got = restrict(s, "IND", Theta.NE, literal="retail")
    assert all(mine is theirs for mine, theirs in zip(got.columns, s.columns))


@pytest.mark.parametrize("theta, literal, kept", [
    (Theta.EQ, "tech", 3), (Theta.LT, "tech", 1), (Theta.GE, "tech", 3), (Theta.GT, "zzz", 0),
])
def test_some_rows_passing_are_gathered(calls, theta, literal, kept):
    s = firms()
    counted = checked(calls, s, "IND", theta, literal=literal)
    assert counted == {"_gathered": 1, "_build_deduped": 0, "evaluate": 0}
    assert restrict(s, "IND", theta, literal=literal).cardinality == kept


def test_an_int_and_float_column_orders_on_the_fast_path(calls):
    s = store(["K", "V"], [(1, 2.5), (2.0, 2), (3, 1.5)])
    for theta in (Theta.LT, Theta.GE):
        assert checked(calls, s, "K", theta, "V")["evaluate"] == 0
        assert checked(calls, s, "K", theta, literal=2)["evaluate"] == 0


def test_a_column_theta_stamps_both_compared_cells_origins():
    # Per row, the stamp adds the x cell's and the y cell's origins, and a
    # literal adds nothing: each distinct (tag, x tag, y tag) once.
    s = PolygenRelation(["A", "B", "C"], [
        PolygenTuple([Cell(1, AD), Cell(1, CD), Cell("p", AD | CD)]),
        PolygenTuple([Cell(2, CD), Cell(3, AD), Cell("q", AD)]),
        PolygenTuple([Cell(4, AD), Cell(4, AD), Cell("r", CD)]),
    ]).store
    for x, theta, y in (("A", Theta.LE, "B"), ("C", Theta.NE, "A"), ("B", Theta.GT, "A")):
        assert outcome(restrict, s, x, theta, y) == outcome(reference, s, x, theta, y)
    got = PolygenRelation.from_store(restrict(s, "A", Theta.LE, "B"))
    assert [[cell.intermediates for cell in row] for row in got] == [
        [AD | CD] * 3, [AD | CD] * 3, [AD] * 3,
    ]


def test_rows_equal_once_stamped_collapse(calls):
    # Equal data whose tags differ only by the mediator the stamp adds:
    # ({AD}, {}) and ({AD}, {AD}) both become ({AD}, {AD}).
    s = PolygenRelation(["K", "V"], [
        PolygenTuple([Cell("k", AD), Cell("v", AD)]),
        PolygenTuple([Cell("k", AD, AD), Cell("v", AD, AD)]),
        PolygenTuple([Cell("j", AD), Cell("v", AD)]),
    ]).store
    counted = checked(calls, s, "K", Theta.EQ, literal="k")
    assert counted == {"_gathered": 1, "_build_deduped": 1, "evaluate": 0}
    assert restrict(s, "K", Theta.EQ, literal="k").cardinality == 1


FALLBACKS = {
    # A nil never satisfies θ, not even nil = nil or nil <> x.
    "nil-in-x": ([("a", 1), (None, 2), ("b", 3)], [(Theta.NE, "a"), (Theta.EQ, None),
                                                    (Theta.LT, "b")]),
    "nil-literal": ([("a", 1), ("b", 2)], [(Theta.EQ, None), (Theta.NE, None)]),
    # Ordering across types: the row loop raises at the first such row.
    "mixed-types": ([(1, 1), ("a", 2), (True, 3)], [(Theta.LT, 5), (Theta.GE, "a")]),
    "bool-and-int": ([(True, 1), (0, 2), (1.0, 3)], [(Theta.GT, 0), (Theta.LE, False)]),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallbacks_run_the_row_loop(calls, case):
    rows, comparisons = FALLBACKS[case]
    s = store(["X", "N"], rows)
    for theta, literal in comparisons:
        assert checked(calls, s, "X", theta, literal=literal)["evaluate"] > 0


def test_a_mixed_ordering_raises_at_the_same_row():
    # str against int at row 1, bool against int at row 2: the first one
    # names the error, as in the row loop.
    s = store(["X", "Y"], [(1, 2), ("a", 2), (True, 2)])
    with pytest.raises(IncomparableTypesError, match="str with int"):
        restrict(s, "X", Theta.LT, "Y")
    assert outcome(restrict, s, "X", Theta.LT, "Y") == outcome(reference, s, "X", Theta.LT, "Y")


@pytest.mark.parametrize("theta", list(Theta))
def test_nil_in_the_y_column_and_equal_values_across_types(theta):
    s = store(["X", "Y", "N"], [
        (1, True, 0), (1.0, 1, 1), (True, None, 2), (0, -0.0, 3), (NAN, NAN, 4), (2, 1.0, 5),
        (None, 1, 6),
    ])
    for x, y in (("X", "Y"), ("Y", "X")):
        assert outcome(restrict, s, x, theta, y) == outcome(reference, s, x, theta, y)
    for literal in (1, True, 1.0, NAN, -0.0):
        assert outcome(restrict, s, "X", theta, None, literal) == outcome(
            reference, s, "X", theta, None, literal)


@pytest.mark.parametrize("theta", [Theta.EQ, Theta.NE, Theta.LT, Theta.GE])
def test_nan_takes_the_fast_path_and_matches_nothing_but_ne(calls, theta):
    shared = NAN
    s = store(["X", "N"], [(shared, 1), (float("nan"), 2), (1.5, 3), (2.0, 4)])
    for literal in (shared, 1.5):
        assert checked(calls, s, "X", theta, literal=literal)["evaluate"] == 0


def test_difference_gathers_survivors_and_stamps_them_alike(calls):
    left = PolygenRelation(["K", "V"], [
        PolygenTuple([Cell("a", AD), Cell("x", AD)]),
        PolygenTuple([Cell("b", AD), Cell("y", AD)]),
        PolygenTuple([Cell("b", AD, CD), Cell("y", AD, CD)]),  # equal once stamped
        PolygenTuple([Cell("c", AD), Cell(None)]),
    ]).store
    right = store(["K", "V"], [("a", "x"), ("z", "z")], origins=["CD"])
    got = kernels.difference(left, right)
    expected = rowpath.difference(
        PolygenRelation.from_store(left), PolygenRelation.from_store(right)).store
    assert exact(got) == exact(expected)
    assert calls == {"_gathered": 1, "_build_deduped": 1, "evaluate": 0}
    assert got.data_rows() == [("b", "y"), ("c", None)]
    nothing = store(["K", "V"], [("q", "q")], origins=[])
    assert exact(kernels.difference(left, nothing)) == exact(left)
    assert calls["_gathered"] == 1


# -- rowification -------------------------------------------------------------


class Text(str):
    """A ``str`` subclass: equal to its ``str`` but not of its type."""


ROWIFIED = {
    "one-true-one-point-oh": [1, True, 1.0, 1, True, 1.0],
    "zeros": [0, False, 0.0, -0.0, 0, False, 0.0, -0.0],
    "ints-and-bools": [1, True, 0, False, 1, True, None, None],
    "decimals": [Decimal("1.0"), Decimal("1.00"), Decimal("1.0"), 1],
    "nan": [NAN, float("nan"), NAN, 1.0],
    "str-subclass": ["a", Text("a"), "a", Text("a")],
    "strings": ["x", "y", "x", None, "x"],
}


@pytest.mark.parametrize("case", sorted(ROWIFIED))
def test_rowified_cells_keep_each_datums_type_and_repr(case):
    # Four copies, so each value repeats enough to share its cell; a row
    # number keeps rows whose values are equal across types apart.
    s = store(["V", "N"], [(value, at) for at, value in enumerate(ROWIFIED[case] * 4)])
    pair = s.pool.pair
    alone = pooled_cells(s.columns[0], map(pair, s.tags[0]))
    rows = s.to_tuples()
    assert [(type(row[0].datum), repr(row[0].datum)) for row in rows] == [
        (type(cell.datum), repr(cell.datum)) for cell in alone
    ]
    assert [row[0] for row in rows] == alone
    assert [row.data for row in rows] == s.data_rows()


def test_rowified_cells_are_shared_only_among_equal_triples():
    s = store(["V", "W", "N"], [("xy"[at % 2], (0.0, -0.0)[at % 2], at) for at in range(16)])
    rows = s.to_tuples()
    names, floats = [row[0] for row in rows], [row[1] for row in rows]
    assert names[0] is names[2] and names[0] == names[2] and names[0] is not names[1]
    assert floats[0] is not floats[2]  # a float column builds a cell per row
    short = store(["V", "N"], [("x", at) for at in range(15)]).to_tuples()
    assert short[0][0] is not short[1][0]  # too few rows to share
