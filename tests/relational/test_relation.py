"""Unit tests for the untagged local relation type."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DegreeMismatchError, UnknownAttributeError
from repro.relational.relation import Relation


class TestConstruction:
    def test_rows_dedupe(self):
        r = Relation(["A"], [("x",), ("x",), ("y",)])
        assert r.cardinality == 2

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            Relation(["A", "B"], [("x",)])

    def test_iteration_order_is_insertion(self):
        r = Relation(["A"], [("b",), ("a",)])
        assert list(r) == [("b",), ("a",)]

    def test_truthy_when_empty(self):
        assert Relation(["A"])


class TestFromColumns:
    def test_dedups_keeping_first_occurrences_in_order(self):
        r = Relation.from_columns(["A", "B"], [[2, 1, 2, 3], ["x", "y", "x", "x"]])
        assert r.rows == ((2, "x"), (1, "y"), (3, "x"))
        assert r.columns == ((2, 1, 3), ("x", "y", "x"))
        assert r.cardinality == len(r) == 3

    def test_distinct_tuple_columns_are_reused_as_built(self):
        a, b = (1, 2), ("x", "x")
        r = Relation.from_columns(["A", "B"], [a, b])
        assert r.columns[0] is a and r.columns[1] is b

    def test_list_columns_become_tuples(self):
        assert Relation.from_columns(["A"], [[1, 2]]).columns == ((1, 2),)

    @pytest.mark.parametrize(
        "columns", [[[1, 2], [3]], [[1, 2]], [[1], [2], [3]], []]
    )
    def test_ragged_or_wrong_degree_rejected(self, columns):
        with pytest.raises(DegreeMismatchError):
            Relation.from_columns(["A", "B"], columns)

    def test_equals_and_hashes_like_its_row_built_twin(self):
        by_rows = Relation(["A", "B"], [(1, "x"), (1, "x"), (None, "y")])
        by_columns = Relation.from_columns(["A", "B"], [[1, 1, None], ["x", "x", "y"]])
        assert by_columns == by_rows and by_rows == by_columns
        assert hash(by_columns) == hash(by_rows)
        assert list(by_columns) == list(by_rows)
        assert by_columns.column("B") == by_rows.column("B") == ("x", "y")

    def test_empty_columns(self):
        r = Relation.from_columns(["A", "B"], [[], []])
        assert r.rows == () and r.cardinality == 0
        assert r == Relation(["A", "B"])

    def test_row_built_relation_has_the_column_view(self):
        assert Relation(["A", "B"], [(1, "x"), (2, "y")]).columns == ((1, 2), ("x", "y"))
        assert Relation(["A", "B"]).columns == ((), ())

    def test_a_distinct_first_column_keeps_later_repeats(self):
        r = Relation.from_columns(["A", "B"], [[1, 2, 3], ["x", "x", "x"]])
        assert r.rows == ((1, "x"), (2, "x"), (3, "x"))

    def test_rows_repeating_in_the_first_column_still_collapse(self):
        nan = float("nan")
        r = Relation.from_columns(["A", "B"], [[nan, nan, 1, True], ["x", "x", 2, 2.0]])
        assert r.cardinality == 2 and r.rows[1] == (1, 2)
        assert type(r.rows[1][0]) is int and type(r.rows[1][1]) is int


#: One NaN object, drawn twice, equals itself in a row; a second NaN
#: object equals neither.  1, True and 1.0 are one value, as are 0.0 and
#: -0.0, so a distinctness test finer than ``==`` keeps rows the row
#: constructor collapses.
NAN = float("nan")
OTHER_NAN = float("nan")
CELLS = st.sampled_from([0, 1, True, 1.0, 0.0, -0.0, None, "a", "b", NAN, OTHER_NAN])


@st.composite
def column_lists(draw):
    count = draw(st.integers(0, 12))
    # A wide first column is often distinct (the proof path), a narrow one
    # repeats (the dedup path); later columns repeat freely.
    first = draw(st.sampled_from([CELLS, st.one_of(CELLS, st.integers(2, 60))]))
    later = [CELLS] * draw(st.integers(0, 2))
    return [draw(st.lists(cells, min_size=count, max_size=count)) for cells in [first, *later]]


@settings(max_examples=400, deadline=None)
@given(column_lists())
def test_from_columns_keeps_the_row_constructors_rows_in_order(columns):
    heading = [f"C{i}" for i in range(len(columns))]
    built = Relation.from_columns(heading, columns).rows
    expected = Relation(heading, zip(*columns)).rows
    assert built == expected
    # == takes 1 for True and 0.0 for -0.0; repr and identity do not.
    assert list(map(repr, built)) == list(map(repr, expected))
    assert [list(map(id, row)) for row in built] == [list(map(id, row)) for row in expected]


class TestAccessors:
    def setup_method(self):
        self.r = Relation(["BNAME", "IND"], [("IBM", "High Tech"), ("BP", "Energy")])

    def test_column(self):
        assert self.r.column("IND") == ("High Tech", "Energy")

    def test_column_unknown(self):
        with pytest.raises(UnknownAttributeError):
            self.r.column("Z")

    def test_row_dict(self):
        assert self.r.row_dict(("IBM", "High Tech")) == {
            "BNAME": "IBM",
            "IND": "High Tech",
        }

    def test_degree_and_len(self):
        assert self.r.degree == 2
        assert len(self.r) == 2


class TestDerivation:
    def test_rename(self):
        r = Relation(["BNAME"], [("IBM",)]).rename({"BNAME": "ONAME"})
        assert r.attributes == ("ONAME",)
        assert r.rows == (("IBM",),)

    def test_replace_rows(self):
        r = Relation(["A"], [("x",)]).replace_rows([("y",)])
        assert r.rows == (("y",),)

    def test_equality_is_set_semantics(self):
        assert Relation(["A"], [("x",), ("y",)]) == Relation(["A"], [("y",), ("x",)])
        assert Relation(["A"], [("x",)]) != Relation(["B"], [("x",)])

    def test_hashable(self):
        assert len({Relation(["A"], [("x",)]), Relation(["A"], [("x",)])}) == 1
