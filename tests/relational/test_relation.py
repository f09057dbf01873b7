"""Unit tests for the untagged local relation type."""

import pytest

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
