"""Unit tests for polygen tuples and relations."""

import pytest

from repro.core.cell import Cell
from repro.core.heading import Heading
from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple
from repro.core.tags import sources
from repro.errors import DegreeMismatchError, UnknownAttributeError


def cell(datum, origins=(), intermediates=()):
    return Cell.of(datum, origins, intermediates)


class TestPolygenTuple:
    def test_data_portion(self):
        t = PolygenTuple([cell("a", ["AD"]), cell(1, ["CD"])])
        assert t.data == ("a", 1)

    def test_origins_and_intermediates_union(self):
        t = PolygenTuple([cell("a", ["AD"], ["PD"]), cell("b", ["CD"], ["AD"])])
        assert t.origins() == sources("AD", "CD")
        assert t.intermediates() == sources("PD", "AD")

    def test_take_reorders(self):
        t = PolygenTuple([cell("a"), cell("b"), cell("c")])
        assert t.take([2, 0]).data == ("c", "a")

    def test_concat(self):
        t = PolygenTuple([cell("a")]).concat(PolygenTuple([cell("b")]))
        assert t.data == ("a", "b")

    def test_replace_cell(self):
        t = PolygenTuple([cell("a"), cell("b")]).replace_cell(1, cell("z"))
        assert t.data == ("a", "z")

    def test_with_intermediates_hits_every_cell(self):
        t = PolygenTuple([cell("a", ["AD"]), cell("b", ["CD"])])
        out = t.with_intermediates(sources("PD"))
        assert all(c.intermediates == sources("PD") for c in out)

    def test_with_intermediates_empty_is_noop(self):
        t = PolygenTuple([cell("a")])
        assert t.with_intermediates(frozenset()) is t

    def test_merge_tags_cell_wise(self):
        t = PolygenTuple([cell("a", ["AD"])])
        s = PolygenTuple([cell("a", ["CD"], ["PD"])])
        merged = t.merge_tags(s)
        assert merged[0].origins == sources("AD", "CD")
        assert merged[0].intermediates == sources("PD")

    def test_equality_and_hash(self):
        t = PolygenTuple([cell("a", ["AD"])])
        s = PolygenTuple([cell("a", ["AD"])])
        assert t == s and hash(t) == hash(s)


class TestRelationConstruction:
    def test_heading_coercion_from_names(self):
        r = PolygenRelation(["A", "B"])
        assert isinstance(r.heading, Heading)
        assert r.degree == 2 and r.cardinality == 0

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatchError):
            PolygenRelation(["A", "B"], [PolygenTuple([cell("x")])])

    def test_from_data_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatchError):
            PolygenRelation.from_data(["A", "B"], [["only-one"]])

    def test_exact_duplicates_collapse(self):
        row = PolygenTuple([cell("x", ["AD"])])
        r = PolygenRelation(["A"], [row, row])
        assert r.cardinality == 1

    def test_data_duplicates_with_different_tags_coexist(self):
        r = PolygenRelation(
            ["A"],
            [PolygenTuple([cell("x", ["AD"])]), PolygenTuple([cell("x", ["CD"])])],
        )
        assert r.cardinality == 2

    def test_from_data_tags_uniformly(self):
        r = PolygenRelation.from_data(["A", "B"], [["x", "y"]], origins=["AD"])
        for c in r.tuples[0]:
            assert c.origins == sources("AD")
            assert c.intermediates == frozenset()

    def test_from_data_nil_has_no_origins(self):
        r = PolygenRelation.from_data(["A"], [[None]], origins=["AD"], intermediates=["PD"])
        c = r.tuples[0][0]
        assert c.is_nil
        assert c.origins == frozenset()
        assert c.intermediates == sources("PD")

    def test_from_cells(self):
        r = PolygenRelation.from_cells(["A"], [[cell("x", ["AD"])]])
        assert r.tuples[0][0].origins == sources("AD")

    def test_empty_like(self):
        r = PolygenRelation.from_data(["A"], [["x"]])
        assert r.empty_like().cardinality == 0
        assert r.empty_like().heading == r.heading


class TestRelationAccessors:
    def setup_method(self):
        self.r = PolygenRelation.from_cells(
            ["A", "B"],
            [
                [cell("a1", ["AD"], ["PD"]), cell("b1", ["CD"])],
                [cell("a2", ["PD"]), cell("b2", ["AD"], ["CD"])],
            ],
        )

    def test_column(self):
        col = self.r.column("B")
        assert [c.datum for c in col] == ["b1", "b2"]

    def test_column_unknown(self):
        with pytest.raises(UnknownAttributeError):
            self.r.column("Z")

    def test_data_rows(self):
        assert self.r.data_rows() == (("a1", "b1"), ("a2", "b2"))

    def test_all_origins(self):
        assert self.r.all_origins() == sources("AD", "CD", "PD")

    def test_all_intermediates(self):
        assert self.r.all_intermediates() == sources("PD", "CD")

    def test_contributing_sources(self):
        assert self.r.contributing_sources() == sources("AD", "CD", "PD")

    def test_truthiness_is_not_cardinality(self):
        assert PolygenRelation(["A"])  # empty relation is still truthy


class TestRelationEquality:
    def test_order_insensitive(self):
        a = PolygenRelation.from_data(["A"], [["x"], ["y"]], origins=["AD"])
        b = PolygenRelation.from_data(["A"], [["y"], ["x"]], origins=["AD"])
        assert a == b
        assert hash(a) == hash(b)

    def test_tags_matter(self):
        a = PolygenRelation.from_data(["A"], [["x"]], origins=["AD"])
        b = PolygenRelation.from_data(["A"], [["x"]], origins=["CD"])
        assert a != b

    def test_same_data_ignores_tags(self):
        a = PolygenRelation.from_data(["A"], [["x"]], origins=["AD"])
        b = PolygenRelation.from_data(["A"], [["x"]], origins=["CD"])
        assert a.same_data(b)

    def test_same_data_heading_sensitive(self):
        a = PolygenRelation.from_data(["A"], [["x"]])
        b = PolygenRelation.from_data(["B"], [["x"]])
        assert not a.same_data(b)


class TestRelationDerivation:
    def test_rename(self):
        r = PolygenRelation.from_data(["BNAME"], [["IBM"]], origins=["AD"])
        out = r.rename({"BNAME": "ONAME"})
        assert out.attributes == ("ONAME",)
        assert out.tuples[0][0].datum == "IBM"

    def test_sorted_by_data_puts_nil_last(self):
        r = PolygenRelation.from_data(["A"], [[None], ["b"], ["a"]])
        assert [t.data[0] for t in r.sorted_by_data()] == ["a", "b", None]

    def test_repr_mentions_cardinality(self):
        r = PolygenRelation.from_data(["A"], [["x"]])
        assert "cardinality=1" in repr(r)
