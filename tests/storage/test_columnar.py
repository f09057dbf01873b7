"""Unit tests for the columnar relation store and its facade round-trips."""

import pytest

from repro.core.cell import Cell
from repro.core.heading import Heading
from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple
from repro.core.tags import sources
from repro.errors import DegreeMismatchError
from repro.storage.columnar import ColumnarRelation
from repro.storage.tag_pool import GLOBAL_TAG_POOL, TagPool


def cell(datum, origins=(), intermediates=()):
    return Cell.of(datum, origins, intermediates)


SAMPLE_ROWS = [
    [cell("a1", ["AD"], ["PD"]), cell(1, ["CD"])],
    [cell("a2", ["PD"]), cell(None)],
    [cell("a1", ["CD"]), cell(1, ["AD", "CD"], ["AD"])],
]


def sample_relation():
    return PolygenRelation.from_cells(["A", "B"], SAMPLE_ROWS)


class TestRoundTrip:
    def test_relation_to_store_to_relation_is_identity(self):
        r = sample_relation()
        rebuilt = PolygenRelation(r.heading, r.store.to_tuples())
        assert rebuilt == r
        assert rebuilt.tuples == r.tuples

    def test_from_store_wraps_without_copying(self):
        r = sample_relation()
        wrapped = PolygenRelation.from_store(r.store)
        assert wrapped.store is r.store
        assert wrapped == r

    def test_from_tuples_matches_facade_constructor(self):
        rows = [PolygenTuple(row) for row in SAMPLE_ROWS]
        store = ColumnarRelation.from_tuples(Heading(["A", "B"]), rows)
        assert store.to_tuples() == tuple(rows)
        assert PolygenRelation.from_store(store) == PolygenRelation(["A", "B"], rows)

    def test_round_trip_preserves_tags_exactly(self):
        r = sample_relation()
        for row, rebuilt in zip(r.tuples, r.store.to_tuples()):
            for mine, theirs in zip(row, rebuilt):
                assert mine.datum == theirs.datum
                assert mine.origins == theirs.origins
                assert mine.intermediates == theirs.intermediates


class TestStoreSemantics:
    def test_exact_duplicates_collapse(self):
        row = PolygenTuple([cell("x", ["AD"])])
        store = ColumnarRelation.from_tuples(Heading(["A"]), [row, row])
        assert store.cardinality == 1

    def test_data_duplicates_with_distinct_tags_coexist(self):
        rows = [PolygenTuple([cell("x", ["AD"])]), PolygenTuple([cell("x", ["CD"])])]
        store = ColumnarRelation.from_tuples(Heading(["A"]), rows)
        assert store.cardinality == 2

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatchError):
            ColumnarRelation.from_tuples(
                Heading(["A", "B"]), [PolygenTuple([cell("x")])]
            )

    def test_uniform_interns_two_ids(self):
        pool = TagPool()
        store = ColumnarRelation.uniform(
            Heading(["A", "B"]),
            [("x", "y", "w"), (None, "z", None)],
            origins=sources("AD"),
            pool=pool,
        )
        ids = store.distinct_tag_ids()
        assert len(ids) == 2
        assert store.all_origins() == sources("AD")
        # Nil cells carry the empty-origin id.
        nil_cells = [c for c in store.iter_cells(1) if c.is_nil]
        assert nil_cells and all(c.origins == frozenset() for c in nil_cells)

    def test_uniform_shares_one_tag_tuple_across_a_nil_free_column(self):
        store = ColumnarRelation.uniform(
            Heading(["A", "B"]), [("x", "y"), (None, "z")], origins=sources("AD")
        )
        assert store.columns == (("x", "y"), (None, "z"))
        assert len(set(store.tags[0])) == 1
        assert store.tags[1][0] != store.tags[1][1]

    def test_empty_store(self):
        store = ColumnarRelation.empty(Heading(["A", "B"]))
        assert store.cardinality == 0
        assert store.data_rows() == []
        assert store.to_tuples() == ()
        assert store.row_keys() == frozenset()
        assert store.all_origins() == frozenset()

    def test_take_rows_permutes(self):
        r = sample_relation()
        flipped = r.store.take_rows([2, 0, 1])
        assert flipped.data_rows() == [r.store.data_rows()[i] for i in (2, 0, 1)]

    def test_rename_shares_columns(self):
        r = sample_relation()
        renamed = r.store.rename({"A": "Z"})
        assert renamed.columns is r.store.columns
        assert renamed.heading.attributes == ("Z", "B")

    def test_row_keys_equal_iff_same_rows(self):
        r = sample_relation()
        s = PolygenRelation.from_cells(["A", "B"], reversed(SAMPLE_ROWS))
        assert r.store.row_keys() == s.store.row_keys()

    def test_distinct_tag_ids_counts_pairs_not_cells(self):
        r = PolygenRelation.from_data(
            ["A", "B", "C"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]], origins=["AD"]
        )
        assert len(r.store.distinct_tag_ids()) == 1


class TestFacadeViews:
    def test_tuples_are_lazy_and_cached(self):
        r = PolygenRelation.from_data(["A"], [["x"]], origins=["AD"])
        assert r._tuples is None
        first = r.tuples
        assert r.tuples is first

    def test_operator_results_stay_columnar_until_viewed(self):
        from repro.core import algebra

        r = PolygenRelation.from_data(["A", "B"], [["x", 1], ["y", 2]], origins=["AD"])
        out = algebra.project(r, ["A"])
        assert out._tuples is None  # no cells materialized by the operator
        assert [t.data for t in out.tuples] == [("x",), ("y",)]

    def test_equality_across_pools(self):
        private = TagPool()
        rows = [PolygenTuple([cell("x", ["AD"])])]
        mine = PolygenRelation(["A"], rows)
        other = PolygenRelation.from_store(
            ColumnarRelation.from_tuples(Heading(["A"]), rows, pool=private)
        )
        assert mine == other
        assert hash(mine) == hash(other)

    def test_sorted_by_data_mixed_types_numeric_order(self):
        r = PolygenRelation.from_data(["A"], [[10], [9], ["b"], [None], [2]])
        assert [t.data[0] for t in r.sorted_by_data()] == [2, 9, 10, "b", None]

    def test_sorted_by_data_huge_ints_and_nan(self):
        nan = float("nan")
        r = PolygenRelation.from_data(["A"], [[10**400], [5.0], [nan], [1]])
        ordered = [t.data[0] for t in r.sorted_by_data()]
        assert ordered[:2] == [1, 5.0]
        assert ordered[2] == 10**400
        assert ordered[3] != ordered[3]  # NaN sorts after real numerics

    def test_sorted_by_data_strings_unchanged(self):
        r = PolygenRelation.from_data(["A"], [["b"], ["a"], [None]])
        assert [t.data[0] for t in r.sorted_by_data()] == ["a", "b", None]

    def test_global_pool_is_default(self):
        r = PolygenRelation.from_data(["A"], [["x"]])
        assert r.store.pool is GLOBAL_TAG_POOL
