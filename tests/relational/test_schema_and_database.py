"""Unit tests for local relation schemas and the LocalDatabase engine."""

import itertools
import math
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.predicate import Theta
from repro.errors import (
    ConstraintViolationError,
    SchemaValidationError,
    UnknownAttributeError,
    UnknownRelationError,
)
from repro.lqp.base import filter_in
from repro.lqp.relational_lqp import RelationalLQP
from repro.relational import algebra
from repro.relational.conditions import Comparison, Conjunction, TrueCondition
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema


class TestRelationSchema:
    def test_basic(self):
        s = RelationSchema("ALUMNUS", ["AID#", "ANAME", "DEG", "MAJ"], key=["AID#"])
        assert s.degree == 4
        assert s.key == ("AID#",)
        assert s.key_indices() == (0,)

    def test_composite_key(self):
        s = RelationSchema("CAREER", ["AID#", "BNAME", "POS"], key=["AID#", "BNAME"])
        assert s.key_indices() == (0, 1)

    def test_key_must_exist(self):
        with pytest.raises(SchemaValidationError):
            RelationSchema("T", ["A"], key=["B"])

    def test_duplicate_key_attr_rejected(self):
        with pytest.raises(SchemaValidationError):
            RelationSchema("T", ["A", "B"], key=["A", "A"])

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaValidationError):
            RelationSchema("", ["A"])

    def test_str_marks_key(self):
        s = RelationSchema("T", ["A", "B"], key=["A"])
        assert str(s) == "T(A*, B)"


class TestLocalDatabase:
    def setup_method(self):
        self.db = LocalDatabase("AD")
        self.db.create(RelationSchema("BUSINESS", ["BNAME", "IND"], key=["BNAME"]))

    def test_create_and_names(self):
        assert self.db.relation_names() == ("BUSINESS",)
        assert "BUSINESS" in self.db

    def test_double_create_rejected(self):
        with pytest.raises(ConstraintViolationError):
            self.db.create(RelationSchema("BUSINESS", ["X"]))

    def test_insert_and_retrieve(self):
        self.db.insert("BUSINESS", [("IBM", "High Tech"), ("BP", "Energy")])
        assert self.db.relation("BUSINESS").cardinality == 2

    def test_insert_wrong_degree(self):
        with pytest.raises(ConstraintViolationError):
            self.db.insert("BUSINESS", [("IBM",)])

    def test_key_uniqueness_enforced(self):
        self.db.insert("BUSINESS", [("IBM", "High Tech")])
        with pytest.raises(ConstraintViolationError):
            self.db.insert("BUSINESS", [("IBM", "Energy")])

    def test_key_uniqueness_within_batch(self):
        with pytest.raises(ConstraintViolationError):
            self.db.insert("BUSINESS", [("IBM", "a"), ("IBM", "b")])

    def test_a_duplicate_key_inside_one_batch_raises_and_changes_nothing(self):
        self.db.insert("BUSINESS", [("IBM", "High Tech")])
        before = self.db.relation("BUSINESS")
        for batch in (
            [("BP", "Energy"), ("DEC", "High Tech"), ("BP", "Oil")],
            [(1, "a"), (True, "b")],  # one key under ==, as in the index
            [("GE", "x"), ("IBM", "y")],  # new, then one already present
            [("GE", "x"), (None, "y")],
        ):
            with pytest.raises(ConstraintViolationError):
                self.db.insert("BUSINESS", batch)
            assert self.db.relation("BUSINESS") is before

    @pytest.mark.parametrize(
        "batch",
        [
            [("GE", "x"), ("GE", "y")],  # a duplicate key within the batch
            [("GE", "x"), (None, "y")],  # a nil key
            [("GE", "x"), ("DEC",)],  # a wrong degree
        ],
        ids=["duplicate", "nil", "degree"],
    )
    def test_a_failed_insert_leaves_the_kept_key_set_as_it_was(self, batch):
        self.db.insert("BUSINESS", [("IBM", "High Tech")])
        assert "BUSINESS" not in self.db._keys  # filled once: no set kept
        self.db.insert("BUSINESS", [("BP", "Energy")])
        assert self.db._keys["BUSINESS"] == {"IBM", "BP"}
        before = self.db.relation("BUSINESS")
        with pytest.raises(ConstraintViolationError):
            self.db.insert("BUSINESS", batch)
        assert self.db.relation("BUSINESS") is before
        assert self.db._keys["BUSINESS"] == {"IBM", "BP"}
        # The batch's first key was never taken, so it inserts now.
        self.db.insert("BUSINESS", [("GE", "Industrial")])
        assert self.db.relation("BUSINESS").rows == (
            ("IBM", "High Tech"), ("BP", "Energy"), ("GE", "Industrial")
        )
        assert self.db._keys["BUSINESS"] == {"IBM", "BP", "GE"}

    def test_concurrent_inserts_lose_no_row_and_no_key(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def writer(t):
                for i in range(50):
                    self.db.insert("BUSINESS", [(f"{t}-{i}", "x")])

            threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        names = {row[0] for row in self.db.relation("BUSINESS").rows}
        assert len(names) == 400
        assert self.db._keys["BUSINESS"] == names

    def test_a_composite_key_is_checked_against_rows_and_batch(self):
        db = LocalDatabase("AD")
        db.load(RelationSchema("R", ["A", "B", "C"], key=["A", "B"]), [(1, "x", "c")])
        db.insert("R", [(1, "y", "c"), (2, "x", "c")])
        for batch in ([(1.0, "x", "d")], [(3, "z", "c"), (3, "z", "d")], [(3, None, "c")]):
            with pytest.raises(ConstraintViolationError):
                db.insert("R", batch)
        assert db.relation("R").rows == ((1, "x", "c"), (1, "y", "c"), (2, "x", "c"))

    def test_a_keyless_insert_of_an_existing_row_collapses(self):
        db = LocalDatabase("CD")
        db.load(RelationSchema("FIRM", ["FNAME", "CEO"]), [("IBM", "Ackers"), ("BP", "Browne")])
        db.insert("FIRM", [("BP", "Browne"), ("DEC", "Olsen"), ("DEC", "Olsen"), ("IBM", None)])
        assert db.relation("FIRM").rows == (
            ("IBM", "Ackers"), ("BP", "Browne"), ("DEC", "Olsen"), ("IBM", None)
        )
        assert db.select("FIRM", "FNAME", Theta.EQ, "DEC").rows == (("DEC", "Olsen"),)

    def test_a_keyless_relation_keeps_its_rows_as_the_key_set(self):
        db = LocalDatabase("CD")
        db.load(RelationSchema("FIRM", ["FNAME", "CEO"]), [("IBM", "Ackers")])
        assert "FIRM" not in db._keys  # filled once: no set kept
        db.insert("FIRM", [("BP", "Browne"), ("BP", "Browne")])
        assert db._keys["FIRM"] == {("IBM", "Ackers"), ("BP", "Browne")}
        before = db.relation("FIRM")
        with pytest.raises(ConstraintViolationError):
            db.insert("FIRM", [("GE", "Welch"), ("DEC",)])
        assert db.relation("FIRM") is before
        db.insert("FIRM", [("IBM", "Ackers"), ("GE", "Welch"), ("BP", "Browne")])
        assert db.relation("FIRM").rows == (
            ("IBM", "Ackers"), ("BP", "Browne"), ("GE", "Welch")
        )
        assert db._keys["FIRM"] == set(db.relation("FIRM").rows)

    def test_nil_key_rejected(self):
        with pytest.raises(ConstraintViolationError):
            self.db.insert("BUSINESS", [(None, "Energy")])

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelationError):
            self.db.relation("NOPE")
        with pytest.raises(UnknownRelationError):
            self.db.schema("NOPE")

    def test_select(self):
        self.db.insert("BUSINESS", [("IBM", "High Tech"), ("BP", "Energy")])
        out = self.db.select("BUSINESS", "IND", Theta.EQ, "Energy")
        assert out.rows == (("BP", "Energy"),)

    def test_select_where_conjunction(self):
        self.db.insert("BUSINESS", [("IBM", "High Tech"), ("BP", "Energy")])
        condition = Conjunction(
            [
                Comparison("IND", Theta.EQ, "High Tech"),
                Comparison("BNAME", Theta.NE, "DEC"),
            ]
        )
        out = self.db.select_where("BUSINESS", condition)
        assert out.rows == (("IBM", "High Tech"),)

    def test_load_shortcut(self):
        db = LocalDatabase("CD")
        db.load(RelationSchema("FIRM", ["FNAME", "CEO"]), [("IBM", "John Ackers")])
        assert db.relation("FIRM").cardinality == 1

    def test_insert_after_a_select_is_seen_by_the_next_select(self):
        self.db.insert("BUSINESS", [("IBM", "High Tech")])
        assert self.db.select("BUSINESS", "IND", Theta.EQ, "Energy").rows == ()
        self.db.insert("BUSINESS", [("BP", "Energy")])
        out = self.db.select("BUSINESS", "IND", Theta.EQ, "Energy")
        assert out.rows == (("BP", "Energy"),)
        assert self.db.select_in("BUSINESS", "BNAME", ["BP", "IBM"]).rows == (
            ("IBM", "High Tech"),
            ("BP", "Energy"),
        )

    def test_unknown_attribute_raises_as_under_the_scan(self):
        with pytest.raises(UnknownAttributeError):
            self.db.select("BUSINESS", "NOPE", Theta.EQ, None)
        with pytest.raises(UnknownAttributeError):
            self.db.select_in("BUSINESS", "NOPE", [])


#: Cell values and literals, the awkward ones included: nil, NaN, the
#: one key of ``1``/``True``/``1.0``, the equal zeros, and str beside int.
AWKWARD = [None, math.nan, 1, True, 1.0, 0, False, 0.0, -0.0, "1", "0", "x", 2.5]


class TestEqualityIndex:
    """``=`` Select and SelectIn read the equality index, and must return
    exactly the rows, in the order, of the scans they replace.  ``.rows``
    is compared, not ``==``: relation equality ignores order."""

    @staticmethod
    def _database(values):
        db = LocalDatabase("DB")
        db.load(RelationSchema("T", ["ID", "V"], key=["ID"]), enumerate(values))
        return db

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.sampled_from(AWKWARD), max_size=12))
    @example(values=[math.nan, 1, None, True, 1.0])
    def test_select_equals_the_scan(self, values):
        # Every literal, an unhashable one included, against each table.
        db = self._database(values)
        for literal in AWKWARD + [[1], {"x": 1}]:
            for theta, attribute in itertools.product((Theta.EQ, Theta.NE), ("V", "ID")):
                scanned = algebra.select(db.relation("T"), attribute, theta, literal)
                assert db.select("T", attribute, theta, literal).rows == scanned.rows

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.sampled_from(AWKWARD), max_size=12),
        keys=st.lists(st.sampled_from(AWKWARD), max_size=5),
    )
    @example(values=[math.nan, 1, None, True, 1.0, "1"], keys=[math.nan, 1.0, None])
    def test_select_in_equals_filter_in(self, values, keys):
        lqp = RelationalLQP(self._database(values))
        relation = lqp.retrieve("T")
        assert lqp.select_in("T", "V", keys).rows == filter_in(relation, "V", keys).rows
        assert lqp.select_in("T", "V", keys, columns=["V"]).rows == (
            filter_in(relation, "V", keys, columns=["V"]).rows
        )

    def test_one_index_per_attribute_is_built_once_and_kept(self):
        relation = self._database([1, True, 2]).relation("T")
        assert relation.index("V") is relation.index("V")
        assert dict(relation.index("V")) == {1: [0, 1], 2: [2]}
        assert relation.rename({"V": "W"}).index("W") == relation.index("V")

    def test_threads_building_one_index_at_once_all_read_the_scan(self):
        # A first build is unlocked: racing threads each build an equal
        # map, and whichever is kept, every answer is the scan's.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                db = self._database([i % 7 for i in range(300)])
                expected = [
                    algebra.select(db.relation("T"), "V", Theta.EQ, k).rows for k in range(7)
                ]
                answers = [None] * 7

                def probe(k):
                    answers[k] = db.select("T", "V", Theta.EQ, k).rows

                threads = [threading.Thread(target=probe, args=(k,)) for k in range(7)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert answers == expected
        finally:
            sys.setswitchinterval(previous)

    def test_unhashable_keys_raise_as_under_filter_in(self):
        lqp = RelationalLQP(self._database([1]))
        with pytest.raises(TypeError):
            filter_in(lqp.retrieve("T"), "V", [[1]])
        with pytest.raises(TypeError):
            lqp.select_in("T", "V", [[1]])


class TestConditions:
    def test_true_condition(self):
        assert TrueCondition().evaluate({}) is True
        assert TrueCondition().attributes() == ()

    def test_comparison_against_value(self):
        c = Comparison("DEG", Theta.EQ, "MBA")
        assert c.evaluate({"DEG": "MBA"})
        assert not c.evaluate({"DEG": "MS"})
        assert c.attributes() == ("DEG",)
        assert str(c) == 'DEG = "MBA"'

    def test_comparison_between_attributes(self):
        c = Comparison("A", Theta.LT, right_attribute="B")
        assert c.evaluate({"A": 1, "B": 2})
        assert c.attributes() == ("A", "B")
        assert str(c) == "A < B"

    def test_conjunction_all_must_hold(self):
        c = Conjunction([Comparison("A", Theta.EQ, 1), Comparison("B", Theta.EQ, 2)])
        assert c.evaluate({"A": 1, "B": 2})
        assert not c.evaluate({"A": 1, "B": 3})

    def test_empty_conjunction_is_true(self):
        c = Conjunction([])
        assert c.evaluate({"anything": 1})
        assert str(c) == "TRUE"

    def test_conjunction_attribute_dedup(self):
        c = Conjunction([Comparison("A", Theta.EQ, 1), Comparison("A", Theta.NE, 2)])
        assert c.attributes() == ("A",)
