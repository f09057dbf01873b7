"""KVStoreLQP unit tests: key-only native access paths.

Federation-level equivalence lives in
``tests/property/test_backend_equivalence.py``; this module pins the
store's own contract — point lookups with their scan fallbacks (ordered
θs included), and the upsert/key-integrity rules.
"""

import pytest

from repro.backends import KVStoreLQP
from repro.core.predicate import Theta
from repro.errors import (
    ConstraintViolationError,
    IncomparableTypesError,
    UnknownRelationError,
)
from repro.lqp.relational_lqp import RelationalLQP
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema


def _database() -> LocalDatabase:
    db = LocalDatabase("KD")
    db.load(
        RelationSchema("USERS", ["UID", "NAME", "AGE"], key=["UID"]),
        [(3, "carol", 41), (1, "alice", 33), (2, "bob", None)],
    )
    db.load(
        RelationSchema("GRANTS", ["UID", "ROLE"], key=["UID", "ROLE"]),
        [(1, "admin"), (1, "dev"), (2, "dev")],
    )
    return db


@pytest.fixture()
def store():
    return KVStoreLQP.from_database(_database())


@pytest.fixture()
def reference():
    return RelationalLQP(_database())


class TestSchema:
    def test_every_relation_needs_a_key(self):
        store = KVStoreLQP("KD")
        with pytest.raises(ConstraintViolationError, match="primary key"):
            store.create(RelationSchema("KEYLESS", ["A", "B"]))

    def test_from_database_requires_keys_everywhere(self):
        db = LocalDatabase("BAD")
        db.load(RelationSchema("HEAP", ["A"]), [(1,)])
        with pytest.raises(ConstraintViolationError):
            KVStoreLQP.from_database(db)

    def test_duplicate_create_is_refused(self, store):
        with pytest.raises(ConstraintViolationError, match="already exists"):
            store.create(RelationSchema("USERS", ["UID"], key=["UID"]))

    def test_unknown_relation(self, store):
        with pytest.raises(UnknownRelationError):
            store.retrieve("NOPE")

    def test_capabilities_declare_key_only_power(self, store):
        capabilities = store.capabilities()
        assert not capabilities.native_select
        assert not capabilities.native_projection
        assert capabilities.signals_writes


class TestPut:
    def test_put_upserts_by_key(self, store):
        store.put("USERS", [(2, "bob", 28)])
        assert store.retrieve("USERS").cardinality == 3
        assert store.select("USERS", "UID", Theta.EQ, 2).rows == ((2, "bob", 28),)

    def test_nil_key_is_refused(self, store):
        with pytest.raises(ConstraintViolationError, match="nil key"):
            store.put("USERS", [(None, "x", 1)])

    def test_degree_mismatch_is_refused(self, store):
        with pytest.raises(ConstraintViolationError, match="degree"):
            store.put("USERS", [(9, "x")])


class TestSelect:
    def test_point_lookup_on_the_key(self, store, reference):
        assert store.select("USERS", "UID", Theta.EQ, 1) == reference.select(
            "USERS", "UID", Theta.EQ, 1
        )

    def test_point_lookup_miss_is_empty(self, store):
        assert store.select("USERS", "UID", Theta.EQ, 99).cardinality == 0

    def test_unhashable_literal_matches_nothing(self, store):
        assert store.select("USERS", "UID", Theta.EQ, [1]).cardinality == 0

    def test_non_key_selection_scan_filters(self, store, reference):
        for theta, value in [(Theta.GT, 35), (Theta.NE, 33), (Theta.EQ, None)]:
            assert store.select("USERS", "AGE", theta, value) == (
                reference.select("USERS", "AGE", theta, value)
            )

    def test_composite_key_selection_scan_filters(self, store, reference):
        assert store.select("GRANTS", "UID", Theta.EQ, 1) == reference.select(
            "GRANTS", "UID", Theta.EQ, 1
        )


class TestOrderedSelect:
    """Only ``=`` on a single-column key is a point lookup; every ordered
    θ is a scan filter and must answer exactly as the reference does."""

    @pytest.mark.parametrize(
        "theta",
        [Theta.LT, Theta.LE, Theta.GT, Theta.GE, Theta.NE],
        ids=lambda theta: theta.name,
    )
    def test_key_column_matches_the_reference(self, store, reference, theta):
        for value in (0, 1, 2, 2.5, 3, 99):
            assert store.select("USERS", "UID", theta, value) == (
                reference.select("USERS", "UID", theta, value)
            )

    def test_composite_key_ordering_scan_filters(self, store, reference):
        for theta in (Theta.LT, Theta.GE):
            assert store.select("GRANTS", "ROLE", theta, "dev") == (
                reference.select("GRANTS", "ROLE", theta, "dev")
            )

    def test_incomparable_ordering_raises(self, store):
        with pytest.raises(IncomparableTypesError):
            store.select("USERS", "UID", Theta.LT, "a")

    def test_upsert_moves_a_row_across_a_predicate(self, store):
        assert store.select("USERS", "AGE", Theta.GE, 40).rows == ((3, "carol", 41),)
        store.put("USERS", [(3, "carol", 39), (9, "zed", 70)])
        assert store.select("USERS", "AGE", Theta.GE, 40).rows == ((9, "zed", 70),)
        assert store.select("USERS", "UID", Theta.GT, 3).rows == ((9, "zed", 70),)
