"""SqliteLQP unit tests: SQL pushdown with polygen-exact semantics.

The federation-level equivalence (tag-identical answers through the PQP)
lives in ``tests/property/test_backend_equivalence.py``; this module pins
the adapter's engine-level contract — the type-faithfulness gaps between
SQLite and :class:`~repro.core.predicate.Theta` that the adapter must
close, persistence across reopen, and the catalog surface.
"""

import pytest

from repro.backends import SqliteLQP
from repro.core.predicate import Theta
from repro.errors import (
    ConstraintViolationError,
    IncomparableTypesError,
    LocalEngineError,
    UnknownAttributeError,
    UnknownRelationError,
)
from repro.lqp.base import project_columns
from repro.lqp.relational_lqp import RelationalLQP
from repro.relational.database import LocalDatabase
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


def _database() -> LocalDatabase:
    db = LocalDatabase("TD")
    db.load(
        RelationSchema("R", ["K", "N", "S"], key=["K"]),
        [
            (1, 10, "alpha"),
            (2, 25, "beta"),
            (3, None, "gamma"),
            (4, 7, None),
        ],
    )
    db.load(
        RelationSchema("MIXED", ["K", "V"], key=["K"]),
        [(1, "x"), (2, 3.5), (3, None)],
    )
    return db


@pytest.fixture()
def store():
    with SqliteLQP.from_database(_database()) as lqp:
        yield lqp


@pytest.fixture()
def reference():
    return RelationalLQP(_database())


class TestLifecycle:
    def test_new_store_requires_a_database_name(self, tmp_path):
        with pytest.raises(LocalEngineError, match="database name"):
            SqliteLQP(str(tmp_path / "new.db"))

    def test_reopen_recovers_name_relations_and_rows(self, tmp_path):
        path = str(tmp_path / "store.db")
        original = SqliteLQP.from_database(_database(), path)
        retrieved = original.retrieve("R")
        original.close()

        reopened = SqliteLQP.open(path)
        assert reopened.name == "TD"
        assert reopened.relation_names() == ("R", "MIXED")
        assert reopened.retrieve("R") == retrieved
        reopened.close()

    def test_reopen_with_wrong_name_is_refused(self, tmp_path):
        path = str(tmp_path / "store.db")
        SqliteLQP.from_database(_database(), path).close()
        with pytest.raises(LocalEngineError, match="holds database 'TD'"):
            SqliteLQP.open(path, database="OTHER")

    def test_interned_tags_survive_reopen(self, tmp_path):
        path = str(tmp_path / "store.db")
        SqliteLQP.from_database(_database(), path).close()
        reopened = SqliteLQP.open(path)
        assert "TD" in reopened.interned_tags()
        reopened.close()

    def test_capabilities_distinguish_memory_from_file(self, tmp_path):
        memory = SqliteLQP.from_database(_database())
        assert memory.capabilities().signals_writes
        memory.close()
        on_disk = SqliteLQP.from_database(_database(), str(tmp_path / "f.db"))
        # Another process can rewrite the file: invalidation alone cannot
        # be trusted, and the cache must bound staleness with a TTL.
        assert not on_disk.capabilities().signals_writes
        assert on_disk.capabilities().native_select
        assert on_disk.capabilities().native_projection
        on_disk.close()


class TestInsertDomain:
    """Values SQLite would hand back changed are refused at the door."""

    @pytest.mark.parametrize("value", [True, False, float("nan"), 2**63, -(2**63) - 1, object()])
    def test_unstorable_values_are_refused(self, store, value):
        with pytest.raises(LocalEngineError, match="cannot store"):
            store.insert("R", [(9, value, "z")])

    def test_refused_insert_leaves_no_partial_rows(self, store):
        before = store.retrieve("R")
        with pytest.raises(LocalEngineError):
            store.insert("R", [(8, 1, "ok"), (9, float("nan"), "bad")])
        assert store.retrieve("R") == before

    def test_nil_key_is_a_constraint_violation(self, store):
        with pytest.raises(ConstraintViolationError, match="nil key"):
            store.insert("R", [(None, 1, "z")])

    def test_duplicate_key_is_a_constraint_violation(self, store):
        with pytest.raises(ConstraintViolationError, match="duplicate key"):
            store.insert("R", [(1, 99, "again")])

    def test_degree_mismatch_is_a_constraint_violation(self, store):
        with pytest.raises(ConstraintViolationError, match="degree"):
            store.insert("R", [(9, 1)])

    def test_unknown_relation(self, store):
        with pytest.raises(UnknownRelationError):
            store.retrieve("NOPE")


class TestSelectSemantics:
    """Every θ answers exactly as the Python reference engine."""

    @pytest.mark.parametrize(
        "attribute,theta,value",
        [
            ("N", Theta.EQ, 10),
            ("N", Theta.NE, 10),
            ("N", Theta.GT, 9),
            ("N", Theta.LE, 10),
            ("S", Theta.EQ, "beta"),
            ("S", Theta.GT, "alpha"),
            ("N", Theta.EQ, 10.0),  # int/float cross-class equality holds
            ("N", Theta.EQ, "10"),  # int/str equality does not
            ("K", Theta.EQ, None),  # nil satisfies no θ
            ("N", Theta.NE, None),
            ("N", Theta.LT, 10),
            ("N", Theta.GE, 7.5),  # int column against a float bound
            ("S", Theta.LE, "beta"),
            ("S", Theta.LT, "gamma"),
            ("K", Theta.GE, 2),
        ],
    )
    def test_matches_reference(self, store, reference, attribute, theta, value):
        assert store.select("R", attribute, theta, value) == reference.select(
            "R", attribute, theta, value
        )

    def test_nan_ne_uses_the_python_fallback(self, store, reference):
        # SQLite binds NaN as NULL, so `col <> NULL` would be empty; the
        # polygen answer is every non-nil row.
        nan = float("nan")
        assert store.select("R", "N", Theta.NE, nan) == reference.select(
            "R", "N", Theta.NE, nan
        )
        assert store.select("R", "N", Theta.NE, nan).cardinality == 3

    def test_ordering_against_mixed_column_raises_like_python(
        self, store, reference
    ):
        with pytest.raises(IncomparableTypesError):
            reference.select("MIXED", "V", Theta.GT, 1.0)
        with pytest.raises(IncomparableTypesError):
            store.select("MIXED", "V", Theta.GT, 1.0)

    def test_equality_against_mixed_column_is_fine(self, store, reference):
        assert store.select("MIXED", "V", Theta.EQ, 3.5) == reference.select(
            "MIXED", "V", Theta.EQ, 3.5
        )

    def test_unknown_attribute_raises(self, store):
        with pytest.raises(UnknownAttributeError):
            store.select("R", "NOPE", Theta.EQ, 1)


class TestProjection:
    def test_retrieve_projection(self, store, reference):
        # The in-memory reference has no native projection: narrow its
        # full retrieve the way the PQP would.
        assert store.retrieve("R", columns=["S", "K"]) == project_columns(
            reference.retrieve("R"), ["S", "K"]
        )

    def test_projection_of_absent_column_raises(self, store):
        with pytest.raises(UnknownAttributeError):
            store.retrieve("R", columns=["NOPE"])

    def test_select_projection(self, store, reference):
        expected = project_columns(reference.select("R", "N", Theta.GT, 8), ["S"])
        assert store.select("R", "N", Theta.GT, 8, columns=["S"]) == expected


class TestCatalog:
    def test_empty_relation_round_trips(self, store):
        store.create(RelationSchema("EMPTY", ["A", "B"], key=["A"]))
        assert store.retrieve("EMPTY") == Relation(["A", "B"])
        assert store.select("EMPTY", "B", Theta.GE, 0) == Relation(["A", "B"])

    def test_insert_is_visible_to_the_next_select(self, store):
        assert store.select("R", "N", Theta.GT, 50).cardinality == 0
        store.insert("R", [(5, 100, "delta")])
        assert store.select("R", "N", Theta.GT, 50).rows == ((5, 100, "delta"),)
        assert store.retrieve("R").cardinality == 5

    def test_external_writer_of_a_shared_file_is_visible(self, tmp_path):
        path = str(tmp_path / "shared.db")
        ours = SqliteLQP.from_database(_database(), path)
        assert ours.retrieve("R").cardinality == 4
        other = SqliteLQP.open(path)
        other.insert("R", [(6, 1, "ext")])
        other.close()
        assert ours.retrieve("R").cardinality == 5
        assert ours.select("R", "S", Theta.EQ, "ext").rows == ((6, 1, "ext"),)
        ours.close()


class TestConcurrency:
    def test_threaded_selects_agree_with_serial(self, store):
        import threading

        expected = store.select("R", "N", Theta.GT, 5)
        results = []

        def worker():
            results.append(store.select("R", "N", Theta.GT, 5))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == expected for result in results)
