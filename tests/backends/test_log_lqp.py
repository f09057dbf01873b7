"""LogStoreLQP unit tests: append, rotate, replay.

The scan-filter query semantics are covered federation-wide by the
configuration lattice (``tests/lattice/test_lattice.py``); here we pin the log's
own mechanics — segment rotation, replay-on-open, the append-only
constraint set, and the JSON-safety domain.
"""

import json
import os

import pytest

from repro.backends import LogStoreLQP
from repro.core.predicate import Theta
from repro.errors import (
    ConstraintViolationError,
    LocalEngineError,
    UnknownRelationError,
)
from repro.lqp.relational_lqp import RelationalLQP
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema


def _database() -> LocalDatabase:
    db = LocalDatabase("LD")
    db.load(
        RelationSchema("EVENTS", ["ID", "KIND", "SIZE"], key=["ID"]),
        [(1, "put", 10), (2, "get", None), (3, "del", 4)],
    )
    return db


@pytest.fixture()
def store(tmp_path):
    with LogStoreLQP.from_database(_database(), str(tmp_path / "log")) as lqp:
        yield lqp


class TestLifecycle:
    def test_empty_store_requires_a_database_name(self, tmp_path):
        with pytest.raises(LocalEngineError, match="database name"):
            LogStoreLQP(str(tmp_path / "empty"))

    def test_replay_on_open_recovers_everything(self, store, tmp_path):
        path = store.path
        retrieved = store.retrieve("EVENTS")
        store.close()
        reopened = LogStoreLQP.open(path)
        assert reopened.name == "LD"
        assert reopened.relation_names() == ("EVENTS",)
        assert reopened.retrieve("EVENTS") == retrieved
        reopened.close()

    def test_reopen_with_wrong_name_is_refused(self, store):
        path = store.path
        store.close()
        with pytest.raises(LocalEngineError, match="holds database 'LD'"):
            LogStoreLQP.open(path, database="OTHER")

    def test_appends_after_reopen_are_replayed_too(self, store):
        path = store.path
        store.append("EVENTS", [(4, "put", 9)])
        store.close()
        reopened = LogStoreLQP.open(path)
        assert reopened.retrieve("EVENTS").cardinality == 4
        reopened.close()

    def test_capabilities_declare_the_weak_engine(self, store):
        capabilities = store.capabilities()
        assert not capabilities.native_select
        assert not capabilities.native_projection
        assert not capabilities.signals_writes


class TestSegments:
    def test_small_segment_limit_rotates_files(self, tmp_path):
        store = LogStoreLQP(str(tmp_path / "log"), database="LD", segment_rows=3)
        store.create(RelationSchema("E", ["ID"], key=["ID"]))
        for i in range(8):
            store.append("E", [(i,)])
        assert store.segment_count() > 1
        assert store.retrieve("E").cardinality == 8
        store.close()
        reopened = LogStoreLQP.open(str(tmp_path / "log"))
        assert reopened.retrieve("E").cardinality == 8
        reopened.close()

    def test_segments_are_one_json_record_per_line(self, store):
        store.append("EVENTS", [(9, "put", 1)])
        segments = sorted(
            os.path.join(store.path, name) for name in os.listdir(store.path)
        )
        for segment in segments:
            with open(segment, "r", encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    assert isinstance(record, dict)

    def test_out_of_band_appends_are_visible_on_reopen(self, store):
        # Another process appends a record the engine never hears about —
        # the signals_writes=False scenario the cache TTL exists for.
        path = store.path
        store.close()
        segments = sorted(os.listdir(path))
        with open(os.path.join(path, segments[-1]), "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {"rows": {"relation": "EVENTS", "rows": [[99, "ext", 0]]}}
                )
                + "\n"
            )
        reopened = LogStoreLQP.open(path)
        assert reopened.retrieve("EVENTS").cardinality == 4
        reopened.close()


class TestAppendConstraints:
    def test_duplicate_key_is_refused(self, store):
        with pytest.raises(ConstraintViolationError, match="duplicate key"):
            store.append("EVENTS", [(1, "again", 0)])

    def test_nil_key_is_refused(self, store):
        with pytest.raises(ConstraintViolationError, match="nil key"):
            store.append("EVENTS", [(None, "x", 0)])

    def test_degree_mismatch_is_refused(self, store):
        with pytest.raises(ConstraintViolationError, match="degree"):
            store.append("EVENTS", [(5, "x")])

    @pytest.mark.parametrize("value", [True, float("nan"), float("inf"), object()])
    def test_json_unsafe_values_are_refused(self, store, value):
        with pytest.raises(LocalEngineError, match="cannot persist"):
            store.append("EVENTS", [(7, value, 0)])

    def test_unknown_relation(self, store):
        with pytest.raises(UnknownRelationError):
            store.append("NOPE", [(1,)])
        with pytest.raises(UnknownRelationError):
            store.retrieve("NOPE")

    def test_duplicate_create_is_refused(self, store):
        with pytest.raises(ConstraintViolationError, match="already exists"):
            store.create(RelationSchema("EVENTS", ["ID"], key=["ID"]))


class TestQuerySurface:
    def test_select_matches_the_reference_engine(self, store):
        reference = RelationalLQP(_database())
        for theta, value in [
            (Theta.EQ, "put"),
            (Theta.NE, "get"),
            (Theta.GT, "del"),
        ]:
            assert store.select("EVENTS", "KIND", theta, value) == (
                reference.select("EVENTS", "KIND", theta, value)
            )

    def test_appends_are_visible_to_the_next_select(self, store):
        assert store.select("EVENTS", "SIZE", Theta.GT, 50).cardinality == 0
        store.append("EVENTS", [(4, "put", 99)])
        assert store.select("EVENTS", "SIZE", Theta.GT, 50).rows == ((4, "put", 99),)
        assert store.retrieve("EVENTS").cardinality == 4
