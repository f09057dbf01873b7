"""Unit tests for local query processors, the registry, and cost accounting."""

import pytest

from repro.core.predicate import Theta
from repro.errors import ExecutionError, LocalEngineError, UnknownDatabaseError, UnknownRelationError
from repro.backends import SqliteLQP
from repro.lqp.cost import AccountingLQP
from repro.lqp.csv_lqp import CsvLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema


@pytest.fixture
def alumni_lqp():
    db = LocalDatabase("AD")
    db.load(
        RelationSchema("ALUMNUS", ["AID#", "ANAME", "DEG", "MAJ"], key=["AID#"]),
        [
            ("012", "John McCauley", "MBA", "IS"),
            ("789", "Ken Olsen", "MS", "EE"),
        ],
    )
    return RelationalLQP(db)


class TestRelationalLQP:
    def test_name_and_relations(self, alumni_lqp):
        assert alumni_lqp.name == "AD"
        assert alumni_lqp.relation_names() == ("ALUMNUS",)

    def test_retrieve_ships_whole_relation(self, alumni_lqp):
        assert alumni_lqp.retrieve("ALUMNUS").cardinality == 2

    def test_select_executes_locally(self, alumni_lqp):
        out = alumni_lqp.select("ALUMNUS", "DEG", Theta.EQ, "MBA")
        assert out.rows == (("012", "John McCauley", "MBA", "IS"),)

    def test_unknown_relation(self, alumni_lqp):
        with pytest.raises(UnknownRelationError):
            alumni_lqp.retrieve("NOPE")


class TestCsvLQP:
    CSV = "FNAME,CEO,PROFIT\nIBM,John Ackers,5.5\nApple,John Sculley,0.4\n"

    def test_parses_with_type_inference(self):
        lqp = CsvLQP("CD", {"FIRM": self.CSV})
        assert lqp.retrieve("FIRM").rows[0] == ("IBM", "John Ackers", 5.5)

    def test_without_type_inference(self):
        lqp = CsvLQP("CD", {"FIRM": self.CSV}, infer_types=False)
        assert lqp.retrieve("FIRM").rows[0] == ("IBM", "John Ackers", "5.5")

    def test_empty_fields_become_none(self):
        lqp = CsvLQP("XD", {"T": "A,B\n1,\n"})
        assert lqp.retrieve("T").rows == ((1, None),)

    def test_select_scans(self):
        lqp = CsvLQP("CD", {"FIRM": self.CSV})
        out = lqp.select("FIRM", "PROFIT", Theta.GT, 1.0)
        assert out.rows == (("IBM", "John Ackers", 5.5),)

    def test_quoted_fields(self):
        lqp = CsvLQP("CD", {"T": 'HQ\n"NY, NY"\n'})
        assert lqp.retrieve("T").rows == (("NY, NY",),)

    def test_empty_document_rejected(self):
        with pytest.raises(LocalEngineError):
            CsvLQP("XD", {"T": ""})

    def test_ragged_rows_rejected(self):
        with pytest.raises(LocalEngineError):
            CsvLQP("XD", {"T": "A,B\n1\n"})

    def test_unknown_relation(self):
        lqp = CsvLQP("XD", {"T": "A\n1\n"})
        with pytest.raises(UnknownRelationError):
            lqp.retrieve("NOPE")

    def test_relation_names(self):
        lqp = CsvLQP("XD", {"T": "A\n1\n", "U": "B\n2\n"})
        assert set(lqp.relation_names()) == {"T", "U"}


class TestAccounting:
    def test_counters(self, alumni_lqp):
        wrapped = AccountingLQP(alumni_lqp)
        wrapped.retrieve("ALUMNUS")
        wrapped.select("ALUMNUS", "DEG", Theta.EQ, "MBA")
        assert wrapped.stats.queries == 2
        assert wrapped.stats.retrieves == 1
        assert wrapped.stats.selects == 1
        assert wrapped.stats.tuples_shipped == 3  # 2 + 1

    def test_stats_reset(self, alumni_lqp):
        wrapped = AccountingLQP(alumni_lqp)
        wrapped.retrieve("ALUMNUS")
        wrapped.stats.reset()
        assert wrapped.stats.queries == 0

    def test_merged_stats(self, alumni_lqp):
        a = AccountingLQP(alumni_lqp)
        a.retrieve("ALUMNUS")
        merged = a.stats.merged_with(a.stats)
        assert merged.queries == 2
        assert merged.tuples_shipped == 4


class TestRegistry:
    def test_register_and_get(self, alumni_lqp):
        registry = LQPRegistry()
        wrapped = registry.register(alumni_lqp)
        assert registry.get("AD") is wrapped
        assert "AD" in registry
        assert registry.names() == ("AD",)

    def test_duplicate_rejected(self, alumni_lqp):
        registry = LQPRegistry()
        registry.register(alumni_lqp)
        with pytest.raises(ExecutionError):
            registry.register(alumni_lqp)

    def test_unknown_database(self):
        with pytest.raises(UnknownDatabaseError):
            LQPRegistry().get("NOPE")

    def test_aggregate_stats(self, alumni_lqp):
        registry = LQPRegistry()
        registry.register(alumni_lqp)
        registry.get("AD").retrieve("ALUMNUS")
        total = registry.total_stats()
        assert total.queries == 1
        assert total.tuples_shipped == 2
        registry.reset_stats()
        assert registry.total_stats().queries == 0


@pytest.fixture
def sqlite_alumni(alumni_lqp):
    with SqliteLQP.from_database(alumni_lqp.database) as store:
        yield store


class TestColumnProjection:
    """``columns=`` is part of the verbs only for engines reporting
    ``native_projection``; the default range verbs honour it after
    filtering."""

    def test_in_process_engines_take_no_columns(self, alumni_lqp):
        csv = CsvLQP("CD", {"FIRM": TestCsvLQP.CSV})
        for lqp in (alumni_lqp, csv):
            assert not lqp.capabilities().native_projection
        with pytest.raises(TypeError):
            alumni_lqp.retrieve("ALUMNUS", columns=["ANAME"])
        with pytest.raises(TypeError):
            csv.select("FIRM", "PROFIT", Theta.GT, 1.0, columns=["PROFIT"])

    def test_sqlite_retrieve_narrows(self, sqlite_alumni):
        assert sqlite_alumni.capabilities().native_projection
        out = sqlite_alumni.retrieve("ALUMNUS", columns=["ANAME", "DEG"])
        assert out.attributes == ("ANAME", "DEG")
        assert set(out.rows) == {("John McCauley", "MBA"), ("Ken Olsen", "MS")}

    def test_sqlite_select_narrows(self, sqlite_alumni):
        out = sqlite_alumni.select("ALUMNUS", "DEG", Theta.EQ, "MBA", columns=["AID#"])
        assert out.attributes == ("AID#",)
        assert out.rows == (("012",),)

    def test_unknown_column_rejected(self, sqlite_alumni):
        from repro.errors import UnknownAttributeError

        with pytest.raises(UnknownAttributeError):
            sqlite_alumni.retrieve("ALUMNUS", columns=["NOPE"])

    def test_wrappers_advertise_inner_capability(self, alumni_lqp, sqlite_alumni):
        assert AccountingLQP(sqlite_alumni).capabilities().native_projection
        assert not AccountingLQP(alumni_lqp).capabilities().native_projection

    def test_accounting_forwards_columns(self, sqlite_alumni):
        wrapped = AccountingLQP(sqlite_alumni)
        out = wrapped.select("ALUMNUS", "DEG", Theta.EQ, "MBA", columns=["MAJ"])
        assert out.attributes == ("MAJ",)
        assert wrapped.stats.selects == 1


class TestRefreshNotifications:
    def test_subscribe_and_notify(self, alumni_lqp):
        registry = LQPRegistry()
        seen = []
        registry.subscribe(seen.append)
        registry.register(alumni_lqp)  # (re)appearing database counts
        registry.notify_refresh("AD")
        assert seen == ["AD", "AD"]

    def test_unsubscribe_stops_delivery(self):
        registry = LQPRegistry()
        seen = []
        other = lambda database: seen.append(("other", database))  # noqa: E731
        registry.subscribe(seen.append)
        registry.unsubscribe(other)  # never subscribed: no-op
        registry.notify_refresh("AD")
        assert seen == ["AD"]

    def test_unsubscribe_removes_exact_listener(self):
        registry = LQPRegistry()
        seen = []
        listener = seen.append
        registry.subscribe(listener)
        registry.unsubscribe(listener)
        registry.notify_refresh("AD")
        assert seen == []
        registry.unsubscribe(listener)  # absent: no-op
