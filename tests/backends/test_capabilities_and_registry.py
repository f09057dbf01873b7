"""The capability contract and the registry's URL schemes.

Capabilities are the backends subsystem's spine: every LQP describes its
native powers through one frozen descriptor, wrappers delegate it
unchanged, the wire serves it (with the two wire-forced flags), and the
registry can open sqlite/log stores straight from URLs.
"""

import contextlib

import pytest

from repro.backends import KVStoreLQP, LogStoreLQP, SqliteLQP
from repro.core.predicate import Theta
from repro.errors import ProtocolError
from repro.lqp.base import Capabilities
from repro.lqp.cost import AccountingLQP, LatencyLQP
from repro.lqp.csv_lqp import CsvLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema


def _database(name="XD") -> LocalDatabase:
    db = LocalDatabase(name)
    db.load(RelationSchema("R", ["K", "V"], key=["K"]), [(1, "a"), (2, "b")])
    return db


class TestDescriptor:
    def test_defaults_match_the_historical_contract(self):
        capabilities = Capabilities()
        assert capabilities.native_select
        assert not capabilities.native_projection
        assert capabilities.signals_writes

    def test_round_trips_through_dict(self):
        original = Capabilities(
            native_select=False,
            native_projection=True,
            signals_writes=False,
        )
        assert Capabilities.from_dict(original.to_dict()) == original

    def test_from_dict_tolerates_unknown_and_missing_fields(self):
        # Forward compatibility: an older client reading a newer server's
        # payload (extra keys) or vice versa (missing keys) must not break.
        capabilities = Capabilities.from_dict(
            {"native_projection": True, "future_power": True}
        )
        assert capabilities.native_projection
        assert capabilities.native_select  # default fills the gap

    def test_relational_lqp_reports_no_projection_capability(self):
        # The relation is already in memory: the PQP narrows it at
        # materialization, after the domain transforms.
        capabilities = RelationalLQP(_database()).capabilities()
        assert capabilities.native_select
        assert not capabilities.native_projection

    def test_csv_lqp_reports_no_projection_capability(self):
        lqp = CsvLQP("CSV", {"R": "K,V\n1,a\n"})
        assert lqp.capabilities() == Capabilities()


@contextlib.contextmanager
def _opened(engine):
    """Yield ``engine``, closing it afterwards if it holds a file."""
    try:
        yield engine
    finally:
        if hasattr(engine, "close"):
            engine.close()


class TestWrapperDelegation:
    """Accounting/latency decoration must not change the declared powers."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda db, tmp: SqliteLQP.from_database(db),
            lambda db, tmp: LogStoreLQP.from_database(db, str(tmp / "log")),
            lambda db, tmp: KVStoreLQP.from_database(db),
            lambda db, tmp: RelationalLQP(db),
        ],
        ids=["sqlite", "log", "kv", "relational"],
    )
    def test_wrappers_pass_capabilities_through(self, tmp_path, factory):
        with _opened(factory(_database(), tmp_path)) as inner:
            assert AccountingLQP(inner).capabilities() == inner.capabilities()
            assert LatencyLQP(inner).capabilities() == inner.capabilities()
            assert (
                AccountingLQP(LatencyLQP(inner)).capabilities()
                == inner.capabilities()
            )

    @pytest.mark.parametrize(
        "factory",
        [
            lambda db, tmp: SqliteLQP.from_database(db),
            lambda db, tmp: LogStoreLQP.from_database(db, str(tmp / "log")),
            lambda db, tmp: KVStoreLQP.from_database(db),
            lambda db, tmp: RelationalLQP(db),
            lambda db, tmp: CsvLQP("XD", {"R": "K,V\n1,a\n2,b\n"}),
        ],
        ids=["sqlite", "log", "kv", "relational", "csv"],
    )
    def test_wrappers_pass_answers_through_and_count_them(self, tmp_path, factory):
        with _opened(factory(_database(), tmp_path)) as engine:
            wrapped = AccountingLQP(LatencyLQP(engine, per_query=0.0))
            assert wrapped.retrieve("R") == engine.retrieve("R")
            assert wrapped.select("R", "K", Theta.EQ, 1) == (
                engine.select("R", "K", Theta.EQ, 1)
            )
            assert wrapped.stats.queries == 2
            assert wrapped.stats.retrieves == 1
            assert wrapped.stats.selects == 1
            assert wrapped.stats.tuples_shipped == 3

    def test_registry_wrapper_serves_the_inner_capabilities(self):
        registry = LQPRegistry()
        registry.register(KVStoreLQP.from_database(_database()))
        assert not registry.get("XD").capabilities().native_select


class TestOverlaps:
    """Whether a source's verbs run outside the interpreter lock: not a
    capability of the engine but of the client's path to it, declared per
    source kind and kept by every wrapper."""

    @pytest.mark.parametrize(
        "factory, overlaps",
        [
            (lambda db, tmp: RelationalLQP(db), False),
            (lambda db, tmp: CsvLQP("XD", {"R": "K,V\n1,a\n"}), False),
            (lambda db, tmp: KVStoreLQP.from_database(db), False),
            # A log store replays its segments into memory when it opens.
            (lambda db, tmp: LogStoreLQP.from_database(db, str(tmp / "log")), False),
            # A SQLite file in the page cache is in-process work too: a
            # pooled Merge over three file-backed stores ran slower than inline.
            (lambda db, tmp: SqliteLQP.from_database(db), False),
            (lambda db, tmp: SqliteLQP.from_database(db, str(tmp / "x.db")), False),
        ],
        ids=["relational", "csv", "kv", "log", "sqlite-memory", "sqlite-file"],
    )
    def test_each_source_kind_through_its_wrappers(self, tmp_path, factory, overlaps):
        inner = factory(_database(), tmp_path)
        try:
            registry = LQPRegistry()
            registry.register(inner)
            assert inner.overlaps is overlaps
            assert AccountingLQP(inner).overlaps is overlaps
            assert registry.get("XD").overlaps is overlaps
            # The sleep releases the lock, whatever the engine underneath.
            assert LatencyLQP(inner, per_query=0.0).overlaps is True
            assert AccountingLQP(LatencyLQP(inner, per_query=0.0)).overlaps is True
        finally:
            getattr(inner, "close", lambda: None)()

    def test_overlap_is_not_a_capability_flag(self):
        assert "overlaps" not in Capabilities().to_dict()


class TestRegistryUrls:
    def test_sqlite_url_opens_and_queries(self, tmp_path):
        path = tmp_path / "store.db"
        SqliteLQP.from_database(_database(), str(path)).close()
        registry = LQPRegistry()
        wrapped = registry.register(f"sqlite://{path}")
        assert wrapped.name == "XD"
        assert wrapped.select("R", "V", Theta.EQ, "a").cardinality == 1
        registry.close()

    def test_file_url_opens_a_log_store(self, tmp_path):
        path = tmp_path / "log"
        LogStoreLQP.from_database(_database(), str(path)).close()
        registry = LQPRegistry()
        wrapped = registry.register(f"file://{path}")
        assert wrapped.name == "XD"
        assert wrapped.retrieve("R").cardinality == 2
        assert not wrapped.capabilities().signals_writes
        registry.close()

    def test_registry_close_releases_url_opened_backends(self, tmp_path):
        path = tmp_path / "store.db"
        SqliteLQP.from_database(_database(), str(path)).close()
        registry = LQPRegistry()
        wrapped = registry.register(f"sqlite://{path}")
        registry.close()
        import sqlite3

        with pytest.raises(sqlite3.ProgrammingError):
            wrapped.inner.retrieve("R")

    def test_unknown_scheme_is_a_protocol_error(self):
        registry = LQPRegistry()
        with pytest.raises(ProtocolError, match="unknown LQP URL scheme"):
            registry.register("redis://localhost:6379")

    def test_remote_options_only_apply_to_polygen_urls(self, tmp_path):
        path = tmp_path / "store.db"
        SqliteLQP.from_database(_database(), str(path)).close()
        registry = LQPRegistry()
        with pytest.raises(TypeError, match="polygen://"):
            registry.register(f"sqlite://{path}", concurrency=4)


class TestWireCapabilities:
    """The server serves capabilities; the wire forces the two flags whose
    meaning is "executed on the far side" — select and projection."""

    @pytest.fixture()
    def loopback(self, tmp_path):
        from repro.net import LQPServer
        from repro.net.client import RemoteLQP

        inner = LogStoreLQP.from_database(_database("WD"), str(tmp_path / "log"))
        server = LQPServer(inner).start()
        client = RemoteLQP(server.url)
        yield inner, client
        client.close()
        server.stop()
        inner.close()

    def test_remote_capabilities_force_wire_side_flags(self, loopback):
        inner, client = loopback
        remote = client.capabilities()
        # The log store can do neither natively, but across the wire both
        # happen server-side, which is what the flags mean to the planner.
        assert remote.native_select
        assert remote.native_projection
        # Honest pass-through for the power the wire cannot confer.
        assert remote.signals_writes == inner.capabilities().signals_writes

    def test_a_remote_source_overlaps_whatever_it_serves(self, loopback):
        inner, client = loopback
        assert not inner.overlaps
        assert client.overlaps is True
        assert AccountingLQP(client).overlaps is True

    def test_remote_capabilities_are_cached(self, loopback):
        _, client = loopback
        first = client.capabilities()
        assert client.capabilities() is first
