"""A federation registered by ``polygen://`` URL really runs over the
network: its stats carry transport counters that moved.  Served engines
are the in-memory one and a polystore (AD in SQLite, PD in a log store,
CD in a key-value store), whose Table 9 answer over the wire matches the
in-process one tag for tag.

That remote answers equal in-process ones on every query is the
configuration lattice's ``binary`` and ``json`` source kinds
(``tests/lattice/test_lattice.py``).
"""

import pytest

from repro.backends import KVStoreLQP, LogStoreLQP, SqliteLQP
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer
from repro.pqp.processor import PolygenQueryProcessor

from tests.integration.conftest import PAPER_SQL


def _processor(lqps, **kwargs):
    registry = LQPRegistry()
    for lqp in lqps:  # a URL dials a server: bound its waits
        registry.register(lqp, **({"timeout": 5.0} if isinstance(lqp, str) else {}))
    return PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=registry,
        resolver=paper_identity_resolver(),
        **kwargs,
    )


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    databases = ad, pd, cd = tuple(paper_databases().values())
    log = str(tmp_path_factory.mktemp("remote-polystore") / "log-PD")
    polystore = [SqliteLQP.from_database(ad), LogStoreLQP.from_database(pd, log)]
    servers = {
        "remote_concurrent": [LQPServer(RelationalLQP(db), chunk_size=3) for db in databases],
        "polystore_remote": [
            LQPServer(lqp, chunk_size=3)
            for lqp in (*polystore, KVStoreLQP.from_database(cd))
        ],
    }
    engines = {
        name: _processor([server.start().url for server in started], concurrent=True)
        for name, started in servers.items()
    }
    # Each test reads federations that have served the Table 9 query.
    answers = {name: engine.run_sql(PAPER_SQL) for name, engine in engines.items()}
    with _processor([RelationalLQP(db) for db in databases], optimize=False) as baseline:
        answers["in_process"] = baseline.run_sql(PAPER_SQL)
    yield answers, engines
    for processor in engines.values():
        processor.close()
    for started in servers.values():
        for server in started:
            server.stop()
    for lqp in polystore:
        lqp.close()


def test_paper_query_is_tag_identical_over_the_wire(harness):
    answers, engines = harness
    reference = answers["in_process"]
    for name in engines:
        assert answers[name].relation == reference.relation, name
        assert answers[name].lineage == reference.lineage, name


def test_remote_federation_actually_used_the_network(harness):
    _, engines = harness
    stats = engines["remote_concurrent"].federation.stats()
    assert stats.remote_transports, "no transport counters — did this run remotely?"
    assert all(
        transport.requests > 0 for transport in stats.remote_transports.values()
    )
    assert any(
        transport.bytes_received > 0
        for transport in stats.remote_transports.values()
    )


def test_polystore_remote_actually_used_the_network(harness):
    _, engines = harness
    stats = engines["polystore_remote"].federation.stats()
    assert stats.remote_transports, "no transport counters — did this run remotely?"
    assert any(
        transport.bytes_received > 0
        for transport in stats.remote_transports.values()
    )
