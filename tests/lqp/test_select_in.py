"""The SelectIn verb on every engine, wrapper and the wire.

``select_in(relation, attribute, values, columns=None)`` ships the rows
whose ``attribute`` matches a member of ``values`` by the key index's
rule: Python ``==`` with hashing (``1``, ``True`` and ``1.0`` are one
value; ``1`` and ``"1"`` are not), and nil or NaN matches nothing.  The
base class's filtered Retrieve is the reference every engine must equal.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.kv_lqp import KVStoreLQP
from repro.backends.sqlite_lqp import SqliteLQP
from repro.errors import ProtocolError
from repro.lqp.base import filter_in
from repro.lqp.cost import AccountingLQP, ForwardingLQP, LatencyLQP
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer, RemoteLQP
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema

ROWS = [
    (1, "one", "x"),
    ("1", "text one", "y"),
    (2.5, "fraction", "x"),
    (10**18, "big", "y"),
    (1e30, "float big", "x"),
    ("a😀b", "emoji", "y"),
    ("nul\x00key", "nul", "x"),
    ("é", "accent", "y"),
]
SCHEMA = RelationSchema("T", ["K", "LABEL", "TAG"], key=["K"])

#: Values a key set may hold, the awkward ones included.
VALUES = [
    1, True, 1.0, False, 0, "1", 2.5, 10**18, 1e18, 10**30, 1e30, math.inf,
    -math.inf, math.nan, None, "a😀b", "nul\x00key", "é", "absent",
]


def _database() -> LocalDatabase:
    database = LocalDatabase("DB")
    database.load(SCHEMA, ROWS)
    return database


def _reference(values, columns=None):
    return filter_in(_database().relation("T"), "K", values, columns)


@pytest.fixture(scope="module")
def sqlite_engine():
    return SqliteLQP.from_database(_database())


@pytest.fixture(scope="module")
def remote_engine():
    with LQPServer(RelationalLQP(_database())).start() as server:
        with RemoteLQP(server.url, wire_format="binary") as remote:
            yield remote


def test_the_base_rule():
    labels = lambda relation: sorted(row[1] for row in relation)  # noqa: E731
    assert labels(_reference([True])) == ["one"]
    assert labels(_reference([1.0, "1"])) == ["one", "text one"]
    assert labels(_reference([None, math.nan, "absent"])) == []
    narrowed = _reference([2.5], columns=["LABEL"])
    assert narrowed.attributes == ("LABEL",) and narrowed.rows == (("fraction",),)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.sampled_from(VALUES), max_size=6))
def test_sqlite_matches_the_base_rule(sqlite_engine, values):
    # json_each carries the set; a value it cannot carry exactly (inf, a
    # fraction, an int past 64 bits, a NUL) takes the Python filter.
    assert sqlite_engine.select_in("T", "K", values) == _reference(values)
    assert sqlite_engine.select_in("T", "K", values, columns=["TAG", "K"]) == (
        _reference(values, columns=["TAG", "K"])
    )


def test_sqlite_normalizes_bools_and_integral_floats(sqlite_engine):
    for value in (True, 1.0):
        assert sqlite_engine.select_in("T", "K", [value]).rows == ((1, "one", "x"),)
    assert sqlite_engine.select_in("T", "K", [1e18]).rows == ((10**18, "big", "y"),)
    # 10**30 is not the float 1e30 in Python; JSON would parse it as one.
    assert sqlite_engine.select_in("T", "K", [10**30]).cardinality == 0
    assert sqlite_engine.select_in("T", "K", []).attributes == ("K", "LABEL", "TAG")


def test_kv_looks_keys_up_and_filters_other_attributes():
    engine = KVStoreLQP.from_database(_database())
    for values in ([True, "1", None, math.nan], [2.5, 10**30], []):
        assert engine.select_in("T", "K", values) == _reference(values)
    assert engine.select_in("T", "TAG", ["x"]) == filter_in(
        _database().relation("T"), "TAG", ["x"]
    )


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.sampled_from([v for v in VALUES if v == v]), max_size=6))
def test_remote_binary_matches_in_process(remote_engine, values):
    assert remote_engine.binary_negotiated
    assert remote_engine.select_in("T", "K", values) == _reference(values)


def test_remote_columns_narrow_over_the_wire(remote_engine):
    shipped = remote_engine.select_in("T", "K", [1, "é"], columns=["LABEL"])
    assert shipped == _reference([1, "é"], columns=["LABEL"])


class _OldServer(LQPServer):
    """A protocol-3 server, from before the select_in op."""

    def _hello(self):
        return {**super()._hello(), "protocol": 3}

    def _serve_relation(self, connection, request_id, op, message, cancel, span=None):
        if op == "select_in":
            raise ProtocolError(f"unknown wire operation {op!r}")
        return super()._serve_relation(connection, request_id, op, message, cancel, span)


def test_remote_serves_select_in_itself_against_an_older_server():
    with _OldServer(RelationalLQP(_database())).start() as server:
        with RemoteLQP(server.url) as remote:
            assert remote.binary_negotiated
            assert remote.select_in("T", "K", [True, "é"]) == _reference([True, "é"])
            assert remote.select_in("T", "K", ["1"]) == _reference(["1"])
            # Each call was one Retrieve; no select_in reached the server.
            assert remote.transport_stats().requests == 2
            assert server.stats.errors == 0


@pytest.mark.parametrize(
    "wrap",
    [ForwardingLQP, AccountingLQP, lambda inner: LatencyLQP(inner, per_query=0.0)],
    ids=["forwarding", "accounting", "latency"],
)
def test_wrappers_pass_select_in_through(wrap):
    wrapped = wrap(RelationalLQP(_database()))
    assert wrapped.select_in("T", "K", [True, "é"]) == _reference([True, "é"])


def test_accounting_counts_select_in_tuples():
    accounted = AccountingLQP(RelationalLQP(_database()))
    accounted.select_in("T", "K", [1, "1", "é", "absent"])
    stats = accounted.stats.snapshot()
    assert (stats.queries, stats.selects, stats.tuples_shipped) == (1, 1, 3)
