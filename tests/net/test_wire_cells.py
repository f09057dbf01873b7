"""Cells every wire must carry: NaN cells, nil keys and empty strings
cross both encodings intact, whole and chunked.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer
from repro.net.client import RemoteLQP
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema

TIMEOUT = 10.0


def _canonical(value):
    if isinstance(value, float) and math.isnan(value):
        return "\x00NaN"
    return value


_CELLS = st.one_of(
    st.none(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=8),
    st.booleans(),
)


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(st.tuples(_CELLS, _CELLS, _CELLS), max_size=12),
    chunk_size=st.integers(min_value=1, max_value=5),
)
def test_nan_nil_and_empty_cells_survive_every_wire(rows, chunk_size):
    database = LocalDatabase("XD")
    database.create(RelationSchema("T", ["A", "B", "C"]))
    database.insert("T", rows)
    lqp = RelationalLQP(database)
    expected = [
        tuple(_canonical(cell) for cell in row) for row in lqp.retrieve("T").rows
    ]
    server = LQPServer(lqp, chunk_size=chunk_size).start()
    try:
        for wire_format in ("binary", "json"):
            remote = RemoteLQP(server.url, timeout=TIMEOUT, wire_format=wire_format)
            try:
                whole = [
                    tuple(_canonical(cell) for cell in row)
                    for row in remote.retrieve("T").rows
                ]
                chunked = [
                    tuple(_canonical(cell) for cell in row)
                    for chunk in remote.retrieve_chunks("T")
                    for row in chunk.relation().rows
                ]
                assert whole == expected, wire_format
                assert chunked == expected, wire_format
                stats = remote.transport_stats()
                if wire_format == "binary" and expected:
                    assert stats.binary_chunks > 0
                if wire_format == "json":
                    assert stats.binary_chunks == 0
            finally:
                remote.close()
    finally:
        server.stop()
