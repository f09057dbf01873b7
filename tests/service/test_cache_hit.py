"""A whole-plan cache hit answers from memory.

The semantic result cache exists so a repeated query costs its sources
nothing: a hit must not send one request to any LQP or ship one tuple
across the boundary, whether the answer is read whole or through a
streaming cursor.  The registry wraps every source in an
``AccountingLQP``, so its per-source counters see any traffic a hit would
cause; no injected delay is needed to tell a hit from a recompute.
"""

import pytest

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions

#: Selections, projections and joins spanning all three paper databases.
SHAPES = (
    '(PALUMNUS [DEGREE = "MBA"])',
    '(PORGANIZATION [INDUSTRY = "High Tech"])',
    '((PALUMNUS [DEGREE = "MBA"]) [ANAME, MAJOR])',
    '(PCAREER [POSITION = "CEO"])',
    "((PCAREER [ONAME = ONAME] PORGANIZATION) [ONAME, POSITION, INDUSTRY])",
    '(PALUMNUS [MAJOR = "IS"])',
    '(PSTUDENT [MAJOR = "Finance"])',
    '(PINTERVIEW [ONAME = "IBM"])',
    '(PFINANCE [ONAME = "CitiCorp"])',
    "((PALUMNUS [AID# = AID#] PCAREER) [ANAME, POSITION])",
    '(PALUMNUS [ANAME = "John Reed"])',
    "((PINTERVIEW [ONAME = ONAME] PORGANIZATION) [ONAME, JOB, INDUSTRY])",
    '(PORGANIZATION [ONAME = "Genentech"])',
    '(PCAREER [ONAME = "MIT"])',
    "(PSTUDENT [SNAME, MAJOR])",
    '(PALUMNUS [DEGREE = "MS"])',
    '((PALUMNUS [MAJOR = "MGT"]) [ANAME])',
    "((PFINANCE [ONAME = ONAME] PORGANIZATION) [ONAME, INDUSTRY])",
    '(PORGANIZATION [HEADQUARTERS = "NY"])',
    '(PINTERVIEW [JOB = "CFO"])',
)


def _traffic(registry):
    return {
        name: (stats.queries, stats.tuples_shipped)
        for name, stats in registry.stats().items()
    }


def _read_whole(federation, query):
    return federation.run(query)


def _read_by_cursor(federation, query):
    with federation.session() as session:
        handle = session.submit(query)
        list(handle.cursor())
        return handle.result(timeout=30)


@pytest.mark.parametrize("read", [_read_whole, _read_by_cursor], ids=["whole", "cursor"])
@pytest.mark.parametrize("query", SHAPES)
def test_a_hit_sends_no_request_and_ships_no_tuple(query, read):
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    with PolygenFederation(
        paper_polygen_schema(),
        registry,
        resolver=paper_identity_resolver(),
        defaults=QueryOptions(cache="on"),
    ) as federation:
        miss = read(federation, query)
        after_miss = _traffic(registry)
        assert sum(queries for queries, _ in after_miss.values()) > 0
        hit = read(federation, query)
        assert _traffic(registry) == after_miss
        assert hit.cache_hit and federation.stats().cache.hits == 1
    assert hit.relation == miss.relation
    assert hit.lineage == miss.lineage
