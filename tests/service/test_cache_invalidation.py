"""The result cache's invalidation is tag-precise: invalidating database
D evicts exactly the entries whose source-tag set consults D.  A
D-consulting query is never served from cache afterwards, while entries
not consulting D keep serving whole-plan hits (no over-eviction).

That cached answers equal fresh ones, warm and after a write, is the
configuration lattice's ``cache`` axis (``tests/lattice/test_lattice.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.fingerprint import fingerprint_plan
from repro.pqp.matrix import Operation
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions

from tests.lattice.harness import paper_queries as queries


def _local_registry() -> LQPRegistry:
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return registry


def _plan_databases(result) -> set:
    """The databases a result's *plan* consulted — the cache's entry tag
    basis: shipped execution locations, consulted-only sources, and every
    origin/intermediate tag in the answer itself."""
    consulted = set()
    for row in result.iom:
        if row.is_local:
            consulted.add(row.el)
        consulted.update(row.consulted)
        if row.op is Operation.CACHED and row.cached is not None:
            consulted.update(row.cached.sources)
    consulted.update(result.relation.contributing_sources())
    return consulted


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_invalidation_is_tag_precise(data):
    batch = data.draw(
        st.lists(queries(), min_size=2, max_size=4, unique=True), label="queries"
    )
    with PolygenFederation(
        paper_polygen_schema(),
        _local_registry(),
        resolver=paper_identity_resolver(),
        defaults=QueryOptions(cache="on"),
    ) as federation:
        dependencies, fingerprints = {}, {}
        for query in batch:
            result = federation.run(query)
            dependencies[query] = _plan_databases(result)
            fingerprints[query] = fingerprint_plan(result.iom).final
        for query in batch:  # warm: everything now whole-plan hits
            assert federation.run(query).cache_hit
        database = data.draw(
            st.sampled_from(sorted(set().union(*dependencies.values()))),
            label="invalidated database",
        )
        evicted = federation.invalidate(database)
        assert evicted >= sum(
            database in consulted for consulted in dependencies.values()
        )
        # Probe the cache *before* any recomputation repopulates it: the
        # eviction must be exactly tag-precise at this instant.  (A later
        # cache-on run of a D-consulting superquery would legitimately
        # re-store fresh entries for its shared subplans.)
        for query in batch:
            entry = federation.cache.lookup(fingerprints[query])
            if database in dependencies[query]:
                assert entry is None, (
                    f"{query!r} consults {database} but its cache entry "
                    "survived invalidate"
                )
            else:
                assert entry is not None, (
                    f"{query!r} does not consult {database} but its cache "
                    "entry was evicted"
                )
        # And behaviourally: every query still answers, recomputed or
        # served, with a whole-plan hit exactly when its entry survived.
        for query in batch:
            again = federation.run(query)
            if database not in dependencies[query]:
                assert again.cache_hit
