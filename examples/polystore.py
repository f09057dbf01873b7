"""A polystore federation: three backends, one paper query, identical tags.

The paper's premise is that the PQP never cares what a local database
*is* — "to the PQP, each LQP behaves as a local relational system" (§I).
This example makes that concrete with three genuinely different engines:

1. **AD lives in SQLite** (:class:`~repro.backends.SqliteLQP`): a real
   SQL engine in a real file; selections and projections compile to
   ``WHERE`` clauses and ``SELECT`` lists and run inside the engine;
2. **PD lives in an append-only log**
   (:class:`~repro.backends.LogStoreLQP`): JSONL segments replayed into
   an index, every query a scan-filter;
3. **CD stays in memory** (:class:`~repro.lqp.RelationalLQP`): the
   reproduction's reference engine.

Each backend declares its native powers through its
:class:`~repro.lqp.Capabilities`, the optimizer pushes work only where
the capability exists, and the paper's worked CEO query comes back
**tag-identical** to the all-in-memory answer — same rows, same source
tags — while the transfer counters show each backend shipping its share.

Run with::

    PYTHONPATH=src python examples/polystore.py
"""

import tempfile

from repro.backends import LogStoreLQP, SqliteLQP
from repro.display.render import render_relation
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.processor import PolygenQueryProcessor

PAPER_SQL = """
SELECT ONAME, CEO
FROM PORGANIZATION, PALUMNUS
WHERE CEO = ANAME AND ONAME IN
    (SELECT ONAME FROM PCAREER WHERE AID# IN
        (SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))
"""

CAPABILITY_COLUMNS = (
    "native_select",
    "native_projection",
    "signals_writes",
)


def capability_matrix(lqps) -> str:
    header = f"{'backend':<24}" + "".join(f"{c:<18}" for c in CAPABILITY_COLUMNS)
    lines = [header, "-" * len(header)]
    for label, lqp in lqps:
        cells = lqp.capabilities().to_dict()
        lines.append(
            f"{label:<24}"
            + "".join(
                f"{'yes' if cells[c] else '-':<18}" for c in CAPABILITY_COLUMNS
            )
        )
    return "\n".join(lines)


def main() -> None:
    databases = paper_databases()
    workdir = tempfile.mkdtemp(prefix="polygen-polystore-")

    # -- 1. one database per storage technology -----------------------------
    ad = SqliteLQP.from_database(databases["AD"], f"{workdir}/ad.db")
    pd = LogStoreLQP.from_database(databases["PD"], f"{workdir}/pd-log")
    cd = RelationalLQP(databases["CD"])
    print("The paper's three sources, three storage technologies:")
    print(f"  AD: sqlite file   {ad.path}")
    print(f"  PD: jsonl log     {pd.path} ({pd.segment_count()} segment(s))")
    print(f"  CD: in-memory     {cd.name}")
    print()
    print(capability_matrix([("AD (sqlite)", ad), ("PD (log)", pd), ("CD (memory)", cd)]))
    print()

    # -- 2. the paper's CEO query across all three --------------------------
    registry = LQPRegistry()
    for lqp in (ad, pd, cd):
        registry.register(lqp)
    polystore = PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=registry,
        resolver=paper_identity_resolver(),
        prune_projections=True,
    )
    result = polystore.run_sql(PAPER_SQL)
    print("CEO query over the polystore (Table 9):")
    print(render_relation(result.relation, sort=True))
    print()

    # -- 3. tag-identical to the all-in-memory federation -------------------
    memory_registry = LQPRegistry()
    for database in databases.values():
        memory_registry.register(RelationalLQP(database))
    baseline = PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=memory_registry,
        resolver=paper_identity_resolver(),
        optimize=False,
    )
    reference = baseline.run_sql(PAPER_SQL)
    assert result.relation == reference.relation
    assert result.lineage == reference.lineage
    print("Tag-identical to the all-in-memory baseline: data, headings, tags.")
    print()

    # -- 4. what each backend actually shipped -------------------------------
    print("Per-backend transfer counters:")
    for name, stats in sorted(registry.stats().items()):
        print(
            f"  {name}: {stats.queries} local queries, "
            f"{stats.tuples_shipped} tuples shipped"
        )

    polystore.close()
    baseline.close()
    ad.close()
    pd.close()


if __name__ == "__main__":
    main()
