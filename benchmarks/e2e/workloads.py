"""The six workloads: data, sources, query texts and seeded op sequences.

Everything here is a pure function of ``--seed``: the generated federation,
the literal values inside the query texts, the order of operations and the
rows the writes insert.  The program under test sees only the generated
databases and the query *text*; the structured :class:`Derive` beside a
text exists for the oracle alone (``check.py``).

Each workload's op sequence is an unbounded iterator, so a time-bounded
run consumes a prefix of it and the same seed always yields the same
prefix.  Kind mixes are *stratified* — every block of ops holds exactly
the same number of cheap and dear operations, shuffled by the seed — so
that throughput and tail latency measure the program and not the luck of
an i.i.d. draw (the driver compares runs on different seeds).  A block is
also the unit the timed run measures between two yardsticks
(``harness.Rounds``), so it is sized to take 0.1 to 0.6 s.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import PolygenSchema
from repro.datasets.generators import FederationSpec, generate_federation
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.integration.identity import IdentityResolver
from repro.relational.database import LocalDatabase

__all__ = ["WORKLOADS", "Dataset", "Derive", "Query", "Read", "Workload", "Write"]

#: What a traced or timed run of 10 s is scaled from (see ``run.py``).
REFERENCE_SECONDS = 10

#: ``scan_remote``: tuples per wire chunk, and requests each remote source
#: keeps in flight.
WIRE_CHUNK_TUPLES = 4096
REMOTE_CONCURRENCY = 2

ORG_COLUMNS = ("NAME", "INDUSTRY", "HEADQUARTERS")
SCAN_TEXT = "GORGANIZATION [NAME, INDUSTRY, HEADQUARTERS]"


@dataclass(frozen=True)
class Derive:
    """How the oracle reaches a select's answer from a shared prefix:
    ``base [attribute = value] [columns]`` — exactly the unoptimized plan's
    rows after its Retrieve/Merge prefix, which is evaluated once."""

    base: str
    attribute: str
    value: object
    columns: Tuple[str, ...]


@dataclass(frozen=True)
class Query:
    text: str
    derive: Optional[Derive] = None


@dataclass(frozen=True)
class Read:
    """Submit ``text`` and drain the cursor.

    ``query`` indexes the workload's distinct-query table; the expected
    cardinality is the oracle's for that query plus ``bump`` (rows earlier
    writes added).  A *probe* (``query is None``) reads a key a write is
    about to insert, or has just inserted: ``row`` is then the one data
    row expected (``None`` → no rows) and ``origin`` the database that
    must be its every cell's originating source.
    """

    text: str
    query: Optional[int] = None
    bump: int = 0
    row: Optional[Tuple] = None
    origin: Optional[str] = None
    after_write: bool = False


@dataclass(frozen=True)
class Write:
    """Insert ``row`` into ``database``'s ORG relation, then tell the
    federation that database changed."""

    database: str
    row: Tuple


@dataclass
class Dataset:
    schema: PolygenSchema
    databases: Dict[str, LocalDatabase]
    resolver: Optional[IdentityResolver]
    queries: List[Query]


@dataclass(frozen=True)
class Workload:
    name: str
    #: "memory" (RelationalLQP), "sqlite" (SqliteLQP :memory:) or "remote"
    #: (LQPServers in one child process, registered by polygen:// URL).
    sources: str
    #: Generated-federation shape; ``None`` is the paper's three databases.
    spec: Optional[FederationSpec]
    #: Session-level QueryOptions overrides; everything else is default.
    options: Dict[str, object]
    clients: int
    #: How a client drains the cursor: "fetchall" rows or columnar "chunks".
    reader: str
    build_queries: Callable[[random.Random, Dict[str, LocalDatabase]], List[Query]]
    ops: Callable[[random.Random, Dataset], Iterator[object]]
    #: Ops replayed under tracing / ops run untraced before them in a
    #: ``--trace 1`` run, at the reference run length (per client).
    traced_ops: int
    baseline_ops: int
    #: Ops per block of a client's sequence; every block has the same mix,
    #: and rates are averaged over whole blocks (``harness.block_means``).
    block_ops: int = 1
    #: Leading ops of the sequence that only bring the program's caches to
    #: their steady state; the warm-up runs at least these.
    fill_ops: int = 0

    def dataset(self, seed: int) -> Dataset:
        """Generate this workload's inputs from ``seed``."""
        if self.spec is None:
            databases = paper_databases()
            schema = paper_polygen_schema()
            resolver = paper_identity_resolver()
        else:
            generated = generate_federation(dataclasses.replace(self.spec, seed=seed))
            databases, schema, resolver = generated.databases, generated.schema, None
        queries = self.build_queries(random.Random(seed), databases)
        return Dataset(schema, databases, resolver, queries)

    def client_ops(self, seed: int, client: int, dataset: Dataset) -> Iterator[object]:
        """Client ``client``'s op sequence — its own stream of the seed."""
        return self.ops(random.Random(seed * 1009 + client), dataset)


# -- shared pieces -----------------------------------------------------------


def _zipf_weights(count: int, exponent: float = 1.1) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def _column_values(databases: Dict[str, LocalDatabase], position: int) -> List[str]:
    """Distinct values of one ORG column across the federation, sorted."""
    values = set()
    for database in databases.values():
        values.update(row[position] for row in database.relation("ORG").rows)
    return sorted(values)


def _org_select(attribute: str, value: str, columns: Sequence[str]) -> Query:
    text = (
        f"SELECT {', '.join(columns)} FROM GORGANIZATION "
        f'WHERE {attribute} = "{value}"'
    )
    return Query(text, Derive(SCAN_TEXT, attribute, value, tuple(columns)))


def _universe(databases: Dict[str, LocalDatabase]) -> List[str]:
    names = set()
    for database in databases.values():
        names.update(row[0] for row in database.relation("ORG").rows)
    return sorted(names)


# -- small_sql ---------------------------------------------------------------

_CEO_SQL = (
    "SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND ONAME IN "
    "(SELECT ONAME FROM PCAREER WHERE AID# IN "
    '(SELECT AID# FROM PALUMNUS WHERE DEGREE = "{degree}"))'
)

_SMALL_SQL_TEXTS = (
    _CEO_SQL.format(degree="MBA"),  # the paper's query (Table 9)
    _CEO_SQL.format(degree="MS"),
    _CEO_SQL.format(degree="SF"),
    'SELECT ANAME, MAJOR FROM PALUMNUS WHERE DEGREE = "MBA"',
    'SELECT ONAME, INDUSTRY, HEADQUARTERS FROM PORGANIZATION WHERE INDUSTRY = "High Tech"',
    "SELECT ONAME, PROFIT FROM PFINANCE WHERE YEAR = 1989",
    "SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME",
    'SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND DEGREE = "MBA"',
)


def _small_sql_queries(rng, databases) -> List[Query]:
    return [Query(text) for text in _SMALL_SQL_TEXTS]


def _small_sql_ops(rng: random.Random, dataset: Dataset):
    order = list(range(len(dataset.queries)))
    rng.shuffle(order)
    for index in itertools.cycle(order):
        yield Read(dataset.queries[index].text, index)


# -- cache_churn -------------------------------------------------------------

_POINT_SHAPES, _NONKEY_SHAPES, _JOIN_SHAPES = 577, 20, 3
#: One window = probe, write, probe, then this many reads of each kind.
_WINDOW_READS = ((19, "point"), (2, "nonkey"), (1, "join"))
_WINDOW_OPS = 3 + sum(count for count, _ in _WINDOW_READS)
#: Where the three dear reads sit among the window's 22.  Kept apart: the
#: cache is filled *after* a query's rows are delivered, so two dear reads
#: back to back both miss and re-Merge — a real race, but one that made a
#: window cost 1x or 2x depending on the shuffle.
_DEAR_SLOTS = (4, 11, 18)
#: The fill (the sequence's first ops): every point shape once, coldest
#: first, a write before every this many reads.
_FILL_ROUND = 20
_FILL_OPS = _POINT_SHAPES + -(-_POINT_SHAPES // _FILL_ROUND)


def _cache_churn_queries(rng: random.Random, databases) -> List[Query]:
    names = rng.sample(_universe(databases), _POINT_SHAPES)
    queries = [_org_select("NAME", name, ORG_COLUMNS) for name in names]
    industries = _column_values(databases, 1)
    states = _column_values(databases, 2)
    nonkey = [_org_select("INDUSTRY", value, ORG_COLUMNS) for value in industries]
    nonkey += [
        _org_select("HEADQUARTERS", value, ("NAME", "HEADQUARTERS")) for value in states
    ]
    nonkey += [
        _org_select("INDUSTRY", value, ("NAME", "INDUSTRY")) for value in industries
    ]
    rng.shuffle(nonkey)
    queries += nonkey[:_NONKEY_SHAPES]
    for index, database in enumerate(sorted(databases)[:_JOIN_SHAPES]):
        person = rng.choice(databases[database].relation("PERSON").rows)
        queries.append(
            Query(
                f"SELECT PNAME, NAME, INDUSTRY FROM GPERSON{index:02d}, GORGANIZATION "
                f'WHERE EMPLOYER = NAME AND PID = "{person[0]}"'
            )
        )
    return queries


def _cache_churn_ops(rng: random.Random, dataset: Dataset):
    """One source, picked by the seed, takes every write; the other two
    are read-only, so what the cache holds of *them* is never invalidated
    and only the 512-entry bound limits it.  A point select leaves five
    entries (one subtree per source, the Merge, the whole query); a write
    drops the three that consulted the written source.  So the two
    entries per point shape that survive writes — 1154 for 577 shapes —
    exceed the bound, while the Zipf head (the ~220 hottest shapes, 90 %
    of the draws) fits.

    **The fill** brings the cache to that state the way months of traffic
    would, in a second: every point shape once, coldest first, with a
    write before every 20 reads so that the entries a write drops do not
    crowd out the ones that stay.  The warm-up always runs it whole.

    **Then windows of 25 ops**: read a key nobody has inserted yet
    (caching the empty answer), insert it and invalidate, read it again (a
    stale cache would still say empty), then 22 reads — Zipf(1.1) within
    each kind, the dear ones at fixed slots among the shuffled point
    selects."""
    ranges = {
        "point": range(0, _POINT_SHAPES),
        "nonkey": range(_POINT_SHAPES, _POINT_SHAPES + _NONKEY_SHAPES),
        "join": range(_POINT_SHAPES + _NONKEY_SHAPES, len(dataset.queries)),
    }
    weights = {kind: _zipf_weights(len(indices)) for kind, indices in ranges.items()}
    industries = _column_values(dataset.databases, 1)
    states = _column_values(dataset.databases, 2)
    written = rng.choice(sorted(dataset.databases))
    #: (attribute, value) → rows inserted so far that a select on it gains.
    inserted: Dict[Tuple[str, object], int] = {}
    numbers = itertools.count()

    def new_row() -> Tuple[str, str, str]:
        row = (f"Org-W{next(numbers):05d}", rng.choice(industries), rng.choice(states))
        inserted[("INDUSTRY", row[1])] = inserted.get(("INDUSTRY", row[1]), 0) + 1
        inserted[("HEADQUARTERS", row[2])] = inserted.get(("HEADQUARTERS", row[2]), 0) + 1
        return row

    def read(index: int) -> Read:
        derive = dataset.queries[index].derive
        bump = inserted.get((derive.attribute, derive.value), 0) if derive else 0
        return Read(dataset.queries[index].text, index, bump)

    for position, index in enumerate(reversed(ranges["point"])):
        if position % _FILL_ROUND == 0:
            yield Write(written, new_row())
        yield read(index)

    while True:
        row = new_row()
        probe = _org_select("NAME", row[0], ORG_COLUMNS).text
        yield Read(probe)
        yield Write(written, row)
        yield Read(probe, row=row, origin=written, after_write=True)
        light, dear = [], []
        for count, kind in _WINDOW_READS:
            drawn = [read(rng.choices(ranges[kind], weights[kind])[0]) for _ in range(count)]
            (light if kind == "point" else dear).extend(drawn)
        rng.shuffle(dear)
        for slot in _DEAR_SLOTS:
            light.insert(slot, dear.pop())
        yield from light


# -- scan_local / scan_remote / join_equi ------------------------------------

_JOIN_TEXT = (
    "SELECT PNAME, NAME, INDUSTRY FROM GPERSON00, GORGANIZATION WHERE EMPLOYER = NAME"
)


def _single_query(text: str):
    def queries(rng, databases) -> List[Query]:
        return [Query(text)]

    def ops(rng, dataset: Dataset):
        while True:
            yield Read(text, 0)

    return queries, ops


_SCAN_QUERIES, _SCAN_OPS = _single_query(SCAN_TEXT)
_JOIN_QUERIES, _JOIN_OPS = _single_query(_JOIN_TEXT)

# -- sessions_mixed ----------------------------------------------------------

_MIXED_POINTS = 40
_MIXED_INDUSTRIES = 4
#: Per block: key point selects, and every non-key shape once (the
#: industry selects and the full scan) — 80 % / 20 %.
_MIXED_BLOCK = (4 * (_MIXED_INDUSTRIES + 1), _MIXED_INDUSTRIES + 1)


def _sessions_mixed_queries(rng: random.Random, databases) -> List[Query]:
    names = rng.sample(_universe(databases), _MIXED_POINTS)
    queries = [_org_select("NAME", name, ORG_COLUMNS) for name in names]
    industries = _column_values(databases, 1)
    queries += [
        _org_select("INDUSTRY", value, ORG_COLUMNS)
        for value in rng.sample(industries, _MIXED_INDUSTRIES)
    ]
    queries.append(Query(SCAN_TEXT))
    return queries


def _sessions_mixed_ops(rng: random.Random, dataset: Dataset):
    """Blocks of 25, shuffled: twenty key point selects drawn from the 40,
    and each of the five non-key shapes (four selects, the scan) once — so
    every block costs the same, whatever the seed drew."""

    def read(index: int) -> Read:
        return Read(dataset.queries[index].text, index)

    while True:
        block = [read(rng.randrange(_MIXED_POINTS)) for _ in range(_MIXED_BLOCK[0])]
        block += [read(index) for index in range(_MIXED_POINTS, len(dataset.queries))]
        rng.shuffle(block)
        yield from block


# -- the table ---------------------------------------------------------------

_SCAN_SPEC = FederationSpec(databases=3, organizations=20_000, coverage=0.62)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="small_sql",
            sources="memory",
            spec=None,
            options={},
            clients=1,
            reader="fetchall",
            build_queries=_small_sql_queries,
            ops=_small_sql_ops,
            traced_ops=200,
            baseline_ops=1000,
            block_ops=10 * len(_SMALL_SQL_TEXTS),
        ),
        Workload(
            name="cache_churn",
            sources="sqlite",
            spec=FederationSpec(
                databases=3, organizations=20_000, coverage=0.6, people_per_database=200
            ),
            options={"cache": "on"},
            clients=1,
            reader="fetchall",
            build_queries=_cache_churn_queries,
            ops=_cache_churn_ops,
            traced_ops=200,
            baseline_ops=300,
            block_ops=_WINDOW_OPS,
            fill_ops=_FILL_OPS,
        ),
        Workload(
            name="scan_local",
            sources="memory",
            spec=_SCAN_SPEC,
            options={},
            clients=1,
            reader="chunks",
            build_queries=_SCAN_QUERIES,
            ops=_SCAN_OPS,
            traced_ops=8,
            baseline_ops=8,
        ),
        Workload(
            name="scan_remote",
            sources="remote",
            spec=_SCAN_SPEC,
            options={},
            clients=1,
            reader="chunks",
            build_queries=_SCAN_QUERIES,
            ops=_SCAN_OPS,
            traced_ops=8,
            baseline_ops=8,
        ),
        Workload(
            name="join_equi",
            sources="memory",
            spec=FederationSpec(
                databases=2, organizations=2400, coverage=0.8, people_per_database=800
            ),
            options={},
            clients=1,
            reader="chunks",
            build_queries=_JOIN_QUERIES,
            ops=_JOIN_OPS,
            traced_ops=3,
            baseline_ops=3,
        ),
        Workload(
            name="sessions_mixed",
            sources="memory",
            spec=FederationSpec(databases=3, organizations=2_000),
            options={"engine": "concurrent"},
            clients=2,
            reader="fetchall",
            build_queries=_sessions_mixed_queries,
            ops=_sessions_mixed_ops,
            traced_ops=100,
            baseline_ops=150,
            block_ops=_MIXED_BLOCK[0] + _MIXED_BLOCK[1],
        ),
    )
}
