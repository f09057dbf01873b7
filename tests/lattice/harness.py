"""The configuration lattice: every way this system can compute an answer,
drawn pairwise from one declarative description and held to one oracle.

The paper's invariant is that an answer's data and its origin and
intermediate tag sets do not depend on how it was computed.  A
:class:`Configuration` takes one value on each axis of :data:`AXES`, and
:data:`LATTICE` holds every pair of values of every two axes
(:func:`pairwise`).  Each configuration runs on two federations
(:class:`Dataset`): the paper's, whose identity resolver and domain
transforms are the pushdown hazards, and a small generated one
(:func:`generated_data`) with duplicate, nil and NaN keys, ``1``/``True``/
``1.0`` spelling one key, cross-source conflicts and empty relations.
:func:`check` holds every answer to :mod:`tests.reference.answers`'s
oracle over the same stored rows, and the oracle to the paper's printed
tables.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass, fields, replace
from itertools import combinations
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from hypothesis import strategies as st

from repro.backends import KVStoreLQP, LogStoreLQP, SqliteLQP
from repro.catalog.mapping import AttributeMapping
from repro.catalog.schema import PolygenSchema
from repro.catalog.scheme import PolygenScheme
from repro.core.cell import ConflictPolicy
from repro.datasets.expected import expected_table_6, expected_table_9
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.base import project_columns
from repro.lqp.cost import ForwardingLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer
from repro.pqp.matrix import Operation
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions
from repro.translate.translator import translate_sql

from tests.integration.conftest import PAPER_SQL
from tests.reference.answers import Answer, Oracle, canonical_rows

#: Source kinds.  A configuration's kind is its first database's, and the
#: next databases take the kinds after it, so every configuration mixes
#: three.  "projecting" is the in-memory engine narrowing at the source;
#: "binary" and "json" are ``polygen://`` servers reached over that wire.
KINDS = ("projecting", "sqlite", "binary", "json", "memory", "log", "kv")

AXES: Dict[str, Tuple[Any, ...]] = {
    "sources": KINDS,
    # run(), submit().result(), a cursor's fetchall() or chunks(), or
    # eight sessions submitting at once.
    "reader": ("run", "result", "fetchall", "chunks", "sessions"),
    "policy": tuple(ConflictPolicy),
    # Off; on without this query cached; on with it cached; on after a
    # write to the sources and invalidate().
    "cache": ("off", "cold", "warm", "written"),
    "engine": ("serial", "concurrent"),
    "optimize": (True, False),
    "prune_projections": (False, True),
}

SESSIONS = 8
CHUNK_SIZE = 3  # a server's: small, so streams take many frames
TIMEOUT = 30.0


def pairwise(axes: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Points that together hold every pair of values of every two axes.

    Greedy and deterministic: each point starts from the first pair no
    point holds yet, and each other axis takes the value that completes
    the most uncovered pairs with the values already chosen."""
    names, sizes = list(axes), [len(values) for values in axes.values()]

    def pair(a, x, b, y):  # axis and value positions, lower axis first
        return (a, x, b, y) if a < b else (b, y, a, x)

    uncovered = {
        (a, x, b, y)
        for a, b in combinations(range(len(names)), 2)
        for x in range(sizes[a])
        for y in range(sizes[b])
    }
    points = []
    while uncovered:
        a, x, b, y = min(uncovered)
        point = {a: x, b: y}
        for axis in range(len(names)):
            if axis not in point:
                point[axis] = max(
                    range(sizes[axis]),
                    key=lambda v: sum(pair(axis, v, o, w) in uncovered for o, w in point.items()),
                )
        uncovered -= {pair(a, point[a], b, point[b]) for a, b in combinations(point, 2)}
        points.append({name: axes[name][point[axis]] for axis, name in enumerate(names)})
    return points


@dataclass(frozen=True)
class Configuration:
    """One point of the lattice."""

    sources: str
    reader: str
    policy: ConflictPolicy
    cache: str
    engine: str
    optimize: bool
    prune_projections: bool

    def kinds(self, count: int) -> Tuple[str, ...]:
        first = KINDS.index(self.sources)
        return tuple(KINDS[(first + i) % len(KINDS)] for i in range(count))

    @property
    def options(self) -> QueryOptions:
        return QueryOptions(
            engine=self.engine,
            optimize=self.optimize,
            prune_projections=self.prune_projections,
            policy=self.policy,
            cache="off" if self.cache == "off" else "on",
        )

    def __str__(self) -> str:
        def label(name, value):
            if isinstance(value, bool):
                return name if value else "no_" + name
            return value.name if isinstance(value, ConflictPolicy) else value

        return "-".join(label(f.name, getattr(self, f.name)) for f in fields(self))


LATTICE = tuple(Configuration(**point) for point in pairwise(AXES))


# -- sources ---------------------------------------------------------------


def storable(value, kind: str):
    """``value`` as a ``kind`` source holds it: SQLite and the log store
    refuse bools and NaN, and a wire decodes a fresh NaN that equals
    nothing, where the in-memory engines share one."""
    if kind in ("sqlite", "log") and isinstance(value, bool):
        return int(value)
    if kind not in ("memory", "projecting", "kv") and isinstance(value, float):
        return None if value != value else value
    return value


class ProjectingLQP(ForwardingLQP):
    """An in-memory engine that reports ``native_projection`` and narrows
    every verb's answer to ``columns=`` itself."""

    def capabilities(self):
        return replace(self.inner.capabilities(), native_projection=True)

    def retrieve(self, relation_name, columns=None):
        return _narrowed(self.inner.retrieve(relation_name), columns)

    def select(self, relation_name, attribute, theta, value, columns=None):
        return _narrowed(self.inner.select(relation_name, attribute, theta, value), columns)


def _narrowed(relation, columns):
    return relation if columns is None else project_columns(relation, columns)


#: kind → the engine holding a database, given a path for its files.
_ENGINES = {
    "memory": lambda database, path: RelationalLQP(database),
    "projecting": lambda database, path: ProjectingLQP(RelationalLQP(database)),
    "sqlite": lambda database, path: SqliteLQP.from_database(database),
    "log": LogStoreLQP.from_database,
    "kv": lambda database, path: KVStoreLQP.from_database(database),
}
#: engine type → its write verb.
_WRITES = {SqliteLQP: "insert", LogStoreLQP: "append", KVStoreLQP: "put"}


class Sources:
    """Local databases, each behind the source kind given for it, with
    writes that reach both the source and the database (which the oracle
    reads)."""

    def __init__(self, databases: Mapping[str, LocalDatabase], kinds: Sequence[str]):
        self.databases = dict(databases)
        self.engines, self.servers = {}, []
        self.registry = LQPRegistry()
        self._files = tempfile.mkdtemp(prefix="lattice-")
        for (name, database), kind in zip(self.databases.items(), kinds):
            if kind in ("binary", "json"):
                server = LQPServer(RelationalLQP(database), chunk_size=CHUNK_SIZE).start()
                self.servers.append(server)
                self.registry.register(server.url, timeout=TIMEOUT, wire_format=kind)
            else:
                engine = _ENGINES[kind](database, os.path.join(self._files, name))
                self.engines[name] = engine
                self.registry.register(engine)

    def insert(self, name: str, relation: str, row) -> None:
        self.databases[name].insert(relation, [row])
        engine = self.engines.get(name)
        if type(engine) in _WRITES:
            getattr(engine, _WRITES[type(engine)])(relation, [row])

    def close(self) -> None:
        self.registry.close()
        for server in self.servers:
            server.stop()
        for engine in self.engines.values():
            if isinstance(engine, (SqliteLQP, LogStoreLQP)):
                engine.close()
        shutil.rmtree(self._files, ignore_errors=True)


# -- the two federations ---------------------------------------------------


@dataclass
class Dataset:
    """A federation's schema and stored rows, the queries asked of it, the
    writes of the ``written`` cache state, the paper's printed answers,
    and ``(query, is a select)`` pairs whose optimized plan passes key
    sets wherever the guards allow."""

    schema: PolygenSchema
    resolver: Any
    databases: Dict[str, LocalDatabase]
    queries: Tuple[str, ...]
    writes: Tuple[Tuple[str, str, tuple], ...]
    printed: Tuple[Tuple[str, Any], ...] = ()
    key_sets: Tuple[Tuple[str, bool], ...] = ()


#: Values seen in (or near-missing from) the paper's data, per probed
#: attribute.  "CitiCorp"/"Citicorp" exercise the identity-resolver
#: aliasing; "Atlantis" never matches.
_SELECTABLE = {
    "PALUMNUS": {
        "DEGREE": ("MBA", "BS", "MS", "Atlantis"),
        "MAJOR": ("IS", "MGT", "EECS"),
        "ANAME": ("John Reed", "Ken Olsen"),
    },
    "PCAREER": {
        "POSITION": ("CEO", "Manager", "Professor"),
        "ONAME": ("Citicorp", "CitiCorp", "MIT", "Genentech"),
    },
    "PORGANIZATION": {
        "INDUSTRY": ("High Tech", "Banking", "Hotel", "Atlantis"),
        "ONAME": ("Citicorp", "CitiCorp", "IBM", "Genentech"),
        "CEO": ("John Reed", "Bob Swanson"),
        "HEADQUARTERS": ("NY", "CA", "MA"),
    },
    "PSTUDENT": {"MAJOR": ("Finance", "Math", "EECS"), "SNAME": ("John Smith",)},
    "PINTERVIEW": {"ONAME": ("IBM", "Oracle", "Citicorp"), "JOB": ("CFO", "System Analyst")},
    "PFINANCE": {"ONAME": ("IBM", "CitiCorp", "Oracle")},
}

#: (left scheme, join attribute pair, right scheme) shapes from the paper.
_JOINS = (
    ("PALUMNUS", "AID#", "AID#", "PCAREER"),
    ("PCAREER", "ONAME", "ONAME", "PORGANIZATION"),
    ("PINTERVIEW", "ONAME", "ONAME", "PORGANIZATION"),
    ("PFINANCE", "ONAME", "ONAME", "PORGANIZATION"),
)


@st.composite
def paper_queries(draw) -> str:
    """A random polygen algebra query over the paper's federation."""
    schema = paper_polygen_schema()
    shape = draw(st.sampled_from(("select", "select_project", "join", "join_select")))
    if shape.startswith("select"):
        name = draw(st.sampled_from(sorted(_SELECTABLE)))
        attribute = draw(st.sampled_from(sorted(_SELECTABLE[name])))
        value = draw(st.sampled_from(_SELECTABLE[name][attribute]))
        text = f'({name} [{attribute} = "{value}"])'
        if shape == "select_project":
            # A Select materializes only the relations mapping the probed
            # attribute (interpreter, Figure 3); project what they map.
            scheme = schema.scheme(name)
            mapped = {
                polygen
                for location in scheme.relations_for(attribute)
                for polygen in scheme.rename_map(*location).values()
            }
            attrs = [a for a in scheme.attributes if a in mapped]
            keep = draw(st.lists(st.sampled_from(attrs), min_size=1, unique=True))
            text = f"({text} [{', '.join(keep)}])"
        return text
    left, lha, rha, right = draw(st.sampled_from(_JOINS))
    text = f"({left} [{lha} = {rha}] {right})"
    if shape == "join_select":
        attribute = draw(st.sampled_from(sorted(_SELECTABLE[left])))
        value = draw(st.sampled_from(_SELECTABLE[left][attribute]))
        text = f'(({left} [{attribute} = "{value}"]) [{lha} = {rha}] {right})'
    combined = list(schema.scheme(left).attributes) + [
        a for a in schema.scheme(right).attributes if a != rha
    ]
    keep = draw(st.lists(st.sampled_from(combined), min_size=1, unique=True))
    return f"({text} [{', '.join(keep)}])"


#: The query whose answer is the paper's Table 6: PORGANIZATION merged.
TABLE_6 = "PORGANIZATION [ONAME, INDUSTRY, HEADQUARTERS, CEO]"


def paper_dataset(queries: Sequence[str]) -> Dataset:
    """The paper's federation, asked for its Tables 9 and 6 and
    ``queries``.  Its writes add an MBA alumna and a firm she runs."""
    return Dataset(
        paper_polygen_schema(),
        paper_identity_resolver(),
        paper_databases(),
        (PAPER_SQL, TABLE_6, *queries),
        (
            ("AD", "ALUMNUS", ("424", "Grace Murray", "MBA", "CS")),
            ("CD", "FIRM", ("Grace Corp", "Grace Murray", "NY")),
        ),
        printed=((PAPER_SQL, expected_table_9()), (TABLE_6, expected_table_6())),
    )


DATABASES = ("D0", "D1", "D2")
#: Polygen key values: ``1``, ``True`` and ``1.0`` are one key; nil and
#: NaN never match.
KEYS = ("a", "b", "c", 1, True, 1.0, None, math.nan)

SELECT = 'SELECT NAME, IND FROM GORG WHERE IND = "x"'
JOIN = "SELECT PNAME, NAME, IND FROM GPERSON, GORG WHERE EMPLOYER = NAME"
FILTERED_JOIN = JOIN + ' AND PNAME = "p1"'
POINT_JOIN = "SELECT PNAME, IND FROM GPERSON, GORG WHERE EMPLOYER = NAME AND PID = 1"


def key_set_schema() -> PolygenSchema:
    """``GORG`` merged over three sources on the one-attribute key NAME,
    and ``GPERSON`` at D0 whose EMPLOYER joins it."""

    def mapped(databases, relation, pairs):
        return {
            polygen: [AttributeMapping(db, relation, local) for db in databases]
            for polygen, local in pairs
        }

    return PolygenSchema([
        PolygenScheme(
            "GORG", mapped(DATABASES, "ORG", [("NAME", "NAME"), ("IND", "IND")]),
            primary_key=["NAME"],
        ),
        PolygenScheme(
            "GPERSON",
            mapped(["D0"], "PERSON", [("PID", "PID"), ("PNAME", "PNAME"), ("EMPLOYER", "EMP")]),
            primary_key=["PID"],
        ),
    ])


def key_set_databases(orgs, persons, kinds) -> Dict[str, LocalDatabase]:
    """ORG at each of D0–D2 from ``orgs`` (name, industry) lists, PERSON
    at D0 from ``persons`` (pid, employer), stored as ``kinds`` hold them."""
    databases = {db: LocalDatabase(db) for db in DATABASES}
    for database, rows, kind in zip(databases.values(), orgs, kinds):
        database.load(
            RelationSchema("ORG", ["ID", "NAME", "IND"], key=["ID"]),
            [(i, storable(name, kind), ind) for i, (name, ind) in enumerate(rows)],
        )
    databases["D0"].load(
        RelationSchema("PERSON", ["PID", "PNAME", "EMP"], key=["PID"]),
        [(pid, f"p{pid % 2}", storable(employer, kinds[0])) for pid, employer in persons],
    )
    return databases


def generated_dataset(kinds, orgs, persons, new_org, employer) -> Dataset:
    """The generated federation stored as ``kinds`` hold it.  Its writes:
    D1 gains an organization another source names, and D0 a person
    employed by one, so a cached key set goes stale."""
    return Dataset(
        key_set_schema(),
        None,
        key_set_databases(orgs, persons, kinds),
        (SELECT, JOIN, FILTERED_JOIN, POINT_JOIN),
        (
            ("D1", "ORG", (100, storable(new_org, kinds[1]), "x")),
            ("D0", "PERSON", (101, "p1", storable(employer, kinds[0]))),
        ),
        key_sets=((SELECT, True), (FILTERED_JOIN, False)),
    )


@st.composite
def generated_data(draw) -> Dict[str, Any]:
    """:func:`generated_dataset`'s arguments after ``kinds``."""
    rows = st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(("x", "y", None))), max_size=5)
    orgs = draw(st.tuples(rows, rows, rows))
    return dict(
        orgs=orgs,
        persons=list(enumerate(draw(st.lists(st.sampled_from(KEYS), max_size=4)))),
        new_org=draw(st.sampled_from([name for name, _ in orgs[2]] or KEYS)),
        employer=draw(st.sampled_from([name for name, _ in orgs[1] + orgs[2]] or KEYS)),
    )


# -- reading and checking --------------------------------------------------


def read(federation, query, options, reader: str, chunk_size: int) -> List[Answer]:
    """Every answer ``reader`` gets for ``query``."""
    if reader == "run":
        return [Answer.of(lambda: federation.run(query, options))]
    sessions = [federation.session() for _ in range(SESSIONS if reader == "sessions" else 1)]
    try:
        if reader in ("result", "sessions"):
            handles = [session.submit(query, options) for session in sessions]
            return [Answer.of(lambda h=h: h.result(TIMEOUT)) for h in handles]
        handle = sessions[0].submit(query, options.replace(stream_chunk_size=chunk_size))
        cursor = handle.cursor()

        def fetched():
            if reader == "fetchall":
                parts = cursor.fetchall(TIMEOUT)
            else:
                parts = list(cursor.chunks(TIMEOUT))
            result = handle.result(TIMEOUT)
            # The batches, in order, are the answer's rows in order.
            assert canonical_rows(parts) == canonical_rows([result.relation]), query
            return result, cursor.attributes, parts

        return [Answer.of(fetched)]
    finally:
        for session in sessions:
            session.close()


def _passes_key_sets(federation, query: str, options: QueryOptions) -> bool:
    _, pom = federation.analyze(translate_sql(query, federation.schema).expression)
    iom, _ = federation.optimize(federation.plan(pom), options)
    return any(row.op is Operation.SELECT_IN for row in iom)


def check(config: Configuration, dataset: Dataset, chunk_size: int) -> None:
    """Ask ``dataset``'s queries under ``config``; hold every answer to the
    oracle's, and the oracle to the paper."""
    sources = Sources(dataset.databases, config.kinds(len(dataset.databases)))
    oracle = Oracle(dataset.schema, dataset.databases, dataset.resolver)
    federation = PolygenFederation(
        dataset.schema, sources.registry, resolver=dataset.resolver,
        max_concurrent_queries=SESSIONS,
    )
    options = config.options
    try:
        for query, table in dataset.printed:
            printed = tuple(sorted(canonical_rows([table])))
            assert oracle.answer(query, ConflictPolicy.DROP).rows == printed, query
        if config.cache in ("warm", "written"):
            for query in dataset.queries:
                Answer.of(lambda: federation.run(query, options))
        if config.cache == "written":
            for database, relation, row in dataset.writes:
                sources.insert(database, relation, row)
            for database in sorted({write[0] for write in dataset.writes}):
                federation.invalidate(database)
            oracle.forget()
        for query in dataset.queries:
            want = oracle.answer(query, config.policy)
            for got in read(federation, query, options, config.reader, chunk_size):
                assert got == want, f"{config} diverged from the oracle on {query!r}"
                if config.cache == "warm" and want.error is None:
                    assert got.cache_hit, f"{config}: a repeat of {query!r} missed the cache"
        # Key sets travel wherever every source selects (and, for a
        # select, projects) natively and the policy is not ERROR.
        capabilities = [lqp.capabilities() for lqp in sources.registry]
        for query, select in dataset.key_sets:
            allowed = (
                config.optimize
                and config.policy is not ConflictPolicy.ERROR
                and all(c.native_select for c in capabilities)
                and (not select or all(c.native_projection for c in capabilities))
            )
            assert _passes_key_sets(federation, query, options) is allowed, (config, query)
    finally:
        federation.close()
        oracle.close()
        sources.close()
