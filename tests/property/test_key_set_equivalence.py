"""Key-set passing is invisible in the answer.

The optimizer's key-set passing (``pqp/optimizer.py``) gives every branch
of a keyed Merge a SelectIn: ``π_A(L)`` for a key equijoin whose ``L`` is
filtered, the union of the branches' ``π_K σ`` for a non-key equality
select.  The property: on a
small generated federation — duplicate keys within and across sources,
nil and NaN keys, ``1``/``True``/``1.0`` spelling one key, cross-source
conflicts — every query answers with the same data *and* the same
origin/intermediate tag sets as the unoptimized plan, under all four
conflict policies, on in-memory (narrowing at the source or not), SQLite,
key-value and ``polygen://`` sources, with the cache off, warm, and after a write to the source a key
set came from.
"""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.kv_lqp import KVStoreLQP
from repro.backends.sqlite_lqp import SqliteLQP
from repro.catalog.mapping import AttributeMapping
from repro.catalog.scheme import PolygenScheme
from repro.catalog.schema import PolygenSchema
from repro.core.cell import ConflictPolicy
from repro.errors import PolygenError
from repro.lqp.base import project_columns
from repro.lqp.cost import ForwardingLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net.server import LQPServer
from repro.pqp.matrix import Operation
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions

DATABASES = ("D0", "D1", "D2")
SHARED_NAN = math.nan
#: Polygen key values: ``1``, ``True`` and ``1.0`` are one key; nil and
#: NaN never match.
KEYS = ("a", "b", "c", 1, True, 1.0, None, SHARED_NAN)
INDUSTRIES = ("x", "y", None)
#: "projecting" is the in-memory engine narrowing at the source, as
#: SQLite and a polygen:// source do.  A key-value source (no native
#: select) blocks key-set passing, and the plain in-memory engine (no
#: native projection) blocks the select's, so both are drawn less often.
KINDS = ("projecting", "sqlite", "remote") * 2 + ("memory", "kv")

SELECT = 'SELECT NAME, IND FROM GORG WHERE IND = "x"'
JOIN = "SELECT PNAME, NAME, IND FROM GPERSON, GORG WHERE EMPLOYER = NAME"
FILTERED_JOIN = JOIN + ' AND PNAME = "p1"'
POINT_JOIN = (
    "SELECT PNAME, IND FROM GPERSON, GORG WHERE EMPLOYER = NAME AND PID = 1"
)
#: The unfiltered join keeps its plan; it is here as a control.
QUERIES = (SELECT, JOIN, FILTERED_JOIN, POINT_JOIN)

ORG = RelationSchema("ORG", ["ID", "NAME", "IND"], key=["ID"])
PERSON = RelationSchema("PERSON", ["PID", "PNAME", "EMP"], key=["PID"])


def key_set_schema() -> PolygenSchema:
    """``GORG`` merged over three sources on the one-attribute key NAME,
    and ``GPERSON`` at D0 whose EMPLOYER joins it."""
    schema = PolygenSchema()
    schema.add(
        PolygenScheme(
            "GORG",
            {
                "NAME": [AttributeMapping(db, "ORG", "NAME") for db in DATABASES],
                "IND": [AttributeMapping(db, "ORG", "IND") for db in DATABASES],
            },
            primary_key=["NAME"],
        )
    )
    schema.add(
        PolygenScheme(
            "GPERSON",
            {
                "PID": [AttributeMapping("D0", "PERSON", "PID")],
                "PNAME": [AttributeMapping("D0", "PERSON", "PNAME")],
                "EMPLOYER": [AttributeMapping("D0", "PERSON", "EMP")],
            },
            primary_key=["PID"],
        )
    )
    return schema


def storable(value, kind: str):
    """``value`` as a ``kind`` source can hold it: SQLite refuses bools and
    NaN, and the wire decodes a fresh NaN object that equals nothing."""
    if kind == "sqlite" and isinstance(value, bool):
        return int(value)
    if kind in ("sqlite", "remote") and isinstance(value, float) and value != value:
        return None
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


class Sources:
    """Three local databases behind one kind of LQP each, with a way to
    write to them that reaches the engine the federation reads."""

    def __init__(self, orgs, persons, kinds):
        self.kinds = dict(zip(DATABASES, kinds))
        self.databases = {}
        for db, rows in zip(DATABASES, orgs):
            database = LocalDatabase(db)
            database.load(ORG, self._rows(db, rows, start=0))
            if db == "D0":
                database.load(PERSON, [self._person(db, row) for row in persons])
            self.databases[db] = database
        self.engines = {}
        self.servers = []
        self.registry = LQPRegistry()
        for db, database in self.databases.items():
            kind = self.kinds[db]
            if kind == "remote":
                server = LQPServer(RelationalLQP(database)).start()
                self.servers.append(server)
                self.registry.register(server.url, timeout=15.0)
                continue
            if kind == "sqlite":
                engine = SqliteLQP.from_database(database)
            elif kind == "kv":
                engine = KVStoreLQP.from_database(database)
            elif kind == "projecting":
                engine = ProjectingLQP(RelationalLQP(database))
            else:
                engine = RelationalLQP(database)
            self.engines[db] = engine
            self.registry.register(engine)

    def _rows(self, db, rows, start):
        kind = self.kinds[db]
        return [
            (start + position, storable(name, kind), industry)
            for position, (name, industry) in enumerate(rows)
        ]

    def _person(self, db, row):
        pid, employer = row
        return (pid, f"p{pid % 2}", storable(employer, self.kinds[db]))

    def insert(self, db: str, relation: str, row) -> None:
        engine = self.engines.get(db)
        if isinstance(engine, SqliteLQP):
            engine.insert(relation, [row])
        elif isinstance(engine, KVStoreLQP):
            engine.put(relation, [row])
        else:  # in memory, or the database behind a server
            self.databases[db].insert(relation, [row])

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        self.registry.close()


def answer(federation, text, **options):
    """The relation, or the type of the error it raised."""
    try:
        return federation.run(text, QueryOptions(**options)).relation
    except PolygenError as error:
        return type(error)


def rewritten(federation, algebra, policy) -> bool:
    """Whether the optimized plan of ``algebra`` holds a SelectIn."""
    options = QueryOptions(policy=policy)
    _, pom = federation.analyze(algebra)
    iom, _ = federation.optimize(federation.plan(pom, options), options)
    return any(row.op is Operation.SELECT_IN for row in iom)


org_rows = st.lists(
    st.tuples(st.sampled_from(KEYS), st.sampled_from(INDUSTRIES)), max_size=5
)
person_rows = st.lists(st.sampled_from(KEYS), max_size=4).map(
    lambda employers: list(enumerate(employers))
)


@settings(max_examples=60, deadline=None)
@given(
    orgs=st.tuples(org_rows, org_rows, org_rows),
    persons=person_rows,
    kinds=st.tuples(*[st.sampled_from(KINDS)] * 3),
    policy=st.sampled_from(list(ConflictPolicy)),
    data=st.data(),
)
def test_key_set_passing_is_tag_exact(orgs, persons, kinds, policy, data):
    sources = Sources(orgs, persons, kinds)
    try:
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            for text in QUERIES:
                want = answer(federation, text, optimize=False, policy=policy)
                assert answer(federation, text, policy=policy) == want, text
                cold = answer(federation, text, policy=policy, cache="on")
                warm = answer(federation, text, policy=policy, cache="on")
                assert cold == want and warm == want, text
            # Writes to the sources the key sets come from: D0 holds the
            # filtered join's left operand, D1 a phase-1 select.  The new
            # keys are names other sources hold, whose cached SelectIns
            # would go stale if the write did not reach them.
            new_org = data.draw(
                st.sampled_from([name for name, _ in orgs[2]] or KEYS), label="org"
            )
            employer = data.draw(
                st.sampled_from([name for name, _ in orgs[1] + orgs[2]] or KEYS),
                label="employer",
            )
            sources.insert("D1", "ORG", (100, storable(new_org, kinds[1]), "x"))
            sources.insert("D0", "PERSON", (101, "p1", storable(employer, kinds[0])))
            federation.invalidate("D0")
            federation.invalidate("D1")
            for text in QUERIES:
                want = answer(federation, text, optimize=False, policy=policy)
                assert answer(federation, text, policy=policy, cache="on") == want, text
            # The rewrite fired wherever its guards allow it.
            blocked = "kv" in kinds or policy is ConflictPolicy.ERROR
            join = 'GPERSON [PNAME = "p1"] [EMPLOYER = NAME] GORG'
            assert rewritten(federation, join, policy) is not blocked
            blocked = blocked or "memory" in kinds
            assert rewritten(federation, 'GORG [IND = "x"]', policy) is not blocked
    finally:
        sources.close()
