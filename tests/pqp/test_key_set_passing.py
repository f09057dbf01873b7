"""Key-set passing through Merge: plan shapes, guards, rendering, spans.

The differential property over generated data is the configuration
lattice (``tests/lattice/test_lattice.py``); the cases here pin the
plan the rewrite builds, where it must not fire, and the corners the
property may draw only rarely (nil and NaN keys that pass the select,
a write to the source a cached key set came from).
"""

import math

import pytest

from repro.backends.kv_lqp import KVStoreLQP
from repro.catalog.mapping import AttributeMapping
from repro.catalog.scheme import PolygenScheme
from repro.catalog.schema import PolygenSchema
from repro.core.cell import ConflictPolicy
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.display.graph import plan_graph
from repro.errors import ExecutionError
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.matrix import Operation
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions

from tests.lattice.harness import (
    FILTERED_JOIN,
    POINT_JOIN,
    SELECT,
    Sources,
    key_set_databases,
    key_set_schema,
)
from tests.reference.answers import Answer

ORGS = (
    [("a", "x"), ("b", "y"), (None, "x"), (math.nan, "x"), (None, "y")],
    [("a", "y"), ("c", "x"), ("only1", "y"), (1, "x")],
    [("b", "x"), ("c", "x"), (True, "y")],
)
PERSONS = [(0, "a"), (1, "c"), (2, None), (3, 1.0)]
FILTERED = "GPERSON [PID = 1] [EMPLOYER = NAME] GORG"


def _sources(kinds=("projecting",) * 3):
    return Sources(key_set_databases(ORGS, PERSONS, kinds), kinds)


@pytest.fixture
def sources():
    built = _sources()
    yield built
    built.close()


def _optimized(federation, algebra, **options):
    options = QueryOptions(**options)
    _, pom = federation.analyze(algebra)
    return federation.optimize(federation.plan(pom), options)


def _select_ins(iom):
    return [row for row in iom if row.op is Operation.SELECT_IN]


class TestPlanShapes:
    def test_join_filters_every_branch_by_the_left_operand(self, sources):
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            iom, report = _optimized(federation, FILTERED)
        assert report.key_sets_passed == 1
        select_ins = _select_ins(iom)
        assert [row.el for row in select_ins] == ["D0", "D1", "D2"]
        (producer,) = {row.rhr for row in select_ins}
        assert iom.row_for(producer[0]).lhr.relation == "PERSON"
        assert {(row.lha, row.rha, row.unkeyed) for row in select_ins} == {
            ("NAME", "EMPLOYER", None)
        }
        # Every row follows the rows it consumes.
        for row in iom:
            assert all(ref.index < row.result.index for ref in row.referenced_results())

    def test_select_ships_keys_first_then_the_surviving_groups(self, sources):
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            iom, report = _optimized(federation, 'GORG [IND = "x"]')
        assert report.key_sets_passed == 1
        phase_one = [row for row in iom if row.is_local and row.op is Operation.SELECT]
        assert [(row.el, row.lha, row.project) for row in phase_one] == [
            (db, "IND", ("NAME",)) for db in ("D0", "D1", "D2")
        ]
        producers = tuple(row.result for row in phase_one)
        for row in _select_ins(iom):
            assert row.rhr == producers and row.rha == "NAME"
            assert row.unkeyed[:2] == ("IND", phase_one[0].theta)
        # The Restrict still runs over the Merge.
        assert iom[-1].op is Operation.SELECT and not iom[-1].is_local

    def test_optimizing_twice_changes_nothing(self, sources):
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            once, _ = _optimized(federation, 'GORG [IND = "x"]')
            twice, report = federation.optimize(once)
        assert twice.rows == once.rows and report.key_sets_passed == 0


class TestGuards:
    @pytest.mark.parametrize(
        "algebra",
        [
            'GORG [IND <> "x"]',  # <> keeps nearly every row
            'GORG [IND < "x"]',  # an ordering can raise on a dropped value
            'GORG [NAME = "a"]',  # a key select is replicated instead
            "GPERSON [EMPLOYER = PNAME] GPERSON",  # no keyed Merge
            # An unfiltered left operand is held back only because the
            # benchmark's tuples_per_s counts shipped tuples; this case
            # goes when that metric changes (ROADMAP items 1 and 2).
            "GPERSON [EMPLOYER = NAME] GORG",
        ],
    )
    def test_other_shapes_keep_their_plan(self, sources, algebra):
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            iom, report = _optimized(federation, algebra)
        assert not _select_ins(iom) and report.key_sets_passed == 0

    def test_error_policy_keeps_the_whole_merge(self, sources):
        # Under ERROR a conflict in a key group the query never reads must
        # still raise, so every group has to reach the Merge.
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            iom, _ = _optimized(federation, 'GORG [IND = "x"]', policy=ConflictPolicy.ERROR)
            assert not _select_ins(iom)

    @pytest.mark.parametrize("key", ['"a"', '"b"', '"c"', '"only1"', "1", '"absent"'])
    def test_error_policy_key_select_answers_as_unoptimized(self, sources, key):
        # Keys "a" and "b" conflict on IND (and 1 with True), so under ERROR
        # a select of any key — one that agrees, or none at all — raises
        # as the unoptimized plan does, instead of answering from the
        # branches' copies of the select.
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            answers = {
                optimize: Answer.of(
                    lambda: federation.run(
                        f"GORG [NAME = {key}]",
                        QueryOptions(policy=ConflictPolicy.ERROR, optimize=optimize),
                    )
                )
                for optimize in (False, True)
            }
        assert answers[False].error is ExecutionError
        assert answers[True].error is ExecutionError

    def test_an_engine_without_native_select_blocks_it(self):
        sources = _sources(("projecting", "kv", "projecting"))
        try:
            assert isinstance(sources.engines["D1"], KVStoreLQP)
            with PolygenFederation(key_set_schema(), sources.registry) as federation:
                for algebra in ('GORG [IND = "x"]', FILTERED):
                    iom, _ = _optimized(federation, algebra)
                    assert not _select_ins(iom), algebra
        finally:
            sources.close()

    def test_an_engine_without_native_projection_blocks_the_select(self):
        # Phase 1 is meant to ship keys; an engine that cannot narrow would
        # ship every matching row whole, and phase 2 ships it again.
        sources = _sources(("projecting", "memory", "projecting"))
        try:
            with PolygenFederation(key_set_schema(), sources.registry) as federation:
                selected, _ = _optimized(federation, 'GORG [IND = "x"]')
                joined, _ = _optimized(federation, FILTERED)
            assert not _select_ins(selected) and _select_ins(joined)
        finally:
            sources.close()

    def test_a_domain_transform_blocks_it(self, sources):
        mappings = {
            "NAME": [AttributeMapping(db, "ORG", "NAME") for db in ("D0", "D1", "D2")],
            "IND": [
                AttributeMapping("D0", "ORG", "IND", transform="uppercase"),
                AttributeMapping("D1", "ORG", "IND"),
                AttributeMapping("D2", "ORG", "IND"),
            ],
        }
        schema = PolygenSchema()
        schema.add(PolygenScheme("GORG", mappings, primary_key=["NAME"]))
        with PolygenFederation(schema, sources.registry) as federation:
            iom, _ = _optimized(federation, 'GORG [IND = "x"]')
        assert not _select_ins(iom)

    def test_the_paper_federation_keeps_its_plans(self):
        # Its resolver has synonym groups: raw local keys are not the
        # merged keys, so no key set may travel.
        registry = LQPRegistry()
        for database in paper_databases().values():
            registry.register(RelationalLQP(database))
        with PolygenFederation(
            paper_polygen_schema(), registry, resolver=paper_identity_resolver()
        ) as federation:
            result = federation.run(
                "SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME"
            )
        assert not _select_ins(result.iom)


class TestAnswers:
    def _both(self, federation, text, **options):
        plain = federation.run(text, QueryOptions(optimize=False, **options))
        passed = federation.run(text, QueryOptions(**options))
        assert _select_ins(passed.iom)
        return plain.relation, passed.relation

    def test_nil_and_nan_keyed_rows_that_pass_the_select_survive(self, sources):
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            plain, passed = self._both(federation, SELECT)
        unkeyed = [row for row in passed.data_rows() if row[0] is None or row[0] != row[0]]
        assert len(unkeyed) == 2  # (nil, "x") and (NaN, "x") from D0
        assert passed == plain

    @pytest.mark.parametrize(
        "policy",
        [ConflictPolicy.DROP, ConflictPolicy.PREFER_LEFT, ConflictPolicy.PREFER_RIGHT],
    )
    def test_joins_answer_as_the_whole_merge_does(self, sources, policy):
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            for text in (FILTERED_JOIN, POINT_JOIN):
                plain, passed = self._both(federation, text, policy=policy)
                assert passed == plain, text

    def test_only_the_keys_that_can_survive_ship(self, sources):
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            registry = federation.registry
            registry.reset_stats()
            federation.run(POINT_JOIN, QueryOptions(optimize=False))
            whole = registry.total_stats().tuples_shipped
            registry.reset_stats()
            federation.run(POINT_JOIN)
            assert registry.total_stats().tuples_shipped < whole

    def test_a_write_to_the_key_sets_source_reaches_cached_entries(self, sources):
        # "only1" is an organization at D1 alone.  The cached SelectIn at
        # D1 was filled from D0's persons; a new person at D0 employed
        # there must invalidate it, or the re-run splices a stale branch.
        cached = QueryOptions(cache="on")
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            federation.run(FILTERED_JOIN, cached)
            assert federation.run(FILTERED_JOIN, cached).cache_hit
            sources.insert("D0", "PERSON", (9, "p1", "only1"))
            federation.invalidate("D0")
            served = federation.run(FILTERED_JOIN, cached)
            fresh = federation.run(FILTERED_JOIN, QueryOptions(optimize=False))
        assert ("p1", "only1", "y") in served.relation.data_rows()
        assert served.relation == fresh.relation


class TestObservability:
    def test_the_row_renders_with_its_producer(self, sources):
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            iom, _ = _optimized(federation, FILTERED)
            select_in = _select_ins(iom)[0]
            producer = select_in.rhr[0]
            assert select_in.describe() == f"SelectIn ORG.NAME ∈ {producer}.EMPLOYER"
            assert "∈" in iom.render()
            label = plan_graph(iom).nodes[select_in.result.index]["label"]
            assert label == f"{select_in.result} {select_in.describe()} @ D0"
            selected, _ = _optimized(federation, 'GORG [IND = "x"]')
        text = _select_ins(selected)[0].describe()
        assert text.startswith("SelectIn ORG.NAME ∈ R(1) ∪ R(2) ∪ R(3).NAME")
        assert text.endswith('nil keys where IND = "x"')

    def test_the_row_span_carries_the_key_set_size(self, sources):
        with PolygenFederation(key_set_schema(), sources.registry) as federation:
            result = federation.run(POINT_JOIN)
        spans = [
            span
            for span in result.trace.spans
            if span.attributes.get("op") == Operation.SELECT_IN.value
        ]
        assert len(spans) == 3
        for span in spans:
            assert span.attributes["keys"] == 1  # PID 1's employer, "c"
            assert "tuples" in span.attributes
