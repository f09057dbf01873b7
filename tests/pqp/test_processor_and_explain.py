"""Unit tests for the PQP facade and the provenance explainer."""

import pytest

from repro.datasets.paper import (
    build_paper_federation,
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.errors import AlgebraParseError, SqlParseError
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.explain import explain_cell, explain_result, explain_tuple, source_summary
from repro.pqp.optimizer import OptimizationReport
from repro.pqp.processor import PolygenQueryProcessor
from repro.service.options import QueryOptions

from tests.integration.conftest import PAPER_ALGEBRA, PAPER_SQL


@pytest.fixture(scope="module")
def pqp():
    return build_paper_federation()


@pytest.fixture(scope="module")
def result(pqp):
    return pqp.run_sql(PAPER_SQL)


class TestFacade:
    def test_run_sql_populates_artifacts(self, result):
        assert result.sql is not None
        assert result.expression is not None
        assert result.pom is not None and len(result.pom) == 5
        assert result.iom is not None and len(result.iom) == 10
        assert result.translation.dropped_tables == ("PALUMNUS",)
        assert result.optimization is not None

    def test_render_uses_paper_notation(self, result):
        text = result.render()
        assert "Genentech, {AD, CD}, {AD, CD}" in text

    def test_analyze_accepts_text_and_trees(self, pqp):
        tree, pom = pqp.analyze('PALUMNUS [DEGREE = "MBA"]')
        tree2, pom2 = pqp.analyze(tree)
        assert [r.cells(False) for r in pom] == [r.cells(False) for r in pom2]

    def test_optimize_disabled(self):
        registry = LQPRegistry()
        for database in paper_databases().values():
            registry.register(RelationalLQP(database))
        pqp = PolygenQueryProcessor(
            paper_polygen_schema(),
            registry,
            resolver=paper_identity_resolver(),
            optimize=False,
        )
        result = pqp.run_sql(PAPER_SQL)
        assert result.optimization is None
        assert result.relation.cardinality == 3

    def test_simple_single_scheme_query(self, pqp):
        result = pqp.run_sql('SELECT ANAME FROM PALUMNUS WHERE MAJOR = "IS"')
        names = {row.data[0] for row in result.relation}
        assert names == {"John McCauley", "Stu Madnick", "Dave Horton"}

    def test_profit_domain_mapping_applies(self, pqp):
        result = pqp.run_sql("SELECT ONAME, PROFIT FROM PFINANCE WHERE YEAR = 1989")
        by_name = {row.data[0]: row.data[1] for row in result.relation}
        assert by_name["Citicorp"] == pytest.approx(1.7e9)
        assert by_name["AT&T"] == pytest.approx(-1.7e9)


class TestFacadeOptions:
    def _processor(self, **kwargs):
        registry = LQPRegistry()
        for database in paper_databases().values():
            registry.register(RelationalLQP(database))
        return PolygenQueryProcessor(
            schema=paper_polygen_schema(),
            registry=registry,
            resolver=paper_identity_resolver(),
            **kwargs,
        )

    def test_options_validate_cost_mode(self):
        # optimize is the rewrite pipeline on or off; there is no other mode.
        for mode in ("cost", "fastest"):
            with pytest.raises(ValueError, match="optimize"):
                QueryOptions(optimize=mode)

    def test_processor_rejects_cost_mode(self):
        with pytest.raises(ValueError, match="optimize"):
            self._processor(optimize="cost")

    def test_session_and_submit_reject_cost_mode(self):
        pqp = self._processor()
        try:
            with pytest.raises(ValueError, match="optimize"):
                pqp.federation.session(optimize="cost")
            with pqp.federation.session() as session:
                with pytest.raises(ValueError, match="optimize"):
                    session.submit(PAPER_SQL, optimize="cost")
        finally:
            pqp.close()

    def test_truthy_optimize_still_enables_rewrites(self):
        # The historical facade accepted any truthy optimize; 1 == True
        # passes QueryOptions validation and must keep optimizing.
        pqp = self._processor(optimize=1)
        run = pqp.run_sql(PAPER_SQL)
        assert isinstance(run.optimization, OptimizationReport)

    def test_unoptimized_run_reports_no_optimization(self):
        optimized = self._processor().run_sql(PAPER_SQL)
        plain = self._processor(optimize=False).run_sql(PAPER_SQL)
        assert plain.optimization is None
        assert plain.relation == optimized.relation
        assert plain.lineage == optimized.lineage


class TestFacadeFrontEnd:
    """run_sql and run_algebra prepare through the federation's memoized
    front end and are admitted and counted like a session's queries."""

    @staticmethod
    def _root(result):
        [root] = [span for span in result.trace.spans if span.parent_id is None]
        return root

    def test_repeated_sql_is_planned_once(self):
        pqp = build_paper_federation()
        cold = pqp.run_sql(PAPER_SQL)
        warm = pqp.run_sql(PAPER_SQL)
        stages = {span.name for span in cold.trace.spans}
        assert {"translate", "analyze", "plan", "optimize"} <= stages
        assert self._root(warm).attributes["plan"] == "memo"
        assert 'polygen_plan_memo_total{outcome="hit"} 1' in pqp.federation.metrics_text()
        assert warm.relation == cold.relation and warm.lineage == cold.lineage
        assert warm.sql == PAPER_SQL and warm.translation is cold.translation

    def test_run_sql_keeps_its_kind(self):
        pqp = build_paper_federation()
        with pytest.raises(SqlParseError):
            pqp.run_sql('PALUMNUS [DEGREE = "MBA"]')
        stats = pqp.federation.stats()
        assert (stats.queries_submitted, stats.queries_failed) == (1, 1)

    def test_run_algebra_keeps_its_kind(self):
        pqp = build_paper_federation()
        with pytest.raises(AlgebraParseError):
            pqp.run_algebra("SELECT CEO FROM PORGANIZATION")
        assert pqp.federation.stats().queries_failed == 1

    def test_no_private_optimizer_slot(self):
        pqp = build_paper_federation(optimize=False)
        assert not hasattr(pqp, "_optimizer")
        iom = pqp.plan(pqp.analyze(PAPER_ALGEBRA)[1])
        assert pqp.optimize(iom) == (iom, None)


class TestExplain:
    def test_explain_cell_reverse_maps_to_local_columns(self, result):
        schema = paper_polygen_schema()
        genentech = [t for t in result.relation if t.data[0] == "Genentech"][0]
        text = explain_cell(schema, ["PORGANIZATION"], "ONAME", genentech[0])
        assert "(AD, BUSINESS, BNAME)" in text
        assert "(CD, FIRM, FNAME)" in text
        assert "(PD, CORPORATION, CNAME)" not in text  # PD is not an origin

    def test_explain_tuple_covers_every_attribute(self, result):
        schema = paper_polygen_schema()
        sentences = explain_tuple(result, schema, 0)
        assert len(sentences) == 2
        assert sentences[0].startswith("ONAME")
        assert sentences[1].startswith("CEO")

    def test_explain_result_narrative(self, result):
        schema = paper_polygen_schema()
        text = explain_result(result, schema)
        assert "Genentech" in text
        assert "Originating databases: AD, CD, PD" in text
        assert "Intermediate databases: AD, CD, PD" in text

    def test_source_summary_mediators_only(self, pqp):
        # PD mediates the ONAME join for Genentech-like rows but contributes
        # no datum when we project CEO of a CD-only attribute... use a query
        # where AD mediates only.
        result = pqp.run_sql(
            'SELECT CEO FROM PORGANIZATION WHERE ONAME IN '
            '(SELECT ONAME FROM PCAREER WHERE POSITION = "Professor")'
        )
        summary = source_summary(result.relation)
        assert "Originating databases:" in summary
        # MIT has no CEO in FIRM → empty or nil-only result acceptable; the
        # summary must still render.
        assert "Intermediate databases:" in summary

    def test_nil_cell_explanation(self, pqp):
        schema = paper_polygen_schema()
        result = pqp.run_sql("SELECT ONAME, CEO FROM PORGANIZATION")
        mit = [t for t in result.relation if t.data[0] == "MIT"][0]
        text = explain_cell(schema, ["PORGANIZATION"], "CEO", mit[1])
        assert "nil" in text
