"""Unit tests for the Query Optimizer's plan rewrites."""

import pytest

from repro.algebra_lang import parse_expression
from repro.core.cell import ConflictPolicy
from repro.core.predicate import Literal, Theta
from repro.datasets.paper import (
    build_paper_federation,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.pqp.interpreter import PolygenOperationInterpreter
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.optimizer import QueryOptimizer
from repro.pqp.syntax_analyzer import SyntaxAnalyzer

#: A query referencing PORGANIZATION twice: the naive plan retrieves
#: BUSINESS/CORPORATION/FIRM twice and merges twice.
SELF_UNION = (
    '((PORGANIZATION [INDUSTRY = "Banking"]) [ONAME, INDUSTRY]) UNION '
    '((PORGANIZATION [INDUSTRY = "Hotel"]) [ONAME, INDUSTRY])'
)


def plan(text):
    pom = SyntaxAnalyzer().analyze(parse_expression(text))
    return PolygenOperationInterpreter(paper_polygen_schema()).interpret(pom)


class TestDeduplication:
    def test_duplicate_retrieves_collapse(self):
        iom = plan(SELF_UNION)
        optimized, report = QueryOptimizer().optimize(iom)
        retrieves = [row for row in optimized if row.op is Operation.RETRIEVE]
        naive_retrieves = [row for row in iom if row.op is Operation.RETRIEVE]
        assert len(naive_retrieves) == 4  # BUSINESS, CORPORATION twice each
        assert len(retrieves) == 2
        assert report.retrieves_deduplicated == 2

    def test_duplicate_merges_collapse(self):
        iom = plan(SELF_UNION)
        optimized, report = QueryOptimizer().optimize(iom)
        merges = [row for row in optimized if row.op is Operation.MERGE]
        assert len(merges) == 1
        assert report.merges_deduplicated == 1

    def test_rows_pruned_and_renumbered(self):
        iom = plan(SELF_UNION)
        optimized, report = QueryOptimizer().optimize(iom)
        assert report.rows_saved == report.retrieves_deduplicated + report.merges_deduplicated
        # Renumbering leaves a dense 1..n sequence.
        assert [row.result.index for row in optimized] == list(
            range(1, len(optimized) + 1)
        )

    def test_paper_plan_is_already_optimal(self):
        from tests.integration.conftest import PAPER_ALGEBRA

        iom = plan(PAPER_ALGEBRA)
        optimized, report = QueryOptimizer().optimize(iom)
        assert report.rows_saved == 0
        assert [row.cells(True) for row in optimized] == [row.cells(True) for row in iom]

    def test_optimizer_is_idempotent(self):
        iom = plan(SELF_UNION)
        once, _ = QueryOptimizer().optimize(iom)
        twice, report = QueryOptimizer().optimize(once)
        assert [row.cells(True) for row in twice] == [row.cells(True) for row in once]
        assert report.rows_saved == 0


class TestSemanticsPreserved:
    def test_optimized_plan_gives_same_relation_and_tags(self):
        pqp_naive = build_paper_federation()
        pqp_naive._optimizer = None  # disable optimization
        pqp_opt = build_paper_federation()
        naive = pqp_naive.run_algebra(SELF_UNION)
        optimized = pqp_opt.run_algebra(SELF_UNION)
        assert naive.relation == optimized.relation

    def test_optimized_plan_ships_fewer_tuples(self):
        pqp_naive = build_paper_federation()
        pqp_naive._optimizer = None
        pqp_opt = build_paper_federation()
        pqp_naive.run_algebra(SELF_UNION)
        pqp_opt.run_algebra(SELF_UNION)
        naive_stats = pqp_naive.registry.total_stats()
        optimized_stats = pqp_opt.registry.total_stats()
        assert optimized_stats.queries < naive_stats.queries
        assert optimized_stats.tuples_shipped < naive_stats.tuples_shipped


def _naive_select_plan(relation, database, scheme, attribute, theta, value, tail=()):
    """Retrieve-then-PQP-Select — the shape a planner without local routing
    emits, and the input shape of selection pushdown."""
    rows = [
        MatrixRow(
            result=ResultOperand(1),
            op=Operation.RETRIEVE,
            lhr=LocalOperand(relation),
            el=database,
            scheme=scheme,
        ),
        MatrixRow(
            result=ResultOperand(2),
            op=Operation.SELECT,
            lhr=ResultOperand(1),
            lha=attribute,
            theta=theta,
            rha=Literal(value),
            el="PQP",
        ),
    ]
    rows.extend(tail)
    return IntermediateOperationMatrix(rows)


def _schema_optimizer(**kwargs) -> QueryOptimizer:
    return QueryOptimizer(
        schema=paper_polygen_schema(),
        resolver=paper_identity_resolver(),
        **kwargs,
    )


class TestSelectionPushdown:
    def test_select_over_retrieve_becomes_local_select(self):
        iom = _naive_select_plan("ALUMNUS", "AD", "PALUMNUS", "DEGREE", Theta.EQ, "MBA")
        optimized, report = _schema_optimizer().optimize(iom)
        assert report.selects_pushed_down == 1
        assert report.rows_pruned == 1  # the orphaned Retrieve
        assert len(optimized) == 1
        pushed = optimized[0]
        assert pushed.op is Operation.SELECT
        assert pushed.el == "AD"
        assert pushed.lhr == LocalOperand("ALUMNUS")
        assert pushed.lha == "DEG"  # rewritten to the local attribute
        assert pushed.rha == Literal("MBA")

    def test_shared_retrieve_blocks_pushdown(self):
        tail = (
            MatrixRow(
                result=ResultOperand(3),
                op=Operation.PROJECT,
                lhr=ResultOperand(1),
                lha=("ANAME",),
                el="PQP",
            ),
            MatrixRow(
                result=ResultOperand(4),
                op=Operation.UNION,
                lhr=ResultOperand(2),
                rhr=ResultOperand(3),
                el="PQP",
            ),
        )
        # Nonsense query, but structurally: R(1) has a second consumer, so
        # the Retrieve must still run — pushing the selection would ADD a
        # local round-trip and ship strictly more tuples.
        iom = _naive_select_plan("ALUMNUS", "AD", "PALUMNUS", "DEGREE", Theta.EQ, "MBA", tail)
        optimized, report = _schema_optimizer().optimize(iom)
        assert report.selects_pushed_down == 0
        assert any(row.op is Operation.RETRIEVE for row in optimized)

    def test_executes_identically_and_ships_fewer_tuples(self):
        iom = _naive_select_plan("ALUMNUS", "AD", "PALUMNUS", "DEGREE", Theta.EQ, "MBA")
        naive_pqp = build_paper_federation()
        naive = naive_pqp.run_plan(iom)
        pushed_pqp = build_paper_federation()
        optimized, _ = pushed_pqp.optimize(iom)
        pushed = pushed_pqp.run_plan(optimized)
        assert pushed.relation == naive.relation
        assert (
            pushed_pqp.registry.total_stats().tuples_shipped
            < naive_pqp.registry.total_stats().tuples_shipped
        )

    def test_ordering_comparison_pushes_with_identity_resolver(self):
        iom = _naive_select_plan("STUDENT", "PD", "PSTUDENT", "GPA", Theta.GT, 3.4)
        optimized, report = QueryOptimizer(schema=paper_polygen_schema()).optimize(iom)
        assert report.selects_pushed_down == 1
        assert optimized[0].el == "PD"

    def test_blocked_by_aliased_literal(self):
        # "CitiCorp" resolves to "Citicorp": raw-value equality differs
        # from resolved equality, so the selection must stay at the PQP.
        iom = _naive_select_plan("CAREER", "AD", "PCAREER", "ONAME", Theta.EQ, "CitiCorp")
        _, report = _schema_optimizer().optimize(iom)
        assert report.selects_pushed_down == 0
        canonical = _naive_select_plan("CAREER", "AD", "PCAREER", "ONAME", Theta.EQ, "Citicorp")
        _, report = _schema_optimizer().optimize(canonical)
        assert report.selects_pushed_down == 0  # variants map onto it

    def test_blocked_by_ordering_under_nonidentity_resolver(self):
        iom = _naive_select_plan("STUDENT", "PD", "PSTUDENT", "GPA", Theta.GT, 3.4)
        _, report = _schema_optimizer().optimize(iom)
        assert report.selects_pushed_down == 0

    def test_blocked_by_domain_transform(self):
        # FIRM.HQ carries the city_state_to_state transform: raw values are
        # "NY, NY", polygen values are "NY" — not comparable locally.
        iom = _naive_select_plan("FIRM", "CD", "PORGANIZATION", "HEADQUARTERS", Theta.EQ, "NY")
        _, report = _schema_optimizer().optimize(iom)
        assert report.selects_pushed_down == 0

    def test_unaliased_equality_pushes_under_paper_resolver(self):
        iom = _naive_select_plan("CAREER", "AD", "PCAREER", "ONAME", Theta.EQ, "MIT")
        _, report = _schema_optimizer().optimize(iom)
        assert report.selects_pushed_down == 1

    def test_no_schema_no_pushdown(self):
        iom = _naive_select_plan("ALUMNUS", "AD", "PALUMNUS", "DEGREE", Theta.EQ, "MBA")
        _, report = QueryOptimizer().optimize(iom)
        assert report.selects_pushed_down == 0

    def test_pushdown_is_idempotent(self):
        iom = _naive_select_plan("ALUMNUS", "AD", "PALUMNUS", "DEGREE", Theta.EQ, "MBA")
        once, _ = _schema_optimizer().optimize(iom)
        twice, report = _schema_optimizer().optimize(once)
        assert report.selects_pushed_down == 0
        assert [row.cells(True) for row in twice] == [row.cells(True) for row in once]


class TestThroughMergeReplication:
    #: A primary-key selection directly over PORGANIZATION's 3-branch Merge.
    KEY_SELECT = 'PORGANIZATION [ONAME = "IBM"]'

    def test_key_select_replicates_and_composes_with_pushdown(self):
        iom = plan(self.KEY_SELECT)
        optimized, report = _schema_optimizer().optimize(iom)
        assert report.selects_pushed_through_merge == 1
        # The replicated branch selections then push into each autonomous
        # database: the plan ends as 3 local Selects feeding the Merge.
        assert report.selects_pushed_down == 3
        selects = [row for row in optimized if row.op is Operation.SELECT]
        assert len(selects) == 3 and all(row.is_local for row in selects)
        assert not any(row.op is Operation.RETRIEVE for row in optimized)
        merge = next(row for row in optimized if row.op is Operation.MERGE)
        assert merge.lhr == tuple(row.result for row in selects)

    def test_non_key_attribute_blocked(self):
        iom = plan('PORGANIZATION [INDUSTRY = "Banking"]')
        _, report = _schema_optimizer().optimize(iom)
        assert report.selects_pushed_through_merge == 0

    def test_shared_merge_blocked(self):
        # After merge dedup the single Merge has two consumers; replicating
        # for one of them would recompute the Merge for the other.
        shared = (
            f"({self.KEY_SELECT}) UNION "
            '(PORGANIZATION [ONAME = "DEC"])'
        )
        iom = plan(shared)
        _, report = _schema_optimizer().optimize(iom)
        assert report.merges_deduplicated == 1
        assert report.selects_pushed_through_merge == 0

    @pytest.mark.parametrize(
        "optimizer",
        [
            QueryOptimizer(),
            # A conflict in a key group the select drops must still raise.
            _schema_optimizer(policy=ConflictPolicy.ERROR),
        ],
        ids=["no-schema", "error-policy"],
    )
    def test_guards_block_replication(self, optimizer):
        _, report = optimizer.optimize(plan(self.KEY_SELECT))
        assert report.selects_pushed_through_merge == 0

    def test_result_and_tags_identical_and_ships_fewer_tuples(self):
        naive_pqp = build_paper_federation()
        naive_pqp._optimizer = None
        opt_pqp = build_paper_federation()
        naive = naive_pqp.run_algebra(self.KEY_SELECT)
        optimized = opt_pqp.run_algebra(self.KEY_SELECT)
        assert optimized.relation == naive.relation
        assert optimized.lineage == naive.lineage
        assert (
            opt_pqp.registry.total_stats().tuples_shipped
            < naive_pqp.registry.total_stats().tuples_shipped
        )

    def test_replication_is_idempotent(self):
        iom = plan(self.KEY_SELECT)
        once, _ = _schema_optimizer().optimize(iom)
        twice, report = _schema_optimizer().optimize(once)
        assert report.selects_pushed_through_merge == 0
        assert [row.cells(True) for row in twice] == [row.cells(True) for row in once]


class TestProjectionPruning:
    def _optimizer(self):
        return _schema_optimizer(prune_projections=True)

    def test_dead_attributes_pruned_on_paper_plan(self):
        from tests.integration.conftest import PAPER_ALGEBRA

        iom = plan(PAPER_ALGEBRA)
        optimized, report = self._optimizer().optimize(iom)
        # R(1) Select ALUMNUS: DEGREE (already applied locally) and MAJOR
        # are never consumed; R(2) Retrieve CAREER: POSITION is dead.
        assert report.attributes_pruned == 3
        assert optimized[0].project == ("AID#", "ANAME")
        assert optimized[1].project == ("AID#", "ONAME")

    def test_merge_inputs_never_pruned(self):
        from tests.integration.conftest import PAPER_ALGEBRA

        iom = plan(PAPER_ALGEBRA)
        optimized, _ = self._optimizer().optimize(iom)
        for row in optimized:
            if row.op is Operation.RETRIEVE and row.lhr.relation in (
                "BUSINESS",
                "CORPORATION",
                "FIRM",
            ):
                assert row.project is None

    def test_final_result_identical_with_narrower_intermediates(self):
        from tests.integration.conftest import PAPER_ALGEBRA

        baseline = build_paper_federation()
        pruned = build_paper_federation()
        pruned._optimizer = self._optimizer()
        base_run = baseline.run_algebra(PAPER_ALGEBRA)
        pruned_run = pruned.run_algebra(PAPER_ALGEBRA)
        assert pruned_run.relation == base_run.relation
        assert pruned_run.lineage == base_run.lineage
        r1 = pruned_run.trace.result(1)
        assert r1.attributes == ("AID#", "ANAME")
        assert base_run.trace.result(1).attributes == (
            "AID#",
            "ANAME",
            "DEGREE",
            "MAJOR",
        )

    def test_pruning_is_idempotent(self):
        from tests.integration.conftest import PAPER_ALGEBRA

        iom = plan(PAPER_ALGEBRA)
        once, _ = self._optimizer().optimize(iom)
        twice, report = self._optimizer().optimize(once)
        assert report.attributes_pruned == 0
        assert [
            (row.cells(True), row.project) for row in twice
        ] == [(row.cells(True), row.project) for row in once]

    def test_disabled_by_default(self):
        from tests.integration.conftest import PAPER_ALGEBRA

        iom = plan(PAPER_ALGEBRA)
        _, report = _schema_optimizer().optimize(iom)
        assert report.attributes_pruned == 0
