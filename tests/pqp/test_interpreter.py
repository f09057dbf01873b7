"""Unit tests for the two-pass Polygen Operation Interpreter beyond the
paper's Table 2/3 case (which lives in tests/integration)."""

import pytest

from repro.algebra_lang import parse_expression
from repro.datasets.paper import paper_polygen_schema
from repro.errors import UnknownSchemeError
from repro.pqp.interpreter import PolygenOperationInterpreter
from repro.pqp.matrix import LocalOperand, Operation, ResultOperand
from repro.pqp.syntax_analyzer import SyntaxAnalyzer


@pytest.fixture(scope="module")
def interpreter():
    return PolygenOperationInterpreter(paper_polygen_schema())


def plan(interpreter, text):
    pom = SyntaxAnalyzer().analyze(parse_expression(text))
    return interpreter.interpret(pom)


class TestPassOneRouting:
    def test_single_source_select_goes_local(self, interpreter):
        iom = plan(interpreter, 'PALUMNUS [DEGREE = "MBA"]')
        assert len(iom) == 1
        row = iom.rows[0]
        assert row.el == "AD"
        assert row.lha == "DEG"  # rewritten to the local attribute
        assert isinstance(row.lhr, LocalOperand)

    def test_multi_source_select_merges_contributing_relations_only(self, interpreter):
        # INDUSTRY maps to BUSINESS@AD and CORPORATION@PD — FIRM@CD does not
        # contribute and is not retrieved (Figure 3 iterates over MAi).
        iom = plan(interpreter, 'PORGANIZATION [INDUSTRY = "Banking"]')
        ops = [(row.op, row.el) for row in iom]
        assert ops == [
            (Operation.RETRIEVE, "AD"),
            (Operation.RETRIEVE, "PD"),
            (Operation.MERGE, "PQP"),
            (Operation.SELECT, "PQP"),
        ]
        select = iom.rows[-1]
        assert select.lha == "INDUSTRY"  # polygen attribute at the PQP

    def test_project_on_scheme_materializes_whole_scheme(self, interpreter):
        iom = plan(interpreter, "PORGANIZATION [ONAME, CEO]")
        ops = [row.op for row in iom]
        assert ops == [
            Operation.RETRIEVE,
            Operation.RETRIEVE,
            Operation.RETRIEVE,
            Operation.MERGE,
            Operation.PROJECT,
        ]

    def test_project_on_single_relation_scheme_retrieves_once(self, interpreter):
        iom = plan(interpreter, "PALUMNUS [ANAME]")
        assert [row.op for row in iom] == [Operation.RETRIEVE, Operation.PROJECT]
        assert iom.rows[0].el == "AD"

    def test_restrict_on_scheme_never_goes_local(self, interpreter):
        # The minimal LQP surface cannot compare two attributes; even a
        # single-source scheme is materialized first.
        iom = plan(interpreter, "PFINANCE [PROFIT = YEAR]")
        assert [row.op for row in iom] == [Operation.RETRIEVE, Operation.RESTRICT]
        assert iom.rows[1].el == "PQP"

    def test_unknown_scheme_raises(self, interpreter):
        with pytest.raises(UnknownSchemeError):
            plan(interpreter, 'NOPE [A = "x"]')


class TestPassTwoRouting:
    def test_rhr_single_source_retrieve_then_join(self, interpreter):
        iom = plan(interpreter, '(PALUMNUS [DEGREE = "MBA"]) [AID# = AID#] PCAREER')
        assert [row.op for row in iom] == [
            Operation.SELECT,
            Operation.RETRIEVE,
            Operation.JOIN,
        ]
        join = iom.rows[2]
        assert join.lhr == ResultOperand(1)
        assert join.rhr == ResultOperand(2)
        assert join.el == "PQP"

    def test_rhr_multi_source_retrieves_then_merge(self, interpreter):
        iom = plan(
            interpreter,
            '((PALUMNUS [DEGREE = "MBA"]) [AID# = AID#] PCAREER)'
            " [ONAME = ONAME] PORGANIZATION",
        )
        assert [row.op for row in iom] == [
            Operation.SELECT,
            Operation.RETRIEVE,
            Operation.JOIN,
            Operation.RETRIEVE,
            Operation.RETRIEVE,
            Operation.RETRIEVE,
            Operation.MERGE,
            Operation.JOIN,
        ]

    def test_both_sides_local_section_one_case(self, interpreter):
        # The §I query's join: PORGANIZATION's CEO is single-source (CD) so
        # pass one leaves a pending local row; PALUMNUS's ANAME is
        # single-source (AD).  Figure 4 materializes both and joins at PQP.
        iom = plan(interpreter, "PORGANIZATION [CEO = ANAME] PALUMNUS")
        cells = [row.cells(with_el=True) for row in iom]
        assert cells == [
            ("R(1)", "Retrieve", "FIRM", "nil", "nil", "nil", "nil", "CD"),
            ("R(2)", "Retrieve", "ALUMNUS", "nil", "nil", "nil", "nil", "AD"),
            ("R(3)", "Join", "R(1)", "CEO", "=", "ANAME", "R(2)", "PQP"),
        ]

    def test_pass_one_rewriting_is_undone_for_pqp_join(self, interpreter):
        # PCAREER.ONAME maps to local BNAME; when the pending local join is
        # lifted to the PQP the LHA must be the polygen attribute again
        # (Figure 4's PA() helper).
        iom = plan(interpreter, "PCAREER [ONAME = ANAME] PALUMNUS")
        join = iom.rows[-1]
        assert join.lha == "ONAME"

    def test_pending_local_join_with_result_rhr(self, interpreter):
        # LHR pending at CD, RHR already a polygen relation: the join lifts
        # to the PQP with a Retrieve for the left side.
        iom = plan(
            interpreter, 'PORGANIZATION [CEO = ANAME] (PALUMNUS [DEGREE = "MBA"])'
        )
        assert [row.op for row in iom] == [
            Operation.SELECT,
            Operation.RETRIEVE,
            Operation.JOIN,
        ]
        join = iom.rows[2]
        assert join.el == "PQP"
        assert join.lha == "CEO"
        assert join.lhr == ResultOperand(2)
        assert join.rhr == ResultOperand(1)

    def test_set_operation_materializes_scheme_operands(self, interpreter):
        iom = plan(interpreter, "(PALUMNUS [MAJOR]) UNION (PSTUDENT [MAJOR])")
        assert [row.op for row in iom] == [
            Operation.RETRIEVE,
            Operation.PROJECT,
            Operation.RETRIEVE,
            Operation.PROJECT,
            Operation.UNION,
        ]

    def test_multi_source_rhr_with_pending_lhr(self, interpreter):
        # LHR pending local (PALUMNUS.ANAME @ AD), RHR multi-source
        # (PORGANIZATION.INDUSTRY @ AD+PD): Figure 4's last branch —
        # retrieves + merge first, then the LHR retrieve, then the join.
        iom = plan(interpreter, "PALUMNUS [ANAME = INDUSTRY] PORGANIZATION")
        assert [row.op for row in iom] == [
            Operation.RETRIEVE,  # BUSINESS @ AD
            Operation.RETRIEVE,  # CORPORATION @ PD
            Operation.MERGE,
            Operation.RETRIEVE,  # ALUMNUS @ AD (the pending LHR)
            Operation.JOIN,
        ]
        join = iom.rows[-1]
        assert join.lhr == ResultOperand(4)
        assert join.rhr == ResultOperand(3)
        assert join.lha == "ANAME"
