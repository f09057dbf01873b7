"""Unit tests for operation matrices and their rows."""

import pytest

from repro.core.predicate import Literal, Theta
from repro.pqp.matrix import (
    PQP_LOCATION,
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    PolygenOperationMatrix,
    ResultOperand,
    SchemeOperand,
)


def row(index, op=Operation.SELECT, **kwargs):
    defaults = dict(lhr=SchemeOperand("P"), lha="A", theta=Theta.EQ, rha=Literal("x"))
    defaults.update(kwargs)
    return MatrixRow(result=ResultOperand(index), op=op, **defaults)


class TestOperands:
    def test_rendering(self):
        assert str(SchemeOperand("PALUMNUS")) == "PALUMNUS"
        assert str(LocalOperand("ALUMNUS")) == "ALUMNUS"
        assert str(ResultOperand(3)) == "R(3)"


class TestMatrixRow:
    def test_is_local(self):
        assert row(1, el="AD").is_local
        assert not row(1, el=PQP_LOCATION).is_local
        assert not row(1).is_local

    def test_referenced_results_single(self):
        r = row(1, lhr=ResultOperand(5), rhr=ResultOperand(2))
        assert [ref.index for ref in r.referenced_results()] == [5, 2]

    def test_referenced_results_merge_tuple(self):
        r = row(
            4,
            op=Operation.MERGE,
            lhr=(ResultOperand(1), ResultOperand(2), ResultOperand(3)),
            lha=None,
            theta=None,
            rha=None,
        )
        assert [ref.index for ref in r.referenced_results()] == [1, 2, 3]

    def test_remap_results(self):
        r = row(4, lhr=ResultOperand(2), rhr=ResultOperand(3))
        remapped = r.with_remapped_results({2: 1, 3: 2, 4: 3})
        assert remapped.result.index == 3
        assert remapped.lhr.index == 1
        assert remapped.rhr.index == 2

    def test_remap_leaves_non_results(self):
        r = row(1, lhr=LocalOperand("ALUMNUS"))
        assert r.with_remapped_results({1: 7}).lhr == LocalOperand("ALUMNUS")

    def test_cells_rendering(self):
        r = row(1, el="AD")
        assert r.cells(with_el=True) == (
            "R(1)", "Select", "P", "A", "=", '"x"', "nil", "AD",
        )

    def test_project_lha_renders_as_list(self):
        r = row(
            1, op=Operation.PROJECT, lha=("ONAME", "CEO"), theta=None, rha=None
        )
        assert r.cells(with_el=False)[3] == "ONAME, CEO"


class TestMatrices:
    def test_lookup(self):
        first = row(1)
        pom = PolygenOperationMatrix([first])
        assert pom.row_for(ResultOperand(1)) is first
        assert len(pom) == 1
        assert pom[0] is first

    def test_built_matrix_is_immutable(self):
        iom = IntermediateOperationMatrix([row(1, el=PQP_LOCATION)])
        assert not hasattr(iom, "append")
        with pytest.raises(AttributeError):
            iom._rows = ()
        with pytest.raises(TypeError):
            iom.rows[0] = row(2)
        assert isinstance(iom.rows, tuple) and len(iom) == 1

    def test_render_contains_headers_and_rows(self):
        pom = PolygenOperationMatrix([row(1)])
        text = pom.render()
        assert "PR" in text and "LHR" in text
        assert "R(1)" in text

    def test_iom_partitions_rows(self):
        iom = IntermediateOperationMatrix(
            [
                row(1, op=Operation.RETRIEVE, lhr=LocalOperand("T"),
                    lha=None, theta=None, rha=None, el="AD"),
                row(2, lhr=ResultOperand(1), el=PQP_LOCATION),
            ]
        )
        assert len(iom.local_rows()) == 1
        assert len(iom.pqp_rows()) == 1
        assert iom.databases_touched() == ("AD",)
