"""The Syntax Analyzer: polygen algebraic expression → POM (paper, §III).

"The Syntax Analyzer parses a polygen algebraic expression and generates a
Polygen Operation Matrix" (Table 1).  Rows are emitted in post-order, so an
operand row always precedes the row that consumes it, and operand slots
refer to polygen schemes by name or to earlier rows as ``R(#)``.
"""

from __future__ import annotations

from typing import List

from repro.core.expression import (
    Coalesce,
    Difference,
    Expression,
    Intersect,
    Join,
    Product,
    Project,
    Restrict,
    SchemeRef,
    Select,
    Union,
)
from repro.core.predicate import Literal, Theta
from repro.errors import TranslationError
from repro.pqp.matrix import (
    MatrixRow,
    Operand,
    Operation,
    PolygenOperationMatrix,
    ResultOperand,
    SchemeOperand,
)

__all__ = ["SyntaxAnalyzer"]


class SyntaxAnalyzer:
    """Linearizes expression trees into Polygen Operation Matrices."""

    def analyze(self, expression: Expression) -> PolygenOperationMatrix:
        """Produce the POM for ``expression``.

        >>> from repro.algebra_lang import parse_expression
        >>> pom = SyntaxAnalyzer().analyze(parse_expression('PALUMNUS [DEGREE = "MBA"]'))
        >>> pom.rows[0].cells(with_el=False)
        ('R(1)', 'Select', 'PALUMNUS', 'DEGREE', '=', '"MBA"', 'nil')
        """
        rows: List[MatrixRow] = []
        self._visit(expression, rows)
        if not rows:
            raise TranslationError(
                "a bare scheme reference is not an executable polygen query; "
                "project or restrict it"
            )
        return PolygenOperationMatrix(rows)

    # -- traversal -------------------------------------------------------------

    def _visit(self, node: Expression, rows: List[MatrixRow]) -> Operand:
        if isinstance(node, SchemeRef):
            return SchemeOperand(node.name)

        emit = self._emitter(rows)
        if isinstance(node, Select):
            child = self._visit(node.child, rows)
            return emit(
                Operation.SELECT,
                lhr=child,
                lha=node.attribute,
                theta=node.theta,
                rha=Literal(node.value),
            )
        if isinstance(node, Restrict):
            child = self._visit(node.child, rows)
            return emit(
                Operation.RESTRICT,
                lhr=child,
                lha=node.left_attribute,
                theta=node.theta,
                rha=node.right_attribute,
            )
        if isinstance(node, Join):
            left = self._visit(node.left, rows)
            right = self._visit(node.right, rows)
            return emit(
                Operation.JOIN,
                lhr=left,
                lha=node.left_attribute,
                theta=node.theta,
                rha=node.right_attribute,
                rhr=right,
            )
        if isinstance(node, Project):
            child = self._visit(node.child, rows)
            return emit(Operation.PROJECT, lhr=child, lha=tuple(node.attributes))
        if isinstance(node, Coalesce):
            child = self._visit(node.child, rows)
            return emit(
                Operation.COALESCE,
                lhr=child,
                lha=node.left_attribute,
                rha=node.right_attribute,
                output=node.output,
            )
        binary = {
            Union: Operation.UNION,
            Difference: Operation.DIFFERENCE,
            Product: Operation.PRODUCT,
            Intersect: Operation.INTERSECT,
        }.get(type(node))
        if binary is not None:
            left = self._visit(node.left, rows)
            right = self._visit(node.right, rows)
            return emit(binary, lhr=left, rhr=right)
        raise TranslationError(f"cannot analyze expression node {node!r}")

    @staticmethod
    def _emitter(rows: List[MatrixRow]):
        def emit(
            op: Operation,
            lhr: Operand,
            lha=None,
            theta: Theta | None = None,
            rha=None,
            rhr: Operand = None,
            output: str | None = None,
        ) -> ResultOperand:
            result = ResultOperand(len(rows) + 1)
            rows.append(
                MatrixRow(
                    result=result,
                    op=op,
                    lhr=lhr,
                    lha=lha,
                    theta=theta,
                    rha=rha,
                    rhr=rhr,
                    output=output,
                )
            )
            return result

        return emit
