"""The conventional (untagged) global query processor.

Shares the polygen front-end — SQL translation, Syntax Analyzer, two-pass
interpreter, optimizer — but executes plans over plain untagged relations:
no origins, no intermediates.  Its results' data portions match the polygen
processor's exactly (a property the test suite asserts), which makes it the
apples-to-apples baseline for measuring tagging overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.algebra_lang.parser import parse_expression
from repro.catalog.schema import PolygenSchema
from repro.core.expression import Expression
from repro.errors import ExecutionError
from repro.integration.domains import TransformRegistry, default_registry
from repro.integration.identity import IdentityResolver
from repro.lqp.registry import LQPRegistry
from repro.lqp.tagging import convert_columns
from repro.pqp.interpreter import PolygenOperationInterpreter
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.optimizer import QueryOptimizer
from repro.pqp.syntax_analyzer import SyntaxAnalyzer
from repro.relational import algebra as untagged
from repro.relational.relation import Relation
from repro.translate.translator import translate_sql

__all__ = ["GlobalQueryProcessor", "GlobalQueryResult"]


@dataclass
class GlobalQueryResult:
    relation: Relation
    iom: IntermediateOperationMatrix


def _outer_total_join(left: Relation, right: Relation, key: Sequence[str]) -> Relation:
    """Untagged Outer Natural Total Join: full outer join on ``key`` with
    first-non-null coalescing of shared attributes; rows whose shared
    attributes hold conflicting non-null data are dropped (mirroring the
    polygen Coalesce's DROP policy so both pipelines agree on data)."""
    shared = [name for name in left.attributes if name in right.heading]
    right_extra = [name for name in right.attributes if name not in left.heading]
    heading = list(left.attributes) + right_extra
    key = list(key)

    left_positions = left.heading.indices(key)
    right_positions = right.heading.indices(key)
    right_index: Dict[Tuple[Any, ...], list] = {}
    for row in right:
        key_data = tuple(row[i] for i in right_positions)
        if None not in key_data:
            right_index.setdefault(key_data, []).append(row)

    right_of = {name: right.heading.index(name) for name in right.attributes}
    left_of = {name: left.heading.index(name) for name in left.attributes}

    rows = []
    matched_right: set = set()
    for row in left:
        key_data = tuple(row[i] for i in left_positions)
        matches = right_index.get(key_data, []) if None not in key_data else []
        if not matches:
            rows.append(tuple(row[left_of[n]] for n in left.attributes) + (None,) * len(right_extra))
            continue
        for match in matches:
            matched_right.add(match)
            combined = []
            conflict = False
            for name in heading:
                left_value = row[left_of[name]] if name in left_of else None
                right_value = match[right_of[name]] if name in right_of else None
                if left_value is not None and right_value is not None and left_value != right_value:
                    conflict = True
                    break
                combined.append(left_value if left_value is not None else right_value)
            if not conflict:
                rows.append(tuple(combined))
    for row in right:
        if row in matched_right:
            continue
        rows.append(
            tuple(
                row[right_of[name]] if name in right_of else None for name in heading
            )
        )
    return Relation(heading, rows)


class GlobalQueryProcessor:
    """Executes polygen plans over plain relations (the single-source
    illusion)."""

    def __init__(
        self,
        schema: PolygenSchema,
        registry: LQPRegistry,
        resolver: IdentityResolver | None = None,
        transforms: TransformRegistry | None = None,
        optimize: bool = True,
    ):
        self.schema = schema
        self.registry = registry
        self._resolver = resolver or IdentityResolver.identity()
        self._transforms = transforms or default_registry()
        self._analyzer = SyntaxAnalyzer()
        self._interpreter = PolygenOperationInterpreter(schema)
        self._optimizer = QueryOptimizer() if optimize else None

    # -- entry points -----------------------------------------------------------

    def run_sql(self, sql: str) -> GlobalQueryResult:
        return self.run_algebra(translate_sql(sql, self.schema).expression)

    def run_algebra(self, expression: Expression | str) -> GlobalQueryResult:
        tree = parse_expression(expression) if isinstance(expression, str) else expression
        iom = self._interpreter.interpret(self._analyzer.analyze(tree))
        if self._optimizer is not None:
            iom, _ = self._optimizer.optimize(iom)
        return self.run_plan(iom)

    def run_plan(self, iom: IntermediateOperationMatrix) -> GlobalQueryResult:
        results: Dict[int, Relation] = {}
        for row in iom:
            results[row.result.index] = self._execute_row(row, results)
        if not results:
            raise ExecutionError("cannot execute an empty operation matrix")
        return GlobalQueryResult(results[iom.rows[-1].result.index], iom)

    # -- execution ---------------------------------------------------------------

    def _execute_row(self, row: MatrixRow, results: Dict[int, Relation]) -> Relation:
        if row.is_local:
            lqp = self.registry.get(row.el)
            if row.op is Operation.RETRIEVE:
                shipped = lqp.retrieve(row.lhr.relation)
            elif row.op is Operation.SELECT:
                shipped = lqp.select(row.lhr.relation, row.lha, row.theta, row.rha.value)
            else:
                raise ExecutionError(
                    f"operation {row.op.value} cannot execute at LQP {row.el!r}"
                )
            # The polygen pipeline's conversion (domain map, identity
            # resolution, rename) without its tagging step.
            return Relation.from_columns(
                *convert_columns(
                    shipped,
                    row.el,
                    self.schema.scheme(row.scheme),
                    self._resolver,
                    self._transforms,
                    row.lhr.relation,
                )
            )

        def resolve(operand) -> Relation:
            if isinstance(operand, ResultOperand):
                return results[operand.index]
            raise ExecutionError(f"unresolved operand {operand!r} in row {row.result}")

        op = row.op
        if op is Operation.MERGE:
            scheme = self.schema.scheme(row.scheme)
            merged = resolve(row.lhr[0])
            for part in row.lhr[1:]:
                merged = _outer_total_join(merged, resolve(part), scheme.primary_key)
            return merged

        left = resolve(row.lhr)
        if op is Operation.SELECT:
            return untagged.select(left, row.lha, row.theta, row.rha.value)
        if op is Operation.RESTRICT:
            li = left.heading.index(row.lha)
            ri = left.heading.index(row.rha)
            return left.replace_rows(
                r for r in left if row.theta.evaluate(r[li], r[ri])
            )
        if op is Operation.PROJECT:
            return untagged.project(left, row.lha)
        if op is Operation.COALESCE:
            output = row.output or row.lha
            li = left.heading.index(row.lha)
            ri = left.heading.index(row.rha)
            rows = []
            for r in left:
                a, b = r[li], r[ri]
                if a is not None and b is not None and a != b:
                    continue
                value = a if a is not None else b
                rows.append(
                    tuple(
                        value if i == li else cell
                        for i, cell in enumerate(r)
                        if i != ri
                    )
                )
            heading = left.heading.replace(row.lha, output).remove([row.rha])
            return Relation(heading, rows)

        right = resolve(row.rhr)
        if op is Operation.JOIN:
            if row.lha == row.rha and row.rha in left.heading:
                temp = row.rha + "__rhs"
                joined = untagged.join(
                    left, right.rename({row.rha: temp}), row.lha, row.theta, temp
                )
                keep = [name for name in joined.attributes if name != temp]
                return untagged.project(joined, keep)
            return untagged.join(left, right, row.lha, row.theta, row.rha)
        if op is Operation.UNION:
            return untagged.union(left, self._align(right, left))
        if op is Operation.DIFFERENCE:
            return untagged.difference(left, self._align(right, left))
        if op is Operation.PRODUCT:
            return untagged.product(left, right)
        if op is Operation.INTERSECT:
            aligned = self._align(right, left)
            keep = set(aligned.rows)
            return left.replace_rows(r for r in left if r in keep)
        raise ExecutionError(f"unsupported operation {op.value}")

    @staticmethod
    def _align(right: Relation, left: Relation) -> Relation:
        if right.heading == left.heading:
            return right
        if set(right.attributes) == set(left.attributes):
            return untagged.project(right, left.attributes)
        return right
