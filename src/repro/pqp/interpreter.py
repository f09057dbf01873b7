"""The two-pass Polygen Operation Interpreter (paper, §III, Figures 3–4).

Pass one resolves **left-hand** operands against the polygen schema:

- an LHR naming a polygen scheme whose probed attribute maps to a *single*
  local attribute becomes a local operation — the LHA is rewritten to the
  local attribute name and the EL becomes that database (Table 2, row 1:
  ``Select ALUMNUS DEG = "MBA"`` at AD);
- an LHR whose probed attribute maps to *several* local attributes expands
  into Retrieve rows for each contributing local relation plus a Merge,
  followed by the requested operation at the PQP;
- an LHR that is already ``R(#)`` is renumbered and executes at the PQP.

Pass two does the same for **right-hand** operands, with one extra case
(Figure 4): when *both* sides still need LQP work (the §I query's join of
PORGANIZATION with PALUMNUS), the pending left-hand local operation is
materialized first and the pass-one attribute rewriting is undone through
the paper's ``PA(LS, LA)`` reverse mapping.

Two normalizations relative to the figures, both recorded in README.md
("Design notes" under Architecture):

- Figure 4 emits the pending local operation with all-nil operands, which
  degenerates to an unconditioned Restrict — i.e. a Retrieve; we emit
  ``Retrieve`` explicitly.
- Only Select (single comparison against a constant) is routed to LQPs for
  local *execution*; operations the minimal LQP surface cannot run
  (Restrict between two attributes, Project, the set operators) materialize
  their scheme operands via Retrieve/Merge and run at the PQP.  The paper's
  example exercises exactly the Select/Join/Retrieve/Merge surface.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.catalog.schema import PolygenSchema
from repro.catalog.scheme import PolygenScheme
from repro.errors import TranslationError
from repro.pqp.matrix import (
    PQP_LOCATION,
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operand,
    Operation,
    PolygenOperationMatrix,
    ResultOperand,
    SchemeOperand,
)

__all__ = ["PolygenOperationInterpreter"]

#: Operations whose scheme-typed LHR may be handled by attribute mapping
#: (Figure 3's ``POM(k,LHA) = PAi`` case).
_ATTRIBUTE_DRIVEN = (Operation.SELECT, Operation.JOIN, Operation.RESTRICT)


class _Emitter:
    """Collects IOM rows with automatic R(#) numbering; :meth:`matrix`
    builds the (immutable) matrix once every row is in."""

    def __init__(self) -> None:
        self.rows: List[MatrixRow] = []

    def emit(self, **fields) -> ResultOperand:
        result = ResultOperand(len(self.rows) + 1)
        self.rows.append(MatrixRow(result=result, **fields))
        return result

    def matrix(self) -> IntermediateOperationMatrix:
        return IntermediateOperationMatrix(self.rows)

    def retrieve(self, relation: str, database: str, scheme: str) -> ResultOperand:
        return self.emit(
            op=Operation.RETRIEVE,
            lhr=LocalOperand(relation),
            el=database,
            scheme=scheme,
        )

    def materialize_scheme(
        self, scheme: PolygenScheme, locations: Sequence[Tuple[str, str]]
    ) -> ResultOperand:
        """Retrieve each contributing local relation; Merge when several."""
        retrieved = [
            self.retrieve(relation, database, scheme.name)
            for database, relation in locations
        ]
        if len(retrieved) == 1:
            return retrieved[0]
        return self.emit(
            op=Operation.MERGE,
            lhr=tuple(retrieved),
            el=PQP_LOCATION,
            scheme=scheme.name,
        )


class PolygenOperationInterpreter:
    """POM + polygen schema → Intermediate Operation Matrix.

    The multi-mapping branch follows Figure 3, which iterates over the
    probed attribute's ``MAi`` only: a Select on PORGANIZATION.INDUSTRY
    merges just BUSINESS and CORPORATION, and the resulting polygen
    relation has no CEO column.
    """

    def __init__(self, schema: PolygenSchema):
        self._schema = schema

    def interpret(self, pom: PolygenOperationMatrix) -> IntermediateOperationMatrix:
        """Run both passes (paper: "a two-pass Polygen Operation
        Interpreter, pass one dealing with the left-hand side and pass two
        the right-hand side of polygen operations")."""
        return self.pass_two(self.pass_one(pom))

    # ------------------------------------------------------------------
    # Pass one (Figure 3)
    # ------------------------------------------------------------------

    def pass_one(self, pom: PolygenOperationMatrix) -> IntermediateOperationMatrix:
        emitter = _Emitter()
        mapping: Dict[int, int] = {}  # POM R(#) → H R(#)

        for row in pom:
            if isinstance(row.lhr, SchemeOperand):
                produced = self._pass_one_scheme_lhr(row, emitter, mapping)
            elif isinstance(row.lhr, ResultOperand):
                produced = emitter.emit(
                    op=row.op,
                    lhr=ResultOperand(mapping[row.lhr.index]),
                    lha=row.lha,
                    theta=row.theta,
                    rha=row.rha,
                    rhr=self._remap(row.rhr, mapping),
                    el=PQP_LOCATION,
                    output=row.output,
                )
            else:  # pragma: no cover - the analyzer never emits other shapes
                raise TranslationError(f"unexpected LHR operand {row.lhr!r}")
            mapping[row.result.index] = produced.index
        return emitter.matrix()

    def _pass_one_scheme_lhr(
        self, row: MatrixRow, emitter: _Emitter, mapping: Dict[int, int]
    ) -> ResultOperand:
        scheme = self._schema.scheme(row.lhr.name)
        rhr = self._remap(row.rhr, mapping)
        lha_is_attribute = (
            row.op in _ATTRIBUTE_DRIVEN
            and isinstance(row.lha, str)
            and row.lha in scheme
        )
        route_locally = (
            lha_is_attribute
            and scheme.is_single_source(row.lha)
            and row.op is not Operation.RESTRICT
        )
        if route_locally:
            # Figure 3, single-mapping case: rewrite to the local attribute
            # and assign the LQP as the execution location.  (Restrict
            # compares two attributes, which the minimal LQP surface cannot
            # execute — it falls through to materialization below.)
            local = scheme.single_mapping(row.lha)
            return emitter.emit(
                op=row.op,
                lhr=LocalOperand(local.relation),
                lha=local.attribute,
                theta=row.theta,
                rha=row.rha,
                rhr=rhr,
                el=local.database,
                scheme=scheme.name,
            )
        if lha_is_attribute:
            locations = scheme.relations_for(row.lha)
        else:
            locations = scheme.local_relations()
        materialized = emitter.materialize_scheme(scheme, locations)
        return emitter.emit(
            op=row.op,
            lhr=materialized,
            lha=row.lha,
            theta=row.theta,
            rha=row.rha,
            rhr=rhr,
            el=PQP_LOCATION,
            output=row.output,
        )

    # ------------------------------------------------------------------
    # Pass two (Figure 4)
    # ------------------------------------------------------------------

    def pass_two(self, half: IntermediateOperationMatrix) -> IntermediateOperationMatrix:
        emitter = _Emitter()
        mapping: Dict[int, int] = {}  # H R(#) → IOM R(#)

        for row in half:
            if isinstance(row.rhr, SchemeOperand):
                produced = self._pass_two_scheme_rhr(row, emitter, mapping)
            elif (
                row.is_local
                and isinstance(row.lhr, LocalOperand)
                and row.op not in (Operation.SELECT, Operation.RETRIEVE)
            ):
                # A pending local operation (pass one's single-mapping case)
                # whose right-hand side is already a polygen relation: the
                # operation itself must run at the PQP, so materialize the
                # left-hand local relation first.
                left = emitter.retrieve(row.lhr.relation, row.el, row.scheme)
                produced = emitter.emit(
                    op=row.op,
                    lhr=left,
                    lha=self._undo_pass_one(row),
                    theta=row.theta,
                    rha=row.rha,
                    rhr=self._remap(row.rhr, mapping),
                    el=PQP_LOCATION,
                    output=row.output,
                )
            else:
                produced = emitter.emit(
                    op=row.op,
                    lhr=self._remap(row.lhr, mapping),
                    lha=row.lha,
                    theta=row.theta,
                    rha=row.rha,
                    rhr=self._remap(row.rhr, mapping),
                    el=row.el,
                    scheme=row.scheme,
                    output=row.output,
                )
            mapping[row.result.index] = produced.index
        return emitter.matrix()

    def _pass_two_scheme_rhr(
        self, row: MatrixRow, emitter: _Emitter, mapping: Dict[int, int]
    ) -> ResultOperand:
        scheme = self._schema.scheme(row.rhr.name)
        rha_is_attribute = isinstance(row.rha, str) and row.rha in scheme

        if rha_is_attribute and scheme.is_single_source(row.rha):
            local = scheme.single_mapping(row.rha)
            if row.el == PQP_LOCATION:
                # Figure 4, case "LHR already an R(#)".
                retrieved = emitter.retrieve(local.relation, local.database, scheme.name)
                return emitter.emit(
                    op=row.op,
                    lhr=self._remap(row.lhr, mapping),
                    lha=row.lha,
                    theta=row.theta,
                    rha=row.rha,
                    rhr=retrieved,
                    el=PQP_LOCATION,
                )
            # Figure 4, case "LHR and RHR both as defined in the polygen
            # schema": materialize the pending left-hand local operation
            # first, then the right-hand relation, then join at the PQP.
            left = emitter.retrieve(row.lhr.relation, row.el, row.scheme)
            right = emitter.retrieve(local.relation, local.database, scheme.name)
            return emitter.emit(
                op=row.op,
                lhr=left,
                lha=self._undo_pass_one(row),
                theta=row.theta,
                rha=row.rha,
                rhr=right,
                el=PQP_LOCATION,
            )

        if rha_is_attribute:
            locations = scheme.relations_for(row.rha)
        else:
            locations = scheme.local_relations()
        materialized = emitter.materialize_scheme(scheme, locations)
        if row.el == PQP_LOCATION:
            return emitter.emit(
                op=row.op,
                lhr=self._remap(row.lhr, mapping),
                lha=row.lha,
                theta=row.theta,
                rha=row.rha,
                rhr=materialized,
                el=PQP_LOCATION,
            )
        left = emitter.retrieve(row.lhr.relation, row.el, row.scheme)
        return emitter.emit(
            op=row.op,
            lhr=left,
            lha=self._undo_pass_one(row),
            theta=row.theta,
            rha=row.rha,
            rhr=materialized,
            el=PQP_LOCATION,
        )

    def _undo_pass_one(self, row: MatrixRow) -> str:
        """The paper's ``PA(LS, LA)`` (Figure 4, footnote 12): map the local
        attribute pass one installed back to its polygen attribute, because
        the operation now runs at the PQP over renamed base relations."""
        scheme = self._schema.scheme(row.scheme)
        return scheme.polygen_attribute_for(row.el, row.lhr.relation, row.lha)

    # ------------------------------------------------------------------

    @staticmethod
    def _remap(operand: Operand, mapping: Dict[int, int]) -> Operand:
        if isinstance(operand, ResultOperand):
            return ResultOperand(mapping[operand.index])
        if isinstance(operand, tuple):
            return tuple(ResultOperand(mapping[part.index]) for part in operand)
        return operand
