"""Polygen and Intermediate Operation Matrices (paper, §III).

A matrix row is the paper's 7-column record

    PR | OP | LHR | LHA | θ | RHA | RHR

plus, for the Intermediate Operation Matrix, the execution location EL and
(our addition) the polygen-scheme context a local operation serves — needed
by the executor to rename and transform retrieved data; the paper carries
this context implicitly in its prose.

Operands are typed rather than stringly:

- :class:`SchemeOperand` — a polygen scheme name (POM only),
- :class:`LocalOperand` — a local relation name (IOM rows executed at an LQP),
- :class:`ResultOperand` — ``R(#)``, a previously produced polygen relation,
- ``None`` — the paper's ``nil``,
- a tuple of :class:`ResultOperand` — the input set of a Merge row.

The right-hand attribute column holds an attribute name (``str``) or a
:class:`repro.core.predicate.Literal` (the paper renders literals quoted,
e.g. ``"MBA"``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.predicate import Literal, Theta

if TYPE_CHECKING:  # pragma: no cover - typing only (plandag imports this module)
    from repro.pqp.plandag import PlanDAG

__all__ = [
    "Operation",
    "CachedResult",
    "SchemeOperand",
    "LocalOperand",
    "ResultOperand",
    "Operand",
    "MatrixRow",
    "PolygenOperationMatrix",
    "IntermediateOperationMatrix",
    "PQP_LOCATION",
]

#: The execution-location marker for operations performed by the PQP itself.
PQP_LOCATION = "PQP"


class Operation(Enum):
    """Operations a matrix row can carry.

    The paper's example uses Select, Join, Restrict, Project, Retrieve and
    Merge; the remaining members cover the full algebra so any expression
    the language can state is translatable.
    """

    SELECT = "Select"
    RESTRICT = "Restrict"
    JOIN = "Join"
    PROJECT = "Project"
    RETRIEVE = "Retrieve"
    MERGE = "Merge"
    UNION = "Union"
    DIFFERENCE = "Difference"
    PRODUCT = "Product"
    INTERSECT = "Intersect"
    COALESCE = "Coalesce"
    #: A pre-materialized subtree spliced in from the semantic result cache
    #: (service/cache.py): the row consumes nothing and yields the cached
    #: polygen relation carried in :attr:`MatrixRow.cached`.
    CACHED = "Cached"
    #: A local row that ships only the rows whose ``LHA`` value is in a key
    #: set taken from earlier results: attribute ``RHA`` of every ``R(#)``
    #: in ``RHR`` (the optimizer's key-set passing, pqp/optimizer.py).
    SELECT_IN = "SelectIn"


@dataclass(frozen=True)
class CachedResult:
    """The payload of a :attr:`Operation.CACHED` row.

    Carries the materialized polygen relation the semantic result cache
    stored for this subtree, together with the metadata the splice must
    preserve: the subtree's canonical *fingerprint* (so re-fingerprinting a
    spliced plan reproduces the original subtree's hash and downstream
    fingerprints stay stable), its attribute *lineage* (scheme provenance
    the executor would have computed), and the *sources* the subtree
    consulted (the invalidation tag set).
    """

    fingerprint: str
    relation: Any
    lineage: Any
    sources: Tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"cached:{self.fingerprint[:12]}"


@dataclass(frozen=True, slots=True)
class SchemeOperand:
    """A polygen scheme reference (resolved away by the interpreter)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class LocalOperand:
    """A local relation name; its database is the row's EL column."""

    relation: str

    def __str__(self) -> str:
        return self.relation


@dataclass(frozen=True, slots=True)
class ResultOperand:
    """``R(#)`` — the result of an earlier row (1-based, per the paper)."""

    index: int

    def __str__(self) -> str:
        return f"R({self.index})"


Operand = Union[SchemeOperand, LocalOperand, ResultOperand, Tuple[ResultOperand, ...], None]


def _render_operand(operand: Operand) -> str:
    if operand is None:
        return "nil"
    if isinstance(operand, tuple):
        return ", ".join(str(part) for part in operand)
    return str(operand)


def _render_attribute(value: Any) -> str:
    if value is None:
        return "nil"
    if isinstance(value, Literal):
        return str(value)
    if isinstance(value, tuple):
        return ", ".join(value)
    return str(value)


@dataclass(frozen=True)
class MatrixRow:
    """One row of a POM or IOM."""

    result: ResultOperand
    op: Operation
    lhr: Operand
    lha: Any = None            # attribute name, tuple of names (Project), or None
    theta: Optional[Theta] = None
    rha: Any = None            # attribute name, Literal, or None
    rhr: Operand = None
    el: Optional[str] = None   # execution location (IOM only)
    scheme: Optional[str] = None   # polygen-scheme context for local rows / merges
    output: Optional[str] = None   # Coalesce output attribute
    #: Optimizer-installed materialization pruning (local rows only): keep
    #: just these polygen attributes when tagging the shipped relation.
    project: Optional[Tuple[str, ...]] = None
    #: Databases consulted in producing this row's data beyond shipping it
    #: (local rows only).  A selection pushed down into an LQP consults that
    #: database's cells to decide membership, so — per the paper's §II
    #: Restrict semantics — its name is recorded in every materialized
    #: cell's intermediate-source set, exactly as the PQP-side Restrict
    #: would have done.
    consulted: Tuple[str, ...] = ()
    #: The pre-materialized payload of a :attr:`Operation.CACHED` row
    #: (semantic result cache splice); ``None`` everywhere else.
    cached: Optional[CachedResult] = None
    #: :attr:`Operation.SELECT_IN` rows only: a ``(local attribute, θ,
    #: Literal)`` comparison.  Rows whose key is nil or NaN never join a
    #: Merge group, so the row also ships those of them that satisfy it.
    unkeyed: Optional[Tuple[str, Theta, Literal]] = None

    @property
    def is_local(self) -> bool:
        """True when this row executes at an LQP."""
        return self.el is not None and self.el != PQP_LOCATION

    def referenced_results(self) -> Tuple[ResultOperand, ...]:
        """Every ``R(#)`` this row consumes."""
        refs: List[ResultOperand] = []
        for operand in (self.lhr, self.rhr):
            if isinstance(operand, ResultOperand):
                refs.append(operand)
            elif isinstance(operand, tuple):
                refs.extend(operand)
        return tuple(refs)

    def with_remapped_results(self, mapping) -> "MatrixRow":
        """Rewrite ``R(#)`` references through ``mapping`` (old index → new
        index); used by the optimizer."""

        def remap(operand: Operand) -> Operand:
            if isinstance(operand, ResultOperand):
                return ResultOperand(mapping.get(operand.index, operand.index))
            if isinstance(operand, tuple):
                return tuple(
                    ResultOperand(mapping.get(part.index, part.index)) for part in operand
                )
            return operand

        return replace(
            self,
            result=remap(self.result),
            lhr=remap(self.lhr),
            rhr=remap(self.rhr),
        )

    def describe(self) -> str:
        """The row's operation, with its key set's producers for a
        SelectIn: ``SelectIn ORG.NAME ∈ R(1).EMPLOYER``."""
        if self.op is not Operation.SELECT_IN:
            return self.op.value
        producers = " ∪ ".join(str(part) for part in self.rhr)
        text = f"SelectIn {self.lhr}.{self.lha} ∈ {producers}.{self.rha}"
        if self.unkeyed is not None:
            attribute, theta, literal = self.unkeyed
            text += f", nil keys where {attribute} {theta.symbol} {literal}"
        return text

    def cells(self, with_el: bool) -> Tuple[str, ...]:
        """The row rendered as display cells (paper column order)."""
        if self.op is Operation.SELECT_IN:
            theta = "∈"
        else:
            theta = self.theta.symbol if self.theta else "nil"
        base = (
            str(self.result),
            self.op.value,
            _render_operand(self.lhr),
            _render_attribute(self.lha),
            theta,
            _render_attribute(self.rha),
            _render_operand(self.rhr),
        )
        return base + ((self.el or "nil",) if with_el else ())


class _Matrix:
    """Common container behaviour for POM and IOM.

    A matrix is a value: its rows are fixed at construction (the analyzer
    and interpreter collect a list, then make the matrix), so one plan
    can be shared across sessions and threads — the federation's plan
    memo hands the same optimized IOM to every caller of a query text.
    """

    __slots__ = ("_rows",)

    HEADERS: Tuple[str, ...] = ()
    WITH_EL = False

    def __init__(self, rows: Sequence[MatrixRow] = ()):
        object.__setattr__(self, "_rows", tuple(rows))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def rows(self) -> Tuple[MatrixRow, ...]:
        return self._rows

    def __iter__(self) -> Iterator[MatrixRow]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: int) -> MatrixRow:
        return self._rows[index]

    def row_for(self, operand: ResultOperand) -> MatrixRow:
        """The row that produces ``operand`` (R(#) indices are 1-based)."""
        return self._rows[operand.index - 1]

    def render(self) -> str:
        """Fixed-width table in the paper's layout."""
        table = [self.HEADERS] + [row.cells(self.WITH_EL) for row in self._rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(self.HEADERS))]
        lines = []
        for line_number, line in enumerate(table):
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
            if line_number == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class PolygenOperationMatrix(_Matrix):
    """The Syntax Analyzer's output (paper, Table 1)."""

    __slots__ = ()
    HEADERS = ("PR", "OP", "LHR", "LHA", "0", "RHA", "RHR")
    WITH_EL = False


class IntermediateOperationMatrix(_Matrix):
    """The Polygen Operation Interpreter's output (paper, Tables 2 and 3)."""

    __slots__ = ("_dag",)
    HEADERS = ("PR", "OP", "LHR", "LHA", "0", "RHA", "RHR", "EL")
    WITH_EL = True

    def __init__(self, rows: Sequence[MatrixRow] = ()):
        super().__init__(rows)
        object.__setattr__(self, "_dag", None)

    def linear_chain(self) -> Optional[Tuple[MatrixRow, ...]]:
        """The plan as a single dependency chain, or ``None``.

        A chain means every row consumes exactly the previous row's result
        (the head consumes none): no fan-out, no fan-in, result last.  This
        is the shape :mod:`repro.pqp.stream` can evaluate one arriving
        chunk at a time, because each stage's output is a prefix-stable
        function of its input rows.
        """
        rows = self.rows
        if not rows or rows[0].referenced_results():
            return None
        for previous, row in zip(rows, rows[1:]):
            references = row.referenced_results()
            if len(references) != 1 or references[0].index != previous.result.index:
                return None
        return rows

    def dag(self) -> "PlanDAG":
        """The plan's dataflow DAG, built on first use and then shared: the
        matrix cannot change, so neither can its dependency structure."""
        dag = self._dag
        if dag is None:
            from repro.pqp.plandag import PlanDAG

            dag = PlanDAG(self)
            object.__setattr__(self, "_dag", dag)
        return dag

    def local_rows(self) -> Tuple[MatrixRow, ...]:
        return tuple(row for row in self if row.is_local)

    def pqp_rows(self) -> Tuple[MatrixRow, ...]:
        return tuple(row for row in self if not row.is_local)

    def databases_touched(self) -> Tuple[str, ...]:
        seen = {}
        for row in self.local_rows():
            seen.setdefault(row.el, None)
        return tuple(seen)
