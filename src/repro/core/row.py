"""Polygen tuples (rows).

A polygen tuple is a fixed-length sequence of :class:`~repro.core.cell.Cell`
triplets, positionally aligned with its relation's heading.  The paper writes
``t(d)``, ``t(o)`` and ``t(i)`` for the data, originating-source and
intermediate-source portions of a tuple; those appear here as the
:attr:`PolygenTuple.data`, :meth:`PolygenTuple.origins` and
:meth:`PolygenTuple.intermediates` accessors.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence, Tuple

from repro.core.cell import Cell
from repro.core.tags import SourceSet

__all__ = ["PolygenTuple"]


class PolygenTuple:
    """An immutable row of cells.

    >>> t = PolygenTuple([Cell("Genentech", frozenset({"AD"})), Cell("CEO", frozenset({"AD"}))])
    >>> t.data
    ('Genentech', 'CEO')
    >>> len(t)
    2
    """

    __slots__ = ("_cells", "_data")

    def __init__(self, cells: Iterable[Cell]):
        self._cells: Tuple[Cell, ...] = tuple(cells)
        self._data: Tuple[Any, ...] = tuple(cell.datum for cell in self._cells)

    @classmethod
    def from_parts(cls, cells: Tuple[Cell, ...], data: Tuple[Any, ...]) -> "PolygenTuple":
        """A tuple from its cells and its data row (each cell's datum, in
        order), for a caller that holds both already."""
        row = object.__new__(cls)
        row._cells = cells
        row._data = data
        return row

    # -- container protocol -------------------------------------------------

    @property
    def cells(self) -> Tuple[Cell, ...]:
        return self._cells

    @property
    def data(self) -> Tuple[Any, ...]:
        """The data portion ``t(d)`` as a plain tuple."""
        return self._data

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __getitem__(self, position: int) -> Cell:
        return self._cells[position]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolygenTuple):
            return self._cells == other._cells
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._cells)

    def __repr__(self) -> str:
        return "PolygenTuple(" + "; ".join(cell.render() for cell in self._cells) + ")"

    # -- tag accessors -------------------------------------------------------

    def origins(self) -> SourceSet:
        """Union of ``c(o)`` over all cells of this tuple."""
        out: frozenset[str] = frozenset()
        for cell in self._cells:
            out |= cell.origins
        return out

    def intermediates(self) -> SourceSet:
        """Union of ``c(i)`` over all cells of this tuple."""
        out: frozenset[str] = frozenset()
        for cell in self._cells:
            out |= cell.intermediates
        return out

    # -- derivation ------------------------------------------------------------

    def take(self, positions: Sequence[int]) -> "PolygenTuple":
        """A new tuple with the cells at ``positions``, in that order."""
        return PolygenTuple(self._cells[i] for i in positions)

    def concat(self, other: "PolygenTuple") -> "PolygenTuple":
        """Concatenation of two tuples (Cartesian product row rule)."""
        return PolygenTuple(self._cells + other._cells)

    def replace_cell(self, position: int, cell: Cell) -> "PolygenTuple":
        """A new tuple with the cell at ``position`` replaced."""
        cells = list(self._cells)
        cells[position] = cell
        return PolygenTuple(cells)

    def with_intermediates(self, extra: SourceSet) -> "PolygenTuple":
        """Union ``extra`` into every cell's intermediate set.

        This is the tuple-level Restrict update: the originating sources of
        the compared cells are recorded as intermediate sources of *every*
        attribute of the surviving tuple (paper, §II).
        """
        if not extra:
            return self
        return PolygenTuple(cell.with_intermediates(extra) for cell in self._cells)

    def merge_tags(self, other: "PolygenTuple") -> "PolygenTuple":
        """Cell-wise tag union of two tuples with identical data portions."""
        return PolygenTuple(
            mine.merge_tags(theirs) for mine, theirs in zip(self._cells, other._cells, strict=True)
        )
