"""Untagged (classical) relations for the local engine substrate.

Rows are plain tuples of Python values; ``None`` encodes SQL-style missing
data.  Set semantics: exact duplicate rows collapse at construction, and
insertion order is preserved for reproducible display.

A relation is also what an LQP ships to the PQP, and it has two views of
the same data: :attr:`Relation.rows` (what the local engines compute in)
and :attr:`Relation.columns` (what the wire decodes into and what
:mod:`repro.lqp.tagging` reads).  It is built in one of them — from rows
by the constructor, from columns by :meth:`Relation.from_columns` — and
the other is derived by a single transpose the first time it is read,
then kept, so a long-lived base relation is transposed at most once.

An equality index per attribute is built and kept the same way: the
first :meth:`Relation.index` of an attribute maps each of its values to
the ascending positions of the rows holding it.  A relation never
changes (a :class:`~repro.relational.database.LocalDatabase` insert
replaces it), so an index never goes stale, and two threads building the
same one at once build equal maps.  The local database answers ``=``
Select and SelectIn from it; ``<>``, the ordering comparisons and
condition trees still scan (:mod:`repro.relational.algebra`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.core.heading import Heading
from repro.errors import DegreeMismatchError
from repro.storage.keyed import buckets

__all__ = ["Relation", "distinct_columns"]


def distinct_columns(
    columns: Sequence[Sequence[Any]], cardinality: int
) -> Iterable[Sequence[Any]]:
    """``columns`` (each ``cardinality`` long) with the rows that agree in
    every column collapsed to their first occurrence.

    When the first column repeats no value the rows are proved distinct
    by one ``set`` pass over it — rows that differ in one column cannot be
    equal — and the given columns come back as they are.  Only otherwise
    are rows zipped and deduplicated.  The proof reads the data alone, so
    duplicates collapse whoever sent them.
    """
    if columns and len(set(columns[0])) == cardinality:
        return columns
    distinct = dict.fromkeys(zip(*columns))
    return columns if len(distinct) == cardinality else zip(*distinct)


class Relation:
    """An immutable, untagged relation.

    >>> r = Relation(["BNAME", "IND"], [("IBM", "High Tech")])
    >>> r.cardinality
    1
    """

    __slots__ = ("_heading", "_rows", "_columns", "_indexes")

    def __init__(self, heading: Heading | Sequence[str], rows: Iterable[Sequence[Any]] = ()):
        if not isinstance(heading, Heading):
            heading = Heading(heading)
        self._heading = heading
        degree = len(heading)
        seen: dict[Tuple[Any, ...], None] = {}
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != degree:
                raise DegreeMismatchError(
                    f"row of degree {len(row_tuple)} in relation of degree {degree}"
                )
            seen.setdefault(row_tuple, None)
        self._rows: Tuple[Tuple[Any, ...], ...] | None = tuple(seen)
        self._columns: Tuple[Tuple[Any, ...], ...] | None = None
        self._indexes: Dict[int, Dict[Any, List[int]]] | None = None

    @classmethod
    def from_columns(
        cls, heading: Heading | Sequence[str], columns: Sequence[Sequence[Any]]
    ) -> "Relation":
        """Build from one value vector per attribute, all of one length.

        Same set semantics as the row constructor: rows that agree in
        every column collapse to their first occurrence
        (:func:`distinct_columns`).  A first column with no repeated value
        proves the rows distinct without building one row tuple; else one
        ``zip`` pass deduplicates.  When nothing collapses the given
        columns become the column view as they are (tuples are not even
        copied).

        >>> Relation.from_columns(["A", "B"], [[1, 1, 2], ["x", "x", "y"]]).rows
        ((1, 'x'), (2, 'y'))
        """
        if not isinstance(heading, Heading):
            heading = Heading(heading)
        if len(columns) != len(heading):
            raise DegreeMismatchError(
                f"{len(columns)} columns in relation of degree {len(heading)}"
            )
        cardinality = len(columns[0])
        if any(len(column) != cardinality for column in columns):
            raise DegreeMismatchError(
                "ragged columns: lengths "
                + ", ".join(str(len(column)) for column in columns)
            )
        self = object.__new__(cls)
        self._heading = heading
        self._rows = None
        # tuple() of a tuple is that tuple: distinct columns are not copied.
        self._columns = tuple(map(tuple, distinct_columns(columns, cardinality)))
        self._indexes = None
        return self

    @classmethod
    def from_distinct_rows(
        cls, heading: Heading, rows: Tuple[Tuple[Any, ...], ...]
    ) -> "Relation":
        """Adopt ``rows`` as they are, with no deduplication pass: the
        caller vouches that they are tuples of the heading's degree and
        that no two are equal."""
        self = object.__new__(cls)
        self._heading = heading
        self._rows = rows
        self._columns = None
        self._indexes = None
        return self

    # -- accessors -----------------------------------------------------------

    @property
    def heading(self) -> Heading:
        return self._heading

    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._heading.attributes

    @property
    def rows(self) -> Tuple[Tuple[Any, ...], ...]:
        """The row view (transposed from the columns on first use)."""
        if self._rows is None:
            self._rows = tuple(zip(*self._columns))
        return self._rows

    @property
    def columns(self) -> Tuple[Tuple[Any, ...], ...]:
        """The column view, one value tuple per attribute in heading
        order (transposed from the rows on first use)."""
        if self._columns is None:
            self._columns = tuple(zip(*self._rows)) if self._rows else ((),) * self.degree
        return self._columns

    @property
    def degree(self) -> int:
        return len(self._heading)

    @property
    def cardinality(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._columns[0])

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return self.cardinality

    def __bool__(self) -> bool:
        return True

    def column(self, attribute: str) -> Tuple[Any, ...]:
        return self.columns[self._heading.index(attribute)]

    def index(self, attribute: str) -> Mapping[Any, List[int]]:
        """``attribute``'s equality index: each value → the ascending
        positions of the rows holding it, nil left out.  Values equal
        under ``==`` share one entry (``1``, ``True`` and ``1.0``); a NaN
        cell is found only by its own object.  Built on first use, then
        kept; read it, never change it."""
        position = self._heading.index(attribute)
        if self._indexes is None:
            self._indexes = {}
        found = self._indexes.get(position)
        if found is None:
            found = self._indexes[position] = buckets(self.columns[position])
        return found

    def row_dict(self, row: Sequence[Any]) -> Mapping[str, Any]:
        """A name → value view of one row (used by condition evaluation)."""
        return dict(zip(self._heading.attributes, row))

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._heading == other._heading and set(self.rows) == set(other.rows)

    def __hash__(self) -> int:
        return hash((self._heading, frozenset(self.rows)))

    # -- derivation -----------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename attributes; the data, already a set, is shared as is."""
        renamed = object.__new__(Relation)
        renamed._heading = self._heading.rename(mapping)
        renamed._rows = self._rows
        renamed._columns = self._columns
        renamed._indexes = None
        return renamed

    def replace_rows(self, rows: Iterable[Sequence[Any]]) -> "Relation":
        return Relation(self._heading, rows)

    def take(self, positions: Iterable[int]) -> "Relation":
        """The rows at ``positions``, in that order.  Distinct positions
        pick distinct rows, so there is no deduplication pass.

        >>> Relation(["A"], [(1,), (2,), (3,)]).take([2, 0]).rows
        ((3,), (1,))
        """
        return Relation.from_distinct_rows(
            self._heading, tuple(map(self.rows.__getitem__, positions))
        )

    def __repr__(self) -> str:
        return f"Relation({list(self._heading.attributes)!r}, cardinality={self.cardinality})"
