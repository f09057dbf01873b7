"""Columnar storage for polygen relations.

A :class:`ColumnarRelation` stores a source-tagged relation as *columns*:
one tuple of data values and one tuple of interned tag ids per attribute
(see :mod:`repro.storage.tag_pool`).  This is the physical representation
behind :class:`repro.core.relation.PolygenRelation` — the cell/tuple objects
the paper (and ``tests/core``) speak in are materialized lazily as views.

Why columnar?  The paper's algebra touches tags on *every cell*, and a
row-of-cells representation pays an object allocation plus two frozenset
unions per touch.  In columnar form an operator is a handful of ``zip``
passes over plain tuples, and every tag update collapses to a memoized pool
lookup.  The kernels in :mod:`repro.storage.kernels` build directly on the
accessors here.

Invariants:

- columns are rectangular: every data and tag column has the same length,
- rows are exact-duplicate free (same data *and* same tag ids), matching
  the set semantics of ``PolygenRelation``,
- all tag ids belong to :attr:`ColumnarRelation.pool`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.core.cell import Cell, pooled_cells
from repro.core.heading import Heading
from repro.core.row import PolygenTuple
from repro.core.tags import EMPTY_SOURCES, SourceSet
from repro.errors import DegreeMismatchError
from repro.storage.tag_pool import GLOBAL_TAG_POOL, TagPool

__all__ = ["ColumnarRelation"]

#: degree × cardinality data values.
DataColumns = Tuple[Tuple[Any, ...], ...]
#: degree × cardinality interned tag ids.
TagColumns = Tuple[Tuple[int, ...], ...]


def _transpose(rows: Sequence[Sequence[Any]], degree: int) -> Tuple[Tuple[Any, ...], ...]:
    """Row-major → column-major; empty input yields ``degree`` empty columns."""
    if not rows:
        return tuple(() for _ in range(degree))
    return tuple(zip(*rows))


def _from_keys(heading: Heading, keys: Iterable[tuple], pool: TagPool) -> "ColumnarRelation":
    """Assemble a relation from deduplicated ``(data_row, tag_row)`` keys —
    the shared tail of the deduplicating constructors."""
    degree = len(heading)
    data_rows = [key[0] for key in keys]
    tag_rows = [key[1] for key in keys]
    return ColumnarRelation(
        heading, _transpose(data_rows, degree), _transpose(tag_rows, degree), pool
    )


class ColumnarRelation:
    """An immutable columnar polygen relation.

    Build through one of the classmethod constructors; the raw ``__init__``
    trusts its inputs (rectangular, deduplicated, ids valid in ``pool``) and
    is meant for the kernels.
    """

    __slots__ = ("_heading", "_columns", "_tags", "_pool")

    def __init__(
        self,
        heading: Heading,
        columns: DataColumns,
        tags: TagColumns,
        pool: TagPool,
    ):
        self._heading = heading
        self._columns = columns
        self._tags = tags
        self._pool = pool

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        heading: Heading,
        tuples: Iterable[PolygenTuple],
        pool: TagPool | None = None,
    ) -> "ColumnarRelation":
        """Ingest row-of-cells tuples, interning tags and collapsing exact
        duplicates (equal data *and* equal tags) in insertion order."""
        pool = pool or GLOBAL_TAG_POOL
        degree = len(heading)
        intern = pool.intern
        seen: dict[tuple, None] = {}
        for row in tuples:
            if len(row) != degree:
                raise DegreeMismatchError(
                    f"tuple of degree {len(row)} in relation of degree {degree}"
                )
            key = (
                row.data,
                tuple(intern(cell.origins, cell.intermediates) for cell in row),
            )
            seen.setdefault(key, None)
        return _from_keys(heading, seen, pool)

    @classmethod
    def uniform(
        cls,
        heading: Heading,
        columns: Sequence[Tuple[Any, ...]],
        origins: Iterable[str] = (),
        intermediates: Iterable[str] = (),
        pool: TagPool | None = None,
    ) -> "ColumnarRelation":
        """Tag plain data columns with every cell alike.

        This is how shipped local data becomes a polygen base relation: the
        whole relation needs exactly two interned ids — ``(origins,
        intermediates)`` for data cells and ``({}, intermediates)`` for
        nils — so tag interning is O(1) in the number of cells and no
        per-cell objects are built.  ``columns`` are trusted like
        ``__init__``'s: value tuples, rectangular, and duplicate-free as
        rows (equal data rows would get equal tag rows here, so distinct
        data is enough).
        """
        pool = pool or GLOBAL_TAG_POOL
        tagged = pool.intern(frozenset(origins), frozenset(intermediates))
        nil = pool.intern(EMPTY_SOURCES, frozenset(intermediates))
        tags = tuple(
            tuple([nil if value is None else tagged for value in column])
            if None in column
            else (tagged,) * len(column)
            for column in columns
        )
        return cls(heading, tuple(columns), tags, pool)

    @classmethod
    def from_row_major(
        cls,
        heading: Heading,
        data_rows: Sequence[Sequence[Any]],
        tag_rows: Sequence[Sequence[int]],
        pool: TagPool,
    ) -> "ColumnarRelation":
        """Assemble from parallel row-major data and tag-id rows (no dedup)."""
        degree = len(heading)
        return cls(heading, _transpose(data_rows, degree), _transpose(tag_rows, degree), pool)

    @classmethod
    def empty(cls, heading: Heading, pool: TagPool | None = None) -> "ColumnarRelation":
        degree = len(heading)
        return cls(
            heading,
            tuple(() for _ in range(degree)),
            tuple(() for _ in range(degree)),
            pool or GLOBAL_TAG_POOL,
        )

    # -- accessors ----------------------------------------------------------

    @property
    def heading(self) -> Heading:
        return self._heading

    @property
    def columns(self) -> DataColumns:
        return self._columns

    @property
    def tags(self) -> TagColumns:
        return self._tags

    @property
    def pool(self) -> TagPool:
        return self._pool

    @property
    def degree(self) -> int:
        return len(self._heading)

    @property
    def cardinality(self) -> int:
        return len(self._columns[0])

    def data_rows(self) -> List[Tuple[Any, ...]]:
        """Row-major view of the data portion (one ``zip`` pass)."""
        return list(zip(*self._columns)) if self.cardinality else []

    def tag_rows(self) -> List[Tuple[int, ...]]:
        """Row-major view of the tag-id portion."""
        return list(zip(*self._tags)) if self.cardinality else []

    def iter_cells(self, position: int) -> Iterator[Cell]:
        """Materialize the cells of one column, in row order."""
        pairs = self._pool.pair
        for value, tag_id in zip(self._columns[position], self._tags[position]):
            origins, intermediates = pairs(tag_id)
            yield Cell(value, origins, intermediates)

    def to_tuples(self) -> Tuple[PolygenTuple, ...]:
        """Materialize the classic row-of-cells view (paper notation),
        one column of cells at a time from the pool's own tag sets."""
        if not self.cardinality:
            return ()
        pairs = {
            tag_id: tuple(map(frozenset, self._pool.pair(tag_id)))
            for tag_id in self.distinct_tag_ids()
        }
        cell_columns = [
            pooled_cells(values, map(pairs.__getitem__, tags))
            for values, tags in zip(self._columns, self._tags)
        ]
        make = PolygenTuple.from_parts
        return tuple(
            make(cells, data)
            for cells, data in zip(zip(*cell_columns), zip(*self._columns))
        )

    def distinct_tag_ids(self) -> set:
        """Every tag id used anywhere in this relation."""
        ids: set[int] = set()
        for column in self._tags:
            ids.update(column)
        return ids

    def all_origins(self) -> SourceSet:
        """Union of every cell's originating set, via distinct ids only."""
        out: frozenset[str] = frozenset()
        for tag_id in self.distinct_tag_ids():
            out |= self._pool.origins(tag_id)
        return out

    def all_intermediates(self) -> SourceSet:
        """Union of every cell's intermediate set, via distinct ids only."""
        out: frozenset[str] = frozenset()
        for tag_id in self.distinct_tag_ids():
            out |= self._pool.intermediates(tag_id)
        return out

    def row_keys(self) -> frozenset:
        """The relation as a set of ``(data_row, tag_id_row)`` keys.

        Because tag pairs are interned, two relations over the same pool are
        equal exactly when their row-key sets (and headings) are equal.
        """
        if not self.cardinality:
            return frozenset()
        return frozenset(zip(zip(*self._columns), zip(*self._tags)))

    # -- derivation ---------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "ColumnarRelation":
        """Rename attributes; columns are shared, not copied."""
        return ColumnarRelation(
            self._heading.rename(mapping), self._columns, self._tags, self._pool
        )

    def take_rows(self, indices: Sequence[int]) -> "ColumnarRelation":
        """A new relation keeping the rows at ``indices``, in that order."""
        return ColumnarRelation(
            self._heading,
            tuple(tuple(column[i] for i in indices) for column in self._columns),
            tuple(tuple(column[i] for i in indices) for column in self._tags),
            self._pool,
        )

    def translated(self, pool: TagPool) -> "ColumnarRelation":
        """Re-intern every tag id into ``pool`` (no-op when already there).

        Kernels call this to bring operands onto a common pool before doing
        id arithmetic across relations.
        """
        if pool is self._pool:
            return self
        pair = self._pool.pair
        memo: dict[int, int] = {}

        def move(tag_id: int) -> int:
            found = memo.get(tag_id)
            if found is None:
                found = memo[tag_id] = pool.intern(*pair(tag_id))
            return found

        return ColumnarRelation(
            self._heading,
            self._columns,
            tuple(tuple(move(tag_id) for tag_id in column) for column in self._tags),
            pool,
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarRelation({list(self._heading.attributes)!r}, "
            f"cardinality={self.cardinality}, pool={self._pool!r})"
        )
