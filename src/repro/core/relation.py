"""Polygen relations.

A polygen relation of degree *n* is a finite set of *n*-tuples of cells
(paper, §II).  This class keeps that logical model — set semantics, with
exact duplicate tuples (equal data *and* tags) collapsed at construction,
insertion order preserved for reproducible display — but since the columnar
refactor it is a thin *row-view facade* over a
:class:`~repro.storage.columnar.ColumnarRelation`: per-attribute data
columns plus per-attribute interned tag ids
(:class:`~repro.storage.tag_pool.TagPool`).

The paper's :class:`~repro.core.cell.Cell` / :class:`~repro.core.row.PolygenTuple`
objects are materialized lazily the first time :attr:`PolygenRelation.tuples`
is read, so query pipelines that stay inside the algebra never allocate a
single cell.

Tuples that agree on data but differ in tags may coexist inside a relation;
the Project and Union operators merge them per the paper's definitions.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.core.cell import Cell
from repro.core.heading import Heading
from repro.core.row import PolygenTuple
from repro.core.tags import SourceSet
from repro.errors import DegreeMismatchError
from repro.storage.columnar import ColumnarRelation

__all__ = ["PolygenRelation"]


def _data_sort_key(row: Sequence[Any]):
    """Per-row ordering key: numerics numerically, then other values by
    their string form, nil last.  Mixing groups inside one column stays
    well-defined because the group rank leads the key.  Ints and floats
    compare directly (no lossy conversion), and NaN — which has no order
    among numbers — falls back to the string group like any non-numeric."""
    key = []
    for value in row:
        if value is None:
            key.append((2, 0, ""))
        elif (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value == value  # NaN != NaN
        ):
            key.append((0, value, ""))
        else:
            key.append((1, 0, str(value)))
    return tuple(key)


class PolygenRelation:
    """An immutable source-tagged relation.

    Build directly from :class:`PolygenTuple` rows, or use
    :meth:`from_data` to tag plain Python rows uniformly — handy for tests
    and for the LQP retrieval path, where a whole local relation is tagged
    with one originating database.  The algebra operators construct results
    through :meth:`from_store`, staying columnar end-to-end.
    """

    __slots__ = ("_store", "_tuples", "_hash")

    def __init__(self, heading: Heading | Sequence[str], tuples: Iterable[PolygenTuple] = ()):
        if not isinstance(heading, Heading):
            heading = Heading(heading)
        self._store = ColumnarRelation.from_tuples(heading, tuples)
        self._tuples: Tuple[PolygenTuple, ...] | None = None
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_store(cls, store: ColumnarRelation) -> "PolygenRelation":
        """Wrap an already-deduplicated columnar relation (zero copies).

        This is how the algebra kernels hand results back; the store is
        trusted to uphold the :class:`ColumnarRelation` invariants.
        """
        self = object.__new__(cls)
        self._store = store
        self._tuples = None
        self._hash = None
        return self

    @classmethod
    def from_data(
        cls,
        heading: Heading | Sequence[str],
        rows: Iterable[Sequence[Any]],
        origins: Iterable[str] = (),
        intermediates: Iterable[str] = (),
        pool=None,
    ) -> "PolygenRelation":
        """Build a relation from plain data rows, tagging every cell alike.

        ``None`` data become nil cells with *empty* origins (a nil datum has
        no originating source), keeping the given intermediates.  The whole
        relation needs at most two interned tag ids, so tagging cost is
        independent of the number of cells.  ``pool`` scopes interning to a
        caller-owned :class:`~repro.storage.tag_pool.TagPool`; ``None``
        uses the process-wide default.

        >>> r = PolygenRelation.from_data(["A"], [["x"], [None]], origins=["AD"])
        >>> [cell.render() for cell in r.tuples[0]]
        ['x, {AD}, {}']
        >>> [cell.render() for cell in r.tuples[1]]
        ['nil, {}, {}']
        """
        if not isinstance(heading, Heading):
            heading = Heading(heading)
        degree = len(heading)
        distinct: dict[Tuple[Any, ...], None] = {}
        for row in rows:
            data = tuple(row)
            if len(data) != degree:
                raise DegreeMismatchError(
                    f"tuple of degree {len(data)} in relation of degree {degree}"
                )
            distinct[data] = None
        columns = tuple(zip(*distinct)) if distinct else ((),) * degree
        return cls.from_store(
            ColumnarRelation.uniform(heading, columns, origins, intermediates, pool)
        )

    @classmethod
    def from_cells(
        cls,
        heading: Heading | Sequence[str],
        rows: Iterable[Sequence[Cell]],
    ) -> "PolygenRelation":
        """Build a relation from rows of pre-constructed cells."""
        return cls(heading, (PolygenTuple(row) for row in rows))

    def empty_like(self) -> "PolygenRelation":
        """An empty relation with this relation's heading."""
        return PolygenRelation.from_store(
            ColumnarRelation.empty(self.heading, self._store.pool)
        )

    # -- accessors ------------------------------------------------------------

    @property
    def store(self) -> ColumnarRelation:
        """The underlying columnar representation (storage layer)."""
        return self._store

    @property
    def heading(self) -> Heading:
        return self._store.heading

    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._store.heading.attributes

    @property
    def tuples(self) -> Tuple[PolygenTuple, ...]:
        """The classic row-of-cells view, materialized on first access."""
        if self._tuples is None:
            self._tuples = self._store.to_tuples()
        return self._tuples

    @property
    def degree(self) -> int:
        """Number of attributes (paper: the relation's *degree*)."""
        return self._store.degree

    @property
    def cardinality(self) -> int:
        """Number of tuples."""
        return self._store.cardinality

    def __iter__(self) -> Iterator[PolygenTuple]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return self._store.cardinality

    def __bool__(self) -> bool:
        # A relation is always truthy; emptiness is cardinality == 0.  This
        # avoids the classic `if relation:` bug on empty results.
        return True

    def column(self, attribute: str) -> Tuple[Cell, ...]:
        """The column ``p[x]`` as a tuple of cells."""
        position = self.heading.index(attribute)
        return tuple(self._store.iter_cells(position))

    def data_rows(self) -> Tuple[Tuple[Any, ...], ...]:
        """All data portions, in storage order."""
        return tuple(self._store.data_rows())

    def all_origins(self) -> SourceSet:
        """``p(o)``: the union of every cell's originating set (paper, §II,
        used by the Difference operator)."""
        return self._store.all_origins()

    def all_intermediates(self) -> SourceSet:
        """Union of every cell's intermediate set."""
        return self._store.all_intermediates()

    def contributing_sources(self) -> SourceSet:
        """Every local database that contributed to this relation, either as
        an originating or as an intermediate source."""
        return self.all_origins() | self.all_intermediates()

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Set equality: same heading, same set of (deduplicated) tuples."""
        if not isinstance(other, PolygenRelation):
            return NotImplemented
        if self.heading != other.heading:
            return False
        # Interned ids are directly comparable on a shared pool; translate
        # otherwise.  Either way no Cell/PolygenTuple is materialized.
        theirs = other._store.translated(self._store.pool)
        return self._store.row_keys() == theirs.row_keys()

    def __hash__(self) -> int:
        # Pool-independent canonical form (ids resolve to their pairs), so
        # equal relations on different pools hash alike.  Cached: the
        # relation is immutable and property tests hash the same relations
        # repeatedly.
        if self._hash is None:
            pair = self._store.pool.pair
            canonical = frozenset(
                (data_row, tuple(pair(tag) for tag in tag_row))
                for data_row, tag_row in zip(
                    self._store.data_rows(), self._store.tag_rows()
                )
            )
            self._hash = hash((self.heading, canonical))
        return self._hash

    def same_data(self, other: "PolygenRelation") -> bool:
        """Equality of the data portions only (tags ignored)."""
        if self.heading != other.heading:
            return False
        return set(self._store.data_rows()) == set(other._store.data_rows())

    # -- derivation ---------------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "PolygenRelation":
        """Rename attributes; data and tags are untouched (columns shared)."""
        return PolygenRelation.from_store(self._store.rename(mapping))

    def replace_tuples(self, tuples: Iterable[PolygenTuple]) -> "PolygenRelation":
        """Same heading, different tuples (internal helper for operators)."""
        return PolygenRelation(self.heading, tuples)

    def sorted_by_data(self) -> "PolygenRelation":
        """Tuples ordered by their data portion (nil sorts last); useful for
        deterministic display of results.

        Numeric data sort numerically (``9`` before ``10``); non-numeric
        data sort by their string form; values of different kinds group as
        numerics < other < nil.
        """
        rows: List[Tuple[Any, ...]] = self._store.data_rows()
        order = sorted(range(len(rows)), key=lambda i: _data_sort_key(rows[i]))
        return PolygenRelation.from_store(self._store.take_rows(order))

    def __repr__(self) -> str:
        return (
            f"PolygenRelation({list(self.heading.attributes)!r}, "
            f"cardinality={self.cardinality})"
        )
