"""Polygen cells.

A *cell* is the paper's atomic unit of source tagging (§II): an ordered
triplet ``c = (c(d), c(o), c(i))`` where

- ``c(d)`` is the datum (``None`` encodes the paper's ``nil``),
- ``c(o)`` is the originating-source tag set, and
- ``c(i)`` is the intermediate-source tag set.

Cells are immutable value objects.  All tag-propagation rules of the polygen
algebra are expressed through the small combinators on this class so the
algebra operators in :mod:`repro.core.algebra` read like the paper's
definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from repro.core.tags import EMPTY_SOURCES, SourceSet, render_sources
from repro.errors import CoalesceConflictError

__all__ = ["Cell", "NIL", "ConflictPolicy", "pooled_cells"]


class ConflictPolicy(Enum):
    """What :meth:`Cell.coalesce_with` does when both cells hold non-nil,
    unequal data.

    The paper's set-theoretic Coalesce definition (§II) covers only three
    cases (equal data, left nil, right nil); a tuple with conflicting data
    satisfies none of them and therefore silently vanishes from the result.
    ``DROP`` reproduces that behaviour and is the library default.  The other
    policies are practical extensions for the data-conflict follow-up work
    the paper's conclusion anticipates.
    """

    #: Paper-faithful: the tuple is dropped from the result.
    DROP = "drop"
    #: Raise :class:`repro.errors.CoalesceConflictError`.
    ERROR = "error"
    #: Keep the left datum and tags, record the right sources as intermediates.
    PREFER_LEFT = "prefer_left"
    #: Keep the right datum and tags, record the left sources as intermediates.
    PREFER_RIGHT = "prefer_right"


@dataclass(frozen=True, slots=True)
class Cell:
    """An immutable ``(datum, origins, intermediates)`` triplet.

    >>> c = Cell("Genentech", frozenset({"AD"}))
    >>> c.datum, sorted(c.origins), sorted(c.intermediates)
    ('Genentech', ['AD'], [])
    """

    datum: Any
    origins: SourceSet = EMPTY_SOURCES
    intermediates: SourceSet = EMPTY_SOURCES

    def __post_init__(self) -> None:
        # Normalize plain sets/iterables handed in by callers to frozensets
        # so that cells always hash.
        if not isinstance(self.origins, frozenset):
            object.__setattr__(self, "origins", frozenset(self.origins))
        if not isinstance(self.intermediates, frozenset):
            object.__setattr__(self, "intermediates", frozenset(self.intermediates))

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(
        cls,
        datum: Any,
        origins: Iterable[str] = (),
        intermediates: Iterable[str] = (),
    ) -> "Cell":
        """Build a cell, accepting any iterables for the tag portions."""
        return cls(datum, frozenset(origins), frozenset(intermediates))

    @classmethod
    def nil(cls, intermediates: Iterable[str] = ()) -> "Cell":
        """The paper's ``nil`` cell: no datum, no origins.

        Outer joins pad unmatched sides with nil cells whose intermediate
        portion records the sources consulted (paper, Table A4).
        """
        return cls(None, EMPTY_SOURCES, frozenset(intermediates))

    # -- predicates --------------------------------------------------------

    @property
    def is_nil(self) -> bool:
        """True when the datum portion is ``nil``."""
        return self.datum is None

    def data_equals(self, other: "Cell") -> bool:
        """Datum-portion equality (used by Project/Union deduplication).

        ``nil`` equals ``nil`` here; the *Restrict* operator, by contrast,
        never matches nil data (see :mod:`repro.core.predicate`).
        """
        return self.datum == other.datum

    # -- tag combinators ---------------------------------------------------

    def with_intermediates(self, extra: SourceSet) -> "Cell":
        """Return this cell with ``extra`` unioned into ``c(i)``.

        This is the Restrict update ``t'[w](i) = t[w](i) u t[x](o) u t[y](o)``
        applied to one cell.  Returns ``self`` unchanged when ``extra`` adds
        nothing, to keep the common case allocation-free.
        """
        if extra <= self.intermediates:
            return self
        return Cell(self.datum, self.origins, self.intermediates | extra)

    def merge_tags(self, other: "Cell") -> "Cell":
        """Union both tag portions of two cells holding equal data.

        This is the merge step of Project and Union: when several tuples
        agree on their data portion, their origin and intermediate sets are
        unioned attribute-wise.
        """
        if self.datum != other.datum:
            raise CoalesceConflictError(self.datum, other.datum)
        return Cell(
            self.datum,
            self.origins | other.origins,
            self.intermediates | other.intermediates,
        )

    def coalesce_with(
        self,
        other: "Cell",
        policy: ConflictPolicy = ConflictPolicy.DROP,
        attribute: str | None = None,
    ) -> "Cell | None":
        """The cell-level Coalesce operator (paper, §II).

        Returns the coalesced cell, or ``None`` when the tuple must be
        dropped under :attr:`ConflictPolicy.DROP`.

        - both data equal (including both nil): union the tags,
        - exactly one side nil: take the other side verbatim,
        - conflict: resolved per ``policy``.
        """
        if self.datum == other.datum:
            return Cell(
                self.datum,
                self.origins | other.origins,
                self.intermediates | other.intermediates,
            )
        if other.is_nil:
            return self
        if self.is_nil:
            return other
        if policy is ConflictPolicy.DROP:
            return None
        if policy is ConflictPolicy.ERROR:
            raise CoalesceConflictError(self.datum, other.datum, attribute)
        if policy is ConflictPolicy.PREFER_LEFT:
            winner, loser = self, other
        else:
            winner, loser = other, self
        return Cell(
            winner.datum,
            winner.origins,
            winner.intermediates | loser.intermediates | loser.origins,
        )

    # -- rendering ---------------------------------------------------------

    def render(self, nil_text: str = "nil") -> str:
        """Render in the paper's ``datum, {origins}, {intermediates}`` form.

        >>> Cell("IBM", frozenset({"AD"}), frozenset({"AD", "PD"})).render()
        'IBM, {AD}, {AD, PD}'
        """
        datum = nil_text if self.is_nil else str(self.datum)
        return f"{datum}, {render_sources(self.origins)}, {render_sources(self.intermediates)}"

    def __repr__(self) -> str:
        return f"Cell({self.render()})"


#: A shared, fully empty nil cell.
NIL = Cell(None, EMPTY_SOURCES, EMPTY_SOURCES)


_new = object.__new__
_set_datum = Cell.__dict__["datum"].__set__
_set_origins = Cell.__dict__["origins"].__set__
_set_intermediates = Cell.__dict__["intermediates"].__set__


def pooled_cells(data: Iterable[Any], tags: Iterable[tuple]) -> list:
    """One :class:`Cell` per ``datum`` and ``(origins, intermediates)``
    pair, where the tag sets are frozensets already (a tag pool's): the
    slots are filled directly, without :meth:`Cell.__post_init__`'s
    normalization."""
    cells = []
    for datum, (origins, intermediates) in zip(data, tags):
        cell = _new(Cell)
        _set_datum(cell, datum)
        _set_origins(cell, origins)
        _set_intermediates(cell, intermediates)
        cells.append(cell)
    return cells
