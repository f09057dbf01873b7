"""The key index: which rows share key data (paper, §II).

Join (a Restrict of a Product on ``x = y``), the outer joins and Merge (a
fold of Outer Natural Total Joins) all match rows on key data, by θ ``=``'s
rule (:mod:`repro.core.predicate`): Python ``==``, and a key with a nil or
NaN component matches nothing — not even the same NaN object, so no answer
depends on whether a decoder reused a float or built a fresh one.

The whole-row set operators (Project, Union, Difference, Intersect) do not
use this index: there nil matches nil, as equal data portions.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.tags import EMPTY_SOURCES, SourceSet
from repro.storage.columnar import ColumnarRelation

__all__ = [
    "key_data",
    "key_origins",
    "key_rows",
    "buckets",
    "key_set",
    "unkeyed",
]

#: Key data: the bare value for a one-attribute key, a tuple otherwise.
Key = object


def key_data(store: ColumnarRelation, positions: Sequence[int]) -> List[Optional[Key]]:
    """Per row: its key data, ``None`` when it can never match.

    A one-attribute key is the value itself, one comprehension: ``v != v``
    holds just for NaN, and a nil value is already ``None``.
    """
    if len(positions) == 1:
        return [None if value != value else value for value in store.columns[positions[0]]]
    keys: List[Optional[Key]] = []
    for key in zip(*(store.columns[i] for i in positions)):
        for value in key:
            if value is None or value != value:  # NaN: unequal even to itself
                key = None
                break
        keys.append(key)
    return keys


def key_origins(
    store: ColumnarRelation,
    positions: Sequence[int],
    rows: Optional[Sequence[int]] = None,
) -> List[SourceSet]:
    """Per row (every row, or just ``rows``): the union of its key cells'
    origins — the mediators a match records.

    Origin unions are memoized per tag-id tuple; rows overwhelmingly share
    a handful of them.
    """
    tag_columns = [store.tags[i] for i in positions]
    if rows is not None:
        tag_columns = [[column[row] for row in rows] for column in tag_columns]
    origins = store.pool.origins
    memo: Dict[Tuple[int, ...], SourceSet] = {}
    sources: List[SourceSet] = []
    for tags in zip(*tag_columns):
        found = memo.get(tags)
        if found is None:
            found = memo[tags] = EMPTY_SOURCES.union(*map(origins, tags))
        sources.append(found)
    return sources


def key_rows(
    store: ColumnarRelation, positions: Sequence[int]
) -> Tuple[List[Optional[Key]], List[SourceSet]]:
    """Per row: its key data (:func:`key_data`) and its key cells' origins
    (:func:`key_origins`)."""
    return key_data(store, positions), key_origins(store, positions)


def buckets(keys: Sequence[Optional[Key]]) -> Dict[Key, List[int]]:
    """Key data → the row ids carrying it, in row order; keys in order of
    first appearance.  ``None`` keys are left out, so they match nothing."""
    index: Dict[Key, List[int]] = {}
    for row, key in enumerate(keys):
        if key is not None:
            found = index.get(key)
            if found is None:
                index[key] = [row]
            else:
                found.append(row)
    return index


def unkeyed(value: Any) -> bool:
    """Whether a one-attribute key value can never match: nil or NaN."""
    return value is None or value != value


def key_set(values: Iterable[Any]) -> FrozenSet[Any]:
    """The values of ``values`` a key can match, as a set: nil and NaN are
    left out, and ``1``, ``True`` and ``1.0`` are one member, as in
    :func:`buckets`."""
    keys = set(values)
    keys.discard(None)
    return frozenset(keys.difference([value for value in keys if value != value]))
