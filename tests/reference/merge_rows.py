"""Merge as the row-at-a-time hash partition it was before the column
gather: every operand row widened to a full-width partial, each partition
folded pairwise through a cell fold, each output cell stamped.

Kept verbatim as an ordered oracle: :func:`repro.storage.kernels.hash_merge`
must return the same heading, columns, tags and row order on every input
(``tests/property/test_hash_merge.py``), and raise the same
:class:`~repro.errors.CoalesceConflictError` where this one does.  It has
its own pairwise cell fold, so it shares no fold with the kernel it
checks.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.cell import ConflictPolicy
from repro.core.heading import Heading
from repro.core.tags import SourceSet
from repro.storage.columnar import ColumnarRelation
from repro.errors import CoalesceConflictError
from repro.storage.kernels import _build_deduped
from repro.storage.keyed import buckets, key_data, key_origins

__all__ = ["hash_merge"]


def _fold_cells(
    pool,
    policy: ConflictPolicy,
    attributes: Iterable[str],
    x_data: Sequence[Any],
    x_tags: Sequence[int],
    y_data: Sequence[Any],
    y_tags: Sequence[int],
) -> Tuple[List[Any], List[Optional[int]]]:
    """Coalesce aligned cell pairs (paper, §II): equal data union their
    tags, a nil side yields the other side verbatim, and conflicting data
    are settled by ``policy``.

    Returns the folded data and tag ids; a pair ``DROP`` discards gets the
    tag ``None``.  ``attributes`` names each pair for a conflict error.
    """
    merge = pool.merge
    absorb = pool.absorb
    data: List[Any] = []
    tags: List[Optional[int]] = []
    for attribute, x_datum, x_tag, y_datum, y_tag in zip(
        attributes, x_data, x_tags, y_data, y_tags
    ):
        if x_datum == y_datum:
            datum, tag = x_datum, merge(x_tag, y_tag)
        elif y_datum is None:
            datum, tag = x_datum, x_tag
        elif x_datum is None:
            datum, tag = y_datum, y_tag
        elif policy is ConflictPolicy.DROP:
            datum, tag = None, None
        elif policy is ConflictPolicy.ERROR:
            raise CoalesceConflictError(x_datum, y_datum, attribute)
        elif policy is ConflictPolicy.PREFER_LEFT:
            datum, tag = x_datum, absorb(x_tag, y_tag)
        else:
            datum, tag = y_datum, absorb(y_tag, x_tag)
        data.append(datum)
        tags.append(tag)
    return data, tags


def hash_merge(
    stores: Sequence[ColumnarRelation],
    key: Sequence[str],
    policy: ConflictPolicy,
) -> ColumnarRelation:
    """N-way Merge as hash partitioning on the key columns.

    The fold of Outer Natural Total Joins (:func:`repro.core.derived.merge`)
    re-joins the *accumulated* result against each operand — the
    accumulated relation is rebuilt, re-hashed and re-coalesced N−1 times.
    Because the fold order is immaterial (paper, §II), the same answer
    falls out of a single partition-and-coalesce pass:

    1. partition every operand's rows by key data through the key index
       (:mod:`repro.storage.keyed`; interned tag ids stay ids throughout),
    2. per partition, walk the operands *in order*, crossing the
       accumulated partial rows with the operand's rows and coalescing
       attribute-wise under ``policy`` — exactly the pairwise coalesce the
       fold performs, minus the joins that carried it there,
    3. stamp each surviving row once: every cell's intermediate set gains
       the union of its constituents' key-cell origins (the fold adds
       these mediators piecemeal per join; the union is the same), and
       attributes no constituent supplied become nil pads carrying those
       mediators,
    4. concatenate partitions in first-encounter order and dedup.

    Tag identity with the fold is property-tested in
    ``tests/property/test_hash_merge.py`` across all conflict policies.

    Subtleties the fold semantics force and step 2 preserves:

    - rows whose key data contain nil or NaN never match anything — they
      pass through individually, mediated by their own key-cell origins;
    - under ``DROP``, when *every* pairing of a partition dies at operand
      *j*, operand *j+1*'s rows enter unmatched (fresh partials), exactly
      as they would re-enter the emptied fold;
    - an attribute absent from a partial behaves as a nil cell with the
      empty tag: coalescing it against a real cell adopts that cell, and
      the final mediator stamp turns any still-empty slot into the pad
      the fold would have interned.
    """
    if not stores:
        raise ValueError("hash_merge requires at least one operand")
    first = stores[0]
    pool = first.pool
    translated = [first] + [store.translated(pool) for store in stores[1:]]

    # Output heading: ordered union of operand attributes by first
    # appearance — the heading the ONTJ fold accretes.
    names = list(
        dict.fromkeys(name for store in translated for name in store.heading.attributes)
    )
    heading = Heading(names)

    if len(translated) == 1:
        return first

    # Every operand row widened to a partial — (full-width data, full-width
    # raw tags, key-cell origins) — under one global row id.  An attribute
    # the operand lacks is a nil cell with the empty tag.
    entries: List[Tuple[tuple, tuple, SourceSet]] = []
    operand_of: List[int] = []
    keys: list = []
    for operand_index, store in enumerate(translated):
        n = store.cardinality
        positions = store.heading.indices(key)
        sources = key_origins(store, positions)
        keys += key_data(store, positions)
        operand_of += [operand_index] * n
        nil = ([None] * n, [pool.EMPTY_ID] * n)
        own = dict(zip(store.heading.attributes, zip(store.columns, store.tags)))
        data, tags = zip(*(own.get(name, nil) for name in names))
        entries += zip(zip(*data), zip(*tags), sources)

    def coalesce_pair(
        acc: Tuple[tuple, tuple, SourceSet], row: Tuple[tuple, tuple, SourceSet]
    ) -> Optional[Tuple[list, list, SourceSet]]:
        """One accumulated partial × one operand row, attribute-wise
        coalesce on raw tags; ``None`` when the ``DROP`` policy kills it."""
        data, tags = _fold_cells(pool, policy, names, acc[0], acc[1], row[0], row[1])
        return None if None in tags else (data, tags, acc[2] | row[2])

    # A partition's row ids ascend, so they come grouped by operand, in
    # operand order.
    merged: List[Tuple[Sequence, Sequence, SourceSet]] = []
    for rows in buckets(keys).values():
        accumulated: List[Tuple[Sequence, Sequence, SourceSet]] = []
        for _, group in groupby(rows, key=operand_of.__getitem__):
            contributed = [entries[row] for row in group]
            if not accumulated:
                # First contributor — or every pairing died under DROP, in
                # which case the fold's accumulator is empty and these rows
                # enter unmatched, as fresh partials.
                accumulated = contributed
                continue
            accumulated = [
                combined
                for acc in accumulated
                for row in contributed
                if (combined := coalesce_pair(acc, row)) is not None
            ]
        merged += accumulated
    merged += [entries[row] for row, key_data in enumerate(keys) if key_data is None]

    if not merged:
        return ColumnarRelation.empty(heading, pool)
    # The mediator stamp; on an empty slot it interns the nil pad.
    add = pool.add_intermediates
    columns = list(zip(*(data for data, _, _ in merged)))
    tag_rows = ([add(tag, sources) for tag in tags] for _, tags, sources in merged)
    tag_columns = [list(column) for column in zip(*tag_rows)]
    return _build_deduped(heading, columns, tag_columns, pool)
