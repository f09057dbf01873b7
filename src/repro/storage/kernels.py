"""Columnar kernels for the polygen algebra.

Each kernel is the batch-oriented equivalent of one paper operator
(:mod:`repro.core.algebra` / :mod:`repro.core.derived` keep the validation,
documentation and public signatures and delegate the work here).  Kernels
take and return :class:`~repro.storage.columnar.ColumnarRelation` values and
express **all** tag propagation as memoized :class:`~repro.storage.tag_pool`
id arithmetic:

=================  =====================================================
Operator           Tag work per row
=================  =====================================================
project / union    one ``pool.merge`` id lookup per duplicate attribute
restrict           one table lookup per output cell, resolved once per
                   distinct (tag, compared tags); survivors are gathered
difference         ditto, one table entry per distinct tag: the mediators
                   are one relation-wide set
coalesce           one ``merge``/``absorb`` lookup for the folded pair
intersect          ``merge`` + ``add_intermediates`` lookups per cell
hash_join          one table lookup per output cell, resolved once per
                   distinct (tag, key tags); matched rows are gathered
outer_join         ditto; a nil pad is the table's entry for the empty tag
hash_merge         uniformly tagged, uniquely keyed, agreeing operands:
                   one table lookup per output cell, a tag per distinct
                   set of contributing operands; otherwise ``merge`` per
                   folded cell, in place, and one stamp per distinct
                   (tag, key tag) pair, a dict probe per cell
=================  =====================================================

Join, the outer joins and Merge match rows through one key index, which
holds the key rule (:mod:`repro.storage.keyed`); Restrict, the joins and
Merge's fold stamp mediators through one table, :func:`_stamp`; Coalesce
and Merge fold cells through one function, :func:`_fold`.  A kernel whose
output rows all differ in data skips the duplicate pass (:func:`_assembled`).
The row-at-a-time reference implementations live in ``tests/reference``;
``tests/property`` asserts every kernel is bit-identical to its reference
on random relations.

Operands are brought onto the left operand's pool via
:meth:`ColumnarRelation.translated` before any cross-relation id use.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, count, filterfalse, repeat
from operator import eq, ge, gt, itemgetter, le, lt, ne, not_
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cell import ConflictPolicy
from repro.core.heading import Heading
from repro.core.predicate import Theta
from repro.core.tags import EMPTY_SOURCES, SourceSet
from repro.errors import CoalesceConflictError, InvalidOperandError
from repro.storage.columnar import ColumnarRelation, _from_keys, _transpose
from repro.storage.keyed import buckets, key_data, key_origins

__all__ = [
    "project",
    "product",
    "restrict",
    "union",
    "difference",
    "coalesce",
    "intersect",
    "hash_join",
    "outer_join",
    "hash_merge",
    "fresh_rows",
    "restrict_chunk",
    "project_chunk",
]

DataRow = Tuple[Any, ...]

#: The largest product :func:`product` builds, in cells; bigger operands are
#: refused with the estimate instead of exhausting memory.
MAX_PRODUCT_CELLS = 10**8


def _build_deduped(heading: Heading, data_columns: Sequence[Sequence[Any]],
                   tag_columns: Sequence[Sequence[int]], pool) -> ColumnarRelation:
    """Assemble a relation from freshly built columns, collapsing exact
    duplicates (equal data and tags) in first-seen order."""
    return _from_keys(heading, dict.fromkeys(zip(zip(*data_columns), zip(*tag_columns))), pool)


def _repeats(data_columns: Sequence[Sequence[Any]]) -> bool:
    """Whether two data rows are equal.  A first column with no repeated
    value proves they are not in one pass over single values; otherwise
    one ``set`` of the rows decides."""
    rows = len(data_columns[0])
    return len(set(data_columns[0])) != rows and len(set(zip(*data_columns))) != rows


def _assembled(heading: Heading, data_columns: Sequence[Sequence[Any]],
               tag_columns: Sequence[Sequence[int]], pool) -> ColumnarRelation:
    """:func:`_build_deduped`, run only when two rows agree in data
    (:func:`_repeats`): rows distinct in data cannot be exact duplicates."""
    if _repeats(data_columns):
        return _build_deduped(heading, data_columns, tag_columns, pool)
    return ColumnarRelation(
        heading, tuple(map(tuple, data_columns)), tuple(map(tuple, tag_columns)), pool
    )


def _picker(rows: Sequence[int]) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
    """A gather of ``rows``, in that order, from any column: built once,
    then one C-level ``itemgetter`` call per column."""
    if len(rows) > 1:
        return itemgetter(*rows)
    return lambda column: tuple(column[row] for row in rows)


def _merge_rows_by_data(
    pool,
    degree: int,
    row_iterables,
) -> Tuple[List[DataRow], List[List[int]]]:
    """Group rows by data portion, merging tag ids attribute-wise.

    The shared core of Project and Union (paper, §II): tuples agreeing on
    their data portion collapse to one tuple whose tag sets are the
    attribute-wise union — here a memoized ``pool.merge`` per attribute.
    """
    merge = pool.merge
    index: dict[DataRow, int] = {}
    out_data: List[DataRow] = []
    out_tags: List[List[int]] = []
    for rows in row_iterables:
        for data_row, tag_row in rows:
            at = index.get(data_row)
            if at is None:
                index[data_row] = len(out_data)
                out_data.append(data_row)
                out_tags.append(list(tag_row))
            else:
                existing = out_tags[at]
                for position in range(degree):
                    existing[position] = merge(existing[position], tag_row[position])
    return out_data, out_tags


def _rows(store: ColumnarRelation):
    return zip(store.data_rows(), store.tag_rows())


def project(store: ColumnarRelation, positions: Sequence[int], heading: Heading) -> ColumnarRelation:
    """``p[X]`` — gather the selected columns, dedup on data, merge tags.
    When no two picked data rows are equal (:func:`_repeats`), the picked
    columns are the answer as they stand."""
    pool = store.pool
    data = tuple(store.columns[i] for i in positions)
    tags = tuple(store.tags[i] for i in positions)
    if not _repeats(data):
        return ColumnarRelation(heading, data, tags, pool)
    out_data, out_tags = _merge_rows_by_data(
        pool, len(positions), [zip(zip(*data), zip(*tags))]
    )
    return ColumnarRelation.from_row_major(heading, out_data, out_tags, pool)


def product(s1: ColumnarRelation, s2: ColumnarRelation, heading: Heading) -> ColumnarRelation:
    """``p1 × p2`` — column replication; no per-cell tag work at all."""
    n1, n2 = s1.cardinality, s2.cardinality
    cells = n1 * n2 * (s1.degree + s2.degree)
    if cells > MAX_PRODUCT_CELLS:
        raise InvalidOperandError(
            f"product of {n1} × {n2} tuples would build {cells:,} cells "
            f"(limit {MAX_PRODUCT_CELLS:,})"
        )
    s2 = s2.translated(s1.pool)
    left_data = tuple(
        tuple(value for value in column for _ in range(n2)) for column in s1.columns
    )
    left_tags = tuple(
        tuple(tag for tag in column for _ in range(n2)) for column in s1.tags
    )
    right_data = tuple(column * n1 for column in s2.columns)
    right_tags = tuple(column * n1 for column in s2.tags)
    return ColumnarRelation(
        heading, left_data + right_data, left_tags + right_tags, s1.pool
    )


#: θ's operator: ``theta.evaluate`` wherever :func:`_survivors` applies it.
_COMPARE = {Theta.EQ: eq, Theta.NE: ne, Theta.LT: lt, Theta.LE: le, Theta.GT: gt, Theta.GE: ge}


def _survivors(theta: Theta, x_data: Sequence[Any], y_data: Optional[Sequence[Any]],
               literal: Any) -> List[int]:
    """The rows where ``x θ y`` holds, ``y`` a column or else ``literal``.
    With no nil compared and, under an ordering, one comparable type (one
    type, or ``int`` and ``float``), one C-level ``map`` of θ's operator
    decides; any other input runs ``theta.evaluate`` row by row, so an
    :class:`~repro.errors.IncomparableTypesError` is raised at the same row."""
    types = set(map(type, x_data))
    types.update(map(type, y_data) if y_data is not None else (type(literal),))
    compared = repeat(literal) if y_data is None else y_data
    if type(None) not in types and (
        theta in (Theta.EQ, Theta.NE) or len(types) == 1 or types <= {int, float}
    ):
        return list(compress(count(), map(_COMPARE[theta], x_data, compared)))
    evaluate = theta.evaluate
    return [row for row, (x, y) in enumerate(zip(x_data, compared)) if evaluate(x, y)]


def restrict(
    store: ColumnarRelation,
    x_pos: int,
    theta: Theta,
    y_pos: Optional[int],
    literal: Any,
) -> ColumnarRelation:
    """``p[x θ y]`` — filter on the data columns (:func:`_survivors`),
    gather the surviving rows (none when every row passes: the columns are
    reused), then push the compared cells' origins into every surviving
    cell's intermediate set: one :func:`_stamp` lookup per cell, resolved
    once per distinct (tag, x tag[, y tag]).  A literal contributes no
    sources."""
    y_data = None if y_pos is None else store.columns[y_pos]
    data, tags = _kept(store, _survivors(theta, store.columns[x_pos], y_data, literal))
    compared = [tags[x_pos]] if y_pos is None else [tags[x_pos], tags[y_pos]]
    stamped = _stamp(store.pool, compared, tags)
    return _assembled(store.heading, data, stamped, store.pool)


def fresh_rows(store: ColumnarRelation, seen: dict) -> ColumnarRelation:
    """Cross-chunk deduplication: keep rows whose data portion is new.

    ``seen`` is caller-owned state mapping data rows already emitted by
    earlier chunks to ``None``; kept rows are recorded into it.  Dropping a
    repeat *by data portion alone* is exact only under the streaming-spine
    invariant — equal data rows carry equal tag rows at every spine stage —
    which :mod:`repro.pqp.stream` establishes before routing a plan here.
    """
    if not store.cardinality:
        return store
    keep: List[int] = []
    for i, data_row in enumerate(store.data_rows()):
        if data_row not in seen:
            seen[data_row] = None
            keep.append(i)
    if len(keep) == store.cardinality:
        return store
    return store.take_rows(keep)


def restrict_chunk(
    store: ColumnarRelation,
    x_pos: int,
    theta: Theta,
    y_pos: Optional[int],
    literal: Any,
    seen: dict,
) -> ColumnarRelation:
    """Chunk-wise ``p[x θ y]``: restrict one arriving chunk, then drop rows
    earlier chunks of the same stream already produced (see
    :func:`fresh_rows` for the exactness argument)."""
    return fresh_rows(restrict(store, x_pos, theta, y_pos, literal), seen)


def project_chunk(
    store: ColumnarRelation,
    positions: Sequence[int],
    heading: Heading,
    seen: dict,
) -> ColumnarRelation:
    """Chunk-wise ``p[X]``: project one arriving chunk, then drop rows
    earlier chunks already produced.  Projection merges tags of rows that
    collapse onto one data portion; under the spine invariant those tags
    are identical, so within-chunk merging plus cross-chunk dropping equals
    whole-relation projection."""
    return fresh_rows(project(store, positions, heading), seen)


def union(s1: ColumnarRelation, s2: ColumnarRelation) -> ColumnarRelation:
    """``p1 ∪ p2`` — merge by data portion with attribute-wise tag union."""
    s2 = s2.translated(s1.pool)
    out_data, out_tags = _merge_rows_by_data(
        s1.pool, s1.degree, [_rows(s1), _rows(s2)]
    )
    return ColumnarRelation.from_row_major(s1.heading, out_data, out_tags, s1.pool)


def difference(s1: ColumnarRelation, s2: ColumnarRelation) -> ColumnarRelation:
    """``p1 − p2`` — anti-join on data; ``p2(o)`` becomes an intermediate
    source of every surviving cell.  Survivors are gathered as Restrict
    gathers them, and stamped from one table over their distinct tags:
    the mediators are one relation-wide set."""
    excluded = set(zip(*s2.columns))
    absent = map(not_, map(excluded.__contains__, zip(*s1.columns)))
    data, tags = _kept(s1, list(compress(count(), absent)))
    add, mediators = s1.pool.add_intermediates, s2.all_origins()
    table = {tag: add(tag, mediators) for tag in set().union(*tags)}
    stamped = [tuple(map(table.__getitem__, column)) for column in tags]
    return _assembled(s1.heading, data, stamped, s1.pool)


def _fold(
    pool,
    policy: ConflictPolicy,
    data: List[Any],
    tags: List[int],
    positions: Iterable[int],
    y_data: Iterable[Any],
    y_tags: Iterable[int],
) -> List[int]:
    """Coalesce cells into accumulators (paper, §II): each ``y`` cell folds
    in place into ``data``/``tags`` at the matching ``positions`` entry.
    Equal data union their tags, a nil side yields the other side verbatim,
    and conflicting data are settled by ``policy``.  The one cell fold
    behind :func:`coalesce` (a column pair), Merge's column path (an
    operand's column into its partitions) and its row path (a row pair).

    Returns the positions of the conflicts ``DROP`` or ``ERROR`` must act
    on, in ``positions`` order, their accumulators left as they were.
    """
    merge = pool.merge
    absorb = pool.absorb
    merged: Dict[Tuple[int, int], int] = {}  # pool.merge, minus the call
    prefer_left = policy is ConflictPolicy.PREFER_LEFT
    prefer_right = policy is ConflictPolicy.PREFER_RIGHT
    conflicts: List[int] = []
    for at, y_datum, y_tag in zip(positions, y_data, y_tags):
        x_datum = data[at]
        if x_datum == y_datum:
            x_tag = tags[at]
            if x_tag != y_tag:
                tag = merged.get((x_tag, y_tag))
                if tag is None:
                    tag = merged[x_tag, y_tag] = merge(x_tag, y_tag)
                tags[at] = tag
        elif y_datum is None:
            continue
        elif x_datum is None:
            data[at] = y_datum
            tags[at] = y_tag
        elif prefer_left:
            tags[at] = absorb(tags[at], y_tag)
        elif prefer_right:
            data[at] = y_datum
            tags[at] = absorb(y_tag, tags[at])
        else:
            conflicts.append(at)
    return conflicts


def coalesce(
    store: ColumnarRelation,
    x_pos: int,
    y_pos: int,
    heading: Heading,
    attribute: str,
    policy: ConflictPolicy,
) -> ColumnarRelation:
    """``p[x © y : w]`` — fold ``y``'s column into ``x``'s, at ``x``'s position."""
    data, tags = list(store.columns[x_pos]), list(store.tags[x_pos])
    y_data = store.columns[y_pos]
    conflicts = _fold(
        store.pool, policy, data, tags, range(store.cardinality), y_data, store.tags[y_pos]
    )
    if conflicts:
        if policy is ConflictPolicy.ERROR:
            first = conflicts[0]
            raise CoalesceConflictError(data[first], y_data[first], attribute)
        dropped = set(conflicts)  # DROP discards the conflicting rows
        survivors = [i for i in range(store.cardinality) if i not in dropped]
        store = store.take_rows(survivors)
        data = [data[i] for i in survivors]
        tags = [tags[i] for i in survivors]
    data_columns: List[Sequence[Any]] = list(store.columns)
    tag_columns: List[Sequence[Any]] = list(store.tags)
    data_columns[x_pos], tag_columns[x_pos] = data, tags
    del data_columns[y_pos], tag_columns[y_pos]
    return _assembled(heading, data_columns, tag_columns, store.pool)


def intersect(s1: ColumnarRelation, s2: ColumnarRelation) -> ColumnarRelation:
    """``p1 ∩ p2`` — closed form of "the project of a join over all the
    attributes" (paper, §II), on interned ids throughout."""
    pool = s1.pool
    s2 = s2.translated(pool)
    merge = pool.merge
    add = pool.add_intermediates
    origins = pool.origins
    degree = s1.degree

    right_index: dict[DataRow, List[int]] = {}
    for data_row, tag_row in _rows(s2):
        existing = right_index.get(data_row)
        if existing is None:
            right_index[data_row] = list(tag_row)
        else:
            for position in range(degree):
                existing[position] = merge(existing[position], tag_row[position])

    origins_memo: dict[tuple, SourceSet] = {}

    def row_origins(tag_row) -> SourceSet:
        key = tuple(tag_row)
        found = origins_memo.get(key)
        if found is None:
            out: frozenset[str] = frozenset()
            for tag in key:
                out |= origins(tag)
            found = origins_memo[key] = out
        return found

    index: dict[DataRow, int] = {}
    out_data: List[DataRow] = []
    out_tags: List[List[int]] = []
    for data_row, tag_row in _rows(s1):
        other = right_index.get(data_row)
        if other is None:
            continue
        mediators = row_origins(tag_row) | row_origins(other)
        combined = [
            add(merge(mine, theirs), mediators)
            for mine, theirs in zip(tag_row, other)
        ]
        at = index.get(data_row)
        if at is None:
            index[data_row] = len(out_data)
            out_data.append(data_row)
            out_tags.append(combined)
        else:
            existing = out_tags[at]
            for position in range(degree):
                existing[position] = merge(existing[position], combined[position])
    return ColumnarRelation.from_row_major(s1.heading, out_data, out_tags, pool)


class _Stamps(dict):
    """(tag, key tag, key tag, …) → the tag whose intermediates gained the
    key tags' origins, resolved on first sight; looked up through ``map``,
    so a cell seen before costs one C-level dict probe."""

    def __init__(self, pool) -> None:
        super().__init__()
        self.add = pool.add_intermediates
        self.origins = pool.origins

    def __missing__(self, cell: Tuple[int, ...]) -> int:
        tag, *keys = cell
        stamped = self[cell] = self.add(tag, EMPTY_SOURCES.union(*map(self.origins, keys)))
        return stamped


def _stamp(
    pool, key_tags: Sequence[Sequence[int]], tag_columns: Sequence[Sequence[int]]
) -> List[tuple]:
    """The mediator stamp: each cell's intermediates gain the union of its
    row's key cells' origins (``key_tags``, one column per key cell) — on
    an empty cell, the nil pad carrying them.  One table lookup per cell,
    resolved once per distinct (tag, key tags)."""
    stamped = _Stamps(pool)
    return [tuple(map(stamped.__getitem__, zip(column, *key_tags))) for column in tag_columns]


def _pairs(
    left_keys: Sequence[Any], right_keys: Sequence[Any], outer: bool
) -> Tuple[Sequence[int], Sequence[int]]:
    """Per output row, its row in each operand, in the order of
    ``restrict(product(s1, s2), x = y)``: left rows in order, each followed
    by its matches in right row order.  ``outer`` also keeps each left row
    with no match, paired with -1 (a nil pad), and then each unmatched
    right row, paired with -1 on the left.

    When the right keys are unique, each left key is one C-level probe of
    a key → row dict; a repeated right key falls back to :func:`buckets`."""
    ids: Dict[Any, int] = dict(zip(right_keys, count()))
    nils = right_keys.count(None) if None in ids else 0
    ids.pop(None, None)  # a nil or NaN key matches nothing
    if len(ids) + nils == len(right_keys):
        at = list(map(ids.get, left_keys, repeat(-1)))
        if outer or -1 not in at:
            left_rows, right_rows = [*range(len(at))], at
        else:
            hit = list(map((-1).__lt__, at))  # -1 < row: a match
            left_rows, right_rows = list(compress(count(), hit)), list(compress(at, hit))
    else:
        index = buckets(right_keys)
        left_rows, right_rows = [], []
        for row, key in enumerate(left_keys):
            matches = index.get(key)
            if matches:
                left_rows += repeat(row, len(matches))
                right_rows += matches
            elif outer:
                left_rows.append(row)
                right_rows.append(-1)
    if outer:
        unmatched = list(filterfalse(set(right_rows).__contains__, range(len(right_keys))))
        left_rows += repeat(-1, len(unmatched))
        right_rows += unmatched
    return left_rows, right_rows


def _gathered(store: ColumnarRelation, rows: Sequence[int], padded: bool) -> Tuple[list, list]:
    """``store``'s data and tag columns at ``rows``, one ``itemgetter`` per
    column; when ``padded``, row -1 is a nil cell with the empty tag."""
    pick = _picker(rows)
    if not padded:
        return list(map(pick, store.columns)), list(map(pick, store.tags))
    empty = store.pool.EMPTY_ID
    return (
        [pick((*column, None)) for column in store.columns],
        [pick((*column, empty)) for column in store.tags],
    )


def _kept(store: ColumnarRelation, rows: List[int]) -> Tuple[Sequence, Sequence]:
    """``store``'s data and tag columns at ``rows``, some of its rows in
    order: gathered, or the columns as they are when that is every row."""
    if len(rows) == store.cardinality:
        return store.columns, store.tags
    return _gathered(store, rows, False)


def _equijoin(
    s1: ColumnarRelation,
    s2: ColumnarRelation,
    heading: Heading,
    left_pos: Sequence[int],
    right_pos: Sequence[int],
    outer: bool,
) -> ColumnarRelation:
    """Match rows on key data (:func:`_pairs`), gather both operands'
    columns at the matched rows, and stamp every cell with the union of
    its row's key cells' origins: one table lookup per cell, resolved once
    per distinct (tag, key tags).  ``outer`` also keeps the unmatched rows
    of both sides; a nil pad is an empty-tag cell and a missing key cell
    has no origins, so the stamp gives each such row its own key cells'
    origins and its pads the nil cell carrying them (Table A4).  Exact
    duplicates collapse; that needs a pass only when two rows agree in
    data, which one ``set`` of the data rows decides."""
    pool = s1.pool
    s2 = s2.translated(pool)
    left_rows, right_rows = _pairs(key_data(s1, left_pos), key_data(s2, right_pos), outer)
    left_data, left_tags = _gathered(s1, left_rows, outer)
    right_data, right_tags = _gathered(s2, right_rows, outer)
    key_tags = [left_tags[at] for at in left_pos] + [right_tags[at] for at in right_pos]
    tags = _stamp(pool, key_tags, left_tags + right_tags)
    return _assembled(heading, left_data + right_data, tags, pool)


def hash_join(
    s1: ColumnarRelation,
    s2: ColumnarRelation,
    heading: Heading,
    left_pos: Sequence[int],
    right_pos: Sequence[int],
) -> ColumnarRelation:
    """Inner equijoin: exactly ``restrict(product(s1, s2), x = y)`` — the
    same rows, row order and tags — without forming the product.  Unique
    right keys cost one C-level probe per left row; matched rows are
    gathered one ``itemgetter`` per column, and each tag is one lookup in
    :func:`_stamp`'s table (see :func:`_equijoin`)."""
    return _equijoin(s1, s2, heading, left_pos, right_pos, outer=False)


def outer_join(
    s1: ColumnarRelation,
    s2: ColumnarRelation,
    heading: Heading,
    left_pos: Sequence[int],
    right_pos: Sequence[int],
) -> ColumnarRelation:
    """Outer equijoin with Table A4 tag semantics (see
    :func:`repro.core.derived.outer_join` for the full contract)."""
    return _equijoin(s1, s2, heading, left_pos, right_pos, outer=True)


def _uniform_tags(stores, names) -> Optional[List[List[int]]]:
    """Per operand, per output attribute, the one tag id its column holds
    (the empty tag for an empty operand); ``None`` when an operand lacks
    an attribute or a column holds two ids."""
    per_operand = []
    for store in stores:
        own = dict(zip(store.heading.attributes, store.tags))
        if len(own) != len(names):
            return None
        tags = [own[name] for name in names]
        if any(column.count(column[0]) != len(column) for column in tags if column):
            return None
        per_operand.append([column[0] if column else store.pool.EMPTY_ID for column in tags])
    return per_operand


def _agreed_columns(stores, names, parts) -> Optional[Tuple[List[list], List[int]]]:
    """The output data of operands whose keys are unique and non-nil
    (``parts`` from :func:`_unique_partitions`), and each partition's
    contributors as a bitmask (bit *j*: operand *j* has a row there);
    ``None`` at the first shared cell that differs under ``==`` from the
    cell already there — a NaN included, so the fold would act on it.
    Partitions number in first-encounter order, so the data are operand
    0's columns, then each later operand's rows that open a partition, in
    row order."""
    data = [list(column) for column in stores[0].columns]
    masks = [1] * len(parts[0])
    for operand in range(1, len(stores)):
        at, bit, opened = parts[operand], 1 << operand, len(masks)
        shared = list(compress(count(), map(opened.__gt__, at)))
        pick_shared = _picker(shared)
        met = pick_shared(at)
        pick_met = _picker(met)
        own = dict(zip(stores[operand].heading.attributes, stores[operand].columns))
        columns = [own[name] for name in names]
        if not all(
            all(map(eq, pick_met(have), pick_shared(column)))
            for have, column in zip(data, columns)
        ):
            return None
        for part in met:
            masks[part] |= bit
        fresh = list(compress(count(), map(opened.__le__, at)))
        pick_fresh = _picker(fresh)
        masks += repeat(bit, len(fresh))
        for have, column in zip(data, columns):
            have += pick_fresh(column)
    return data, masks


def _tag_tables(pool, tags, masks, key_positions) -> List[Tuple[int, ...]]:
    """Per output attribute, the tag column of uniformly tagged operands
    (``tags``, from :func:`_uniform_tags`).  A partition's cell is the
    fold of its contributors' tags, stamped with the union of its key
    cells' origins: a function of its contributor mask alone, so each
    distinct mask is resolved once into a table, read per partition."""
    merge, origins, add = pool.merge, pool.origins, pool.add_intermediates
    tables: List[Dict[int, int]] = [{} for _ in tags[0]]
    for mask in set(masks):
        contributors = [own for operand, own in enumerate(tags) if mask >> operand & 1]
        merged = [reduce(merge, column) for column in zip(*contributors)]
        mediators = EMPTY_SOURCES.union(*(origins(merged[at]) for at in key_positions))
        for table, tag in zip(tables, merged):
            table[mask] = add(tag, mediators)
    pick = _picker(masks)
    return [pick(table) for table in tables]


def _aligned_merge(stores, heading, key, parts) -> Optional[ColumnarRelation]:
    """The gather path: Merge without a fold, when every operand carries
    every attribute with one tag id per column, its keys are unique and
    non-nil (``parts`` from :func:`_unique_partitions`), and shared cells
    agree.  Then each cell keeps its first contributor's datum and its tag
    depends only on which operands contribute; keys are unique per
    partition, so nothing collapses.  ``None`` for any other input."""
    names = heading.attributes
    tags = _uniform_tags(stores, names)
    if tags is None:
        return None
    agreed = _agreed_columns(stores, names, parts)
    if agreed is None:
        return None
    data, masks = agreed
    pool = stores[0].pool
    tag_columns = _tag_tables(pool, tags, masks, [names.index(name) for name in key])
    return ColumnarRelation(heading, tuple(map(tuple, data)), tuple(tag_columns), pool)


def _unique_partitions(keyed: Sequence[List[Any]]) -> Optional[Tuple[List[Sequence[int]], int]]:
    """:func:`_partitions`' answer when every operand's keys are unique and
    non-nil, from C-level passes: per operand, each row's partition, in
    first-encounter order (the first operand's map is a ``range``), and
    the partition count.  ``None`` for any other input.  The gather path
    and, when it declines, the fold both read it."""
    first = keyed[0]
    ids: Dict[Any, int] = dict(zip(first, count()))
    if len(ids) != len(first):
        return None
    parts: List[Sequence[int]] = [range(len(first))]
    for keys in keyed[1:]:
        ids.update(zip(filterfalse(ids.__contains__, keys), count(len(ids))))
        at = list(map(ids.__getitem__, keys))
        if len(set(at)) != len(at):
            return None
        parts.append(at)
    if None in ids:
        return None
    return parts, len(ids)


def _partitions(keyed: Sequence[List[Any]]) -> Tuple[List[Sequence[int]], int, set]:
    """Per operand, each row's partition; the partition count; and the
    partitions some operand has two rows in.  Keyed partitions number in
    first-encounter order; each row with a nil or NaN in its key (it
    matches nothing) is one more, in operand and row order.  When the first
    operand's keys are unique and non-nil, its rows are partitions 0, 1, …
    and its map is that ``range``."""
    ids: Dict[Any, int] = dict(zip(keyed[0], count()))
    identity = len(ids) == len(keyed[0]) and None not in ids
    if not identity:
        ids = {}
    listed = [
        [None if key is None else ids.setdefault(key, len(ids)) for key in keys]
        for keys in (keyed[1:] if identity else keyed)
    ]
    loners = count(len(ids))
    listed = [[next(loners) if at is None else at for at in part] if None in part else part
              for part in listed]
    repeated: set = set()
    for part in listed:
        if len(set(part)) < len(part):
            seen: set = set()
            for at in part:
                (repeated if at in seen else seen).add(at)
    parts = [range(len(keyed[0])), *listed] if identity else listed
    return parts, next(loners), repeated


def _fold_columns(stores, parts, size, names, policy) -> Tuple[list, list, set]:
    """The column path: per output attribute, a ``data`` and a ``tags``
    accumulator indexed by partition, into which each operand carrying the
    attribute folds its rows in place, in operand order.  A partition the
    operand has no row in is not visited: a missing row is a nil cell with
    the empty tag, which the fold passes over.  Returns the accumulators
    and the partitions with a conflict ``DROP`` or ``ERROR`` must act on,
    left for the row path."""
    pool = stores[0].pool
    conflicted: set = set()
    data_columns, tag_columns = [], []
    owned = [dict(zip(s.heading, zip(s.columns, s.tags))) for s in stores]
    for name in names:
        data = None
        for own, part in zip(owned, parts):
            if name not in own:
                continue
            column, column_tags = own[name]
            if data is None:
                if type(part) is range:  # the first operand's rows, in place
                    pad = size - len(column)
                    data = [*column, *repeat(None, pad)]
                    tags = [*column_tags, *repeat(pool.EMPTY_ID, pad)]
                    continue
                data, tags = [None] * size, [pool.EMPTY_ID] * size
            conflicted.update(_fold(pool, policy, data, tags, part, column, column_tags))
        data_columns.append(data)
        tag_columns.append(tags)
    return data_columns, tag_columns, conflicted


def _row_groups(stores, names, key, parts, rerun) -> Dict[int, Dict[int, list]]:
    """Per ``rerun`` partition, in order: operand → its rows there, as
    partials — (full-width data, full-width raw tags, key-cell origins),
    where an attribute the operand lacks is a nil cell with the empty tag."""
    groups: Dict[int, Dict[int, list]] = {at: {} for at in sorted(rerun)}
    for operand, (store, part) in enumerate(zip(stores, parts)):
        rows = [row for row, at in enumerate(part) if at in groups]
        if not rows:
            continue
        sources = key_origins(store, store.heading.indices(key), rows)
        nil = ([None] * len(part), [store.pool.EMPTY_ID] * len(part))
        own = dict(zip(store.heading.attributes, zip(store.columns, store.tags)))
        data, tags = zip(*(own.get(name, nil) for name in names))
        for row, extra in zip(rows, sources):
            partial = tuple(column[row] for column in data), tuple(
                column[row] for column in tags), extra
            groups[part[row]].setdefault(operand, []).append(partial)
    return groups


def _merge_partition(pool, policy, names, groups) -> list:
    """The row path: one partition's partials, grouped by operand in
    operand order, folded as the fold does — each accumulated partial
    crossed with the operand's rows and coalesced under ``policy``."""
    positions = range(len(names))

    def coalesce_pair(acc, row) -> Optional[Tuple[list, list, SourceSet]]:
        """One accumulated partial × one operand row, attribute-wise
        coalesce on raw tags; ``None`` when the ``DROP`` policy kills it."""
        data, tags = list(acc[0]), list(acc[1])
        conflicts = _fold(pool, policy, data, tags, positions, row[0], row[1])
        if not conflicts:
            return data, tags, acc[2] | row[2]
        if policy is ConflictPolicy.ERROR:
            first = conflicts[0]
            raise CoalesceConflictError(data[first], row[0][first], names[first])
        return None

    accumulated: List[Tuple[Sequence, Sequence, SourceSet]] = []
    for contributed in groups:
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
    return accumulated


def hash_merge(
    stores: Sequence[ColumnarRelation],
    key: Sequence[str],
    policy: ConflictPolicy,
) -> ColumnarRelation:
    """N-way Merge as a hash partition on the key columns.

    The fold of Outer Natural Total Joins (:func:`repro.core.derived.merge`)
    re-joins the accumulated result against each operand; since the fold
    order is immaterial (paper, §II), one pass over partitions — the rows
    sharing key data, by the key index (:mod:`repro.storage.keyed`) — gives
    the same answer.  A partition's cells fold operand by operand, in
    operand order, through Coalesce's cell fold; then each output cell is
    stamped once with the partition's mediators, the union of its rows'
    key-cell origins (the fold adds them per join; the union is the same),
    and an attribute no row supplied becomes the nil pad carrying them.

    Three paths give that answer, chosen from the input:

    - **gather path**, for the whole Merge, when every operand carries
      every attribute with one tag id per column (a shipped local
      relation is tagged ``({LD}, {})`` throughout), its keys are unique
      and non-nil, and wherever operands share a key their cells are
      equal under ``==`` (a NaN is not).  Then nothing folds: the data
      are operand 0's columns followed by each later operand's rows that
      open a partition, gathered, and a cell's tag is a function of which
      operands have a row in its partition — one table per attribute,
      resolved once per distinct set of contributors, read per partition.
      Whether keys are unique and non-nil is settled first, by
      :func:`_unique_partitions`, whose partition map a declined input's
      fold reads too;
    - **column path**, per partition, when every operand has at most one
      row there: per output attribute, each operand's rows fold in place
      into partition-indexed accumulators, and the stamp is resolved once
      per distinct (tag, key tag) pair;
    - **row path**, for the fold's general semantics: a key repeated in an
      operand crosses every accumulated partial with every matching row,
      and under ``DROP``, once every pairing dies at operand *j*, operand
      *j+1*'s rows re-enter as fresh partials, as in the emptied fold.  A
      partition with a repeated key, or with a conflict ``DROP`` or
      ``ERROR`` must act on, is re-run row at a time.  Only its rows'
      key-cell origins are ever computed.

    Output order: partitions in first-encounter order across the operands,
    then rows with a nil or NaN in their key (they match nothing; each is
    mediated by its own key-cell origins), in operand and row order; exact
    duplicates collapse.  Under ``ERROR`` the first conflicting partition
    raises.  ``tests/property/test_hash_merge.py`` holds this equal to the
    fold (as bags) and to the all-rows kernel it replaced (row for row).
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

    keyed = [key_data(store, store.heading.indices(key)) for store in translated]
    unique = _unique_partitions(keyed)
    if unique is None:
        parts, size, repeated = _partitions(keyed)
    else:
        parts, size = unique
        aligned = _aligned_merge(translated, heading, key, parts)
        if aligned is not None:
            return aligned
        repeated = set()
    data_columns, tag_columns, conflicted = _fold_columns(
        translated, parts, size, names, policy
    )
    # The fold merged each partition's key cells, so the key columns carry
    # the union of its rows' key-cell origins.
    tag_columns = _stamp(
        pool, [tag_columns[names.index(name)] for name in key], tag_columns
    )

    rerun = repeated | conflicted
    if rerun:
        add = pool.add_intermediates
        merged = [[row] for row in zip(zip(*data_columns), zip(*tag_columns))]
        for at, groups in _row_groups(translated, names, key, parts, rerun).items():
            merged[at] = [
                (tuple(data), tuple(map(add, tags, repeat(extra))))
                for data, tags, extra
                in _merge_partition(pool, policy, names, list(groups.values()))
            ]
        rows = [row for group in merged for row in group]
        data_columns = _transpose([data for data, _ in rows], len(names))
        tag_columns = _transpose([tags for _, tags in rows], len(names))
    elif not any(None in keys for keys in keyed):
        # Each row is the one row of a keyed partition, and partitions differ
        # in key data: there are no duplicates to collapse.
        data_columns, tag_columns = map(tuple, data_columns), map(tuple, tag_columns)
        return ColumnarRelation(heading, tuple(data_columns), tuple(tag_columns), pool)
    return _assembled(heading, data_columns, tag_columns, pool)
