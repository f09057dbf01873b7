"""Row-at-a-time reference implementations of the polygen algebra.

These are the original cell/tuple transcriptions of the paper's definitions,
preserved verbatim when the hot path moved to the columnar kernels
(:mod:`repro.storage.kernels`).  They serve two purposes:

- **differential testing** — ``tests/property`` asserts every kernel
  produces a relation equal to its reference here on random inputs,
- **benchmarking** — ``benchmarks/test_bench_columnar.py`` measures the
  columnar speedup against this path.

They are test oracles, not part of the package: production code uses
:mod:`repro.core.algebra` / :mod:`repro.core.derived`.  The outer join
states the key rule (nil and NaN keys match nothing) itself, so the oracle
does not share the code it checks (:mod:`repro.storage.keyed`).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.cell import Cell, ConflictPolicy
from repro.core.heading import Heading
from repro.core.predicate import AttributeRef, Comparand, Literal, Theta
from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple
from repro.errors import InvalidOperandError, UnionCompatibilityError

__all__ = [
    "project",
    "product",
    "restrict",
    "union",
    "difference",
    "coalesce",
    "intersect",
    "outer_join",
]


def project(p: PolygenRelation, attributes: Sequence[str]) -> PolygenRelation:
    """Reference ``p[X]`` (see :func:`repro.core.algebra.project`)."""
    if not attributes:
        raise InvalidOperandError("Project requires at least one attribute")
    positions = p.heading.indices(attributes)
    merged: dict[tuple, PolygenTuple] = {}
    for row in p:
        taken = row.take(positions)
        key = taken.data
        existing = merged.get(key)
        merged[key] = taken if existing is None else existing.merge_tags(taken)
    return PolygenRelation(Heading(attributes), merged.values())


def product(p1: PolygenRelation, p2: PolygenRelation) -> PolygenRelation:
    """Reference ``p1 × p2`` (see :func:`repro.core.algebra.product`)."""
    heading = p1.heading.concat(p2.heading)
    rows = [left.concat(right) for left in p1 for right in p2]
    return PolygenRelation(heading, rows)


def restrict(
    p: PolygenRelation,
    x: str,
    theta: Theta,
    rhs: Comparand,
) -> PolygenRelation:
    """Reference ``p[x θ y]`` (see :func:`repro.core.algebra.restrict`)."""
    x_pos = p.heading.index(x)
    if isinstance(rhs, AttributeRef):
        y_pos = p.heading.index(rhs.name)
    elif isinstance(rhs, Literal):
        y_pos = None
    else:  # pragma: no cover - guarded by type hints
        raise InvalidOperandError(f"invalid restrict comparand: {rhs!r}")

    survivors = []
    for row in p:
        x_cell = row[x_pos]
        if y_pos is None:
            right_value = rhs.value
            mediators = x_cell.origins
        else:
            y_cell = row[y_pos]
            right_value = y_cell.datum
            mediators = x_cell.origins | y_cell.origins
        if theta.evaluate(x_cell.datum, right_value):
            survivors.append(row.with_intermediates(mediators))
    return p.replace_tuples(survivors)


def _merge_by_data(groups: dict[tuple, PolygenTuple], row: PolygenTuple) -> None:
    existing = groups.get(row.data)
    groups[row.data] = row if existing is None else existing.merge_tags(row)


def union(p1: PolygenRelation, p2: PolygenRelation) -> PolygenRelation:
    """Reference ``p1 ∪ p2`` (see :func:`repro.core.algebra.union`)."""
    if p1.heading != p2.heading:
        raise UnionCompatibilityError(
            f"union operands must share a heading: "
            f"{list(p1.attributes)} vs {list(p2.attributes)}"
        )
    groups: dict[tuple, PolygenTuple] = {}
    for row in p1:
        _merge_by_data(groups, row)
    for row in p2:
        _merge_by_data(groups, row)
    return PolygenRelation(p1.heading, groups.values())


def difference(p1: PolygenRelation, p2: PolygenRelation) -> PolygenRelation:
    """Reference ``p1 − p2`` (see :func:`repro.core.algebra.difference`)."""
    if p1.heading != p2.heading:
        raise UnionCompatibilityError(
            f"difference operands must share a heading: "
            f"{list(p1.attributes)} vs {list(p2.attributes)}"
        )
    excluded = {row.data for row in p2}
    mediators = p2.all_origins()
    survivors = [
        row.with_intermediates(mediators) for row in p1 if row.data not in excluded
    ]
    return p1.replace_tuples(survivors)


def coalesce(
    p: PolygenRelation,
    x: str,
    y: str,
    w: str | None = None,
    policy: ConflictPolicy = ConflictPolicy.DROP,
) -> PolygenRelation:
    """Reference ``p[x © y : w]`` (see :func:`repro.core.algebra.coalesce`)."""
    if x == y:
        raise InvalidOperandError("coalesce requires two distinct attributes")
    if w is None:
        w = x
    x_pos = p.heading.index(x)
    y_pos = p.heading.index(y)
    heading = p.heading.replace(x, w).remove([y])

    rows = []
    for row in p:
        combined = row[x_pos].coalesce_with(row[y_pos], policy, attribute=w)
        if combined is None:  # ConflictPolicy.DROP
            continue
        cells = [
            combined if i == x_pos else cell
            for i, cell in enumerate(row)
            if i != y_pos
        ]
        rows.append(PolygenTuple(cells))
    return PolygenRelation(heading, rows)


def intersect(p1: PolygenRelation, p2: PolygenRelation) -> PolygenRelation:
    """Reference ``p1 ∩ p2`` (see :func:`repro.core.derived.intersect`)."""
    if p1.heading != p2.heading:
        raise InvalidOperandError(
            "intersection operands must share a heading"
        )
    right_by_data: dict[tuple, PolygenTuple] = {}
    for row in p2:
        existing = right_by_data.get(row.data)
        right_by_data[row.data] = row if existing is None else existing.merge_tags(row)

    merged: dict[tuple, PolygenTuple] = {}
    for row in p1:
        other = right_by_data.get(row.data)
        if other is None:
            continue
        mediators = row.origins() | other.origins()
        combined = row.merge_tags(other).with_intermediates(mediators)
        existing = merged.get(row.data)
        merged[row.data] = combined if existing is None else existing.merge_tags(combined)
    return PolygenRelation(p1.heading, merged.values())


def _key_positions(p: PolygenRelation, names: Sequence[str]) -> Tuple[int, ...]:
    if not names:
        raise InvalidOperandError("outer join requires at least one key attribute")
    return p.heading.indices(names)


def _key_data(row: PolygenTuple, positions: Sequence[int]):
    """The row's key data, or ``None`` when a component is nil or NaN (not
    equal to itself): such a key can never match."""
    data = tuple(row[i].datum for i in positions)
    unmatchable = any(value is None or value != value for value in data)
    return None if unmatchable else data


def _key_origins(row: PolygenTuple, positions: Sequence[int]):
    out: frozenset[str] = frozenset()
    for i in positions:
        out |= row[i].origins
    return out


def outer_join(
    p1: PolygenRelation,
    p2: PolygenRelation,
    key_pairs: Sequence[Tuple[str, str]],
) -> PolygenRelation:
    """Reference outer equijoin (see :func:`repro.core.derived.outer_join`)."""
    heading = p1.heading.concat(p2.heading)
    left_pos = _key_positions(p1, [left for left, _ in key_pairs])
    right_pos = _key_positions(p2, [right for _, right in key_pairs])

    right_index: dict[tuple, list[int]] = {}
    for j, row in enumerate(p2):
        key = _key_data(row, right_pos)
        if key is not None:
            right_index.setdefault(key, []).append(j)

    rows: list[PolygenTuple] = []
    matched_right: set[int] = set()
    for left_row in p1:
        key = _key_data(left_row, left_pos)
        left_sources = _key_origins(left_row, left_pos)
        matches = right_index.get(key, []) if key is not None else []
        if matches:
            for j in matches:
                right_row = p2.tuples[j]
                mediators = left_sources | _key_origins(right_row, right_pos)
                rows.append(left_row.concat(right_row).with_intermediates(mediators))
                matched_right.add(j)
        else:
            pad = PolygenTuple(Cell.nil(left_sources) for _ in p2.heading)
            rows.append(left_row.with_intermediates(left_sources).concat(pad))

    for j, right_row in enumerate(p2):
        if j in matched_right:
            continue
        right_sources = _key_origins(right_row, right_pos)
        pad = PolygenTuple(Cell.nil(right_sources) for _ in p1.heading)
        rows.append(pad.concat(right_row.with_intermediates(right_sources)))
    return PolygenRelation(heading, rows)
