"""The six orthogonal primitives of the polygen algebra (paper, §II).

Each function keeps the paper's set-theoretic contract, with tag propagation
handled per the definitions below; since the columnar refactor the actual
work happens batch-wise in :mod:`repro.storage.kernels`, on per-attribute
data columns and interned tag ids.  The original cell-at-a-time
transcriptions survive verbatim in ``tests/reference/rowpath.py``, and
``tests/property`` asserts both paths produce identical relations.

=================  =========================================================
Primitive          Tag behaviour
=================  =========================================================
Project            deduplicates on the *data* portion of the projected
                   columns; duplicate tuples' origin and intermediate sets
                   are unioned attribute-wise
Cartesian product  pure concatenation; no tag updates
Restrict           surviving tuples record the origins of the compared
                   cells in *every* cell's intermediate set
Union              tuples sharing a data portion across the operands are
                   merged with attribute-wise tag union
Difference         surviving left tuples record ``p2(o)`` — the union of all
                   origin sets of the subtrahend — in every intermediate set
Coalesce           folds two columns into one, unioning tags when the data
                   agree and taking the non-nil side otherwise
=================  =========================================================

Select, Join, Intersection, the outer natural joins and Merge are *derived*
operators and live in :mod:`repro.core.derived`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.cell import ConflictPolicy
from repro.core.heading import Heading
from repro.core.predicate import AttributeRef, Comparand, Literal, Theta
from repro.core.relation import PolygenRelation
from repro.errors import InvalidOperandError, UnionCompatibilityError
from repro.storage import kernels

__all__ = [
    "project",
    "product",
    "restrict",
    "union",
    "difference",
    "coalesce",
    "rename",
]


def project(p: PolygenRelation, attributes: Sequence[str]) -> PolygenRelation:
    """``p[X]`` — projection with data-portion deduplication.

    When several tuples agree on the data portion of the projected columns,
    the result contains a single tuple whose origin and intermediate sets
    are the attribute-wise union over all of them (paper, §II, *Project*).
    """
    if not attributes:
        raise InvalidOperandError("Project requires at least one attribute")
    positions = p.heading.indices(attributes)
    return PolygenRelation.from_store(
        kernels.project(p.store, positions, Heading(attributes))
    )


def product(p1: PolygenRelation, p2: PolygenRelation) -> PolygenRelation:
    """``p1 × p2`` — Cartesian product by tuple concatenation.

    Headings must be disjoint; qualify (rename) colliding attributes first.
    Tags pass through unchanged (paper: the product "does not involve
    intermediate local databases as the mediating sources").
    """
    heading = p1.heading.concat(p2.heading)
    return PolygenRelation.from_store(kernels.product(p1.store, p2.store, heading))


def restrict(
    p: PolygenRelation,
    x: str,
    theta: Theta,
    rhs: Comparand,
) -> PolygenRelation:
    """``p[x θ y]`` — selection of tuples satisfying the comparison.

    For every surviving tuple the originating sources of the compared cells
    are unioned into the intermediate set of **every** attribute:
    ``t'[w](i) = t[w](i) ∪ t[x](o) ∪ t[y](o)``.  When the right-hand side is
    a literal it contributes no sources (a constant has no origin).
    """
    x_pos = p.heading.index(x)
    if isinstance(rhs, AttributeRef):
        y_pos = p.heading.index(rhs.name)
        literal = None
    elif isinstance(rhs, Literal):
        y_pos = None
        literal = rhs.value
    else:  # pragma: no cover - guarded by type hints
        raise InvalidOperandError(f"invalid restrict comparand: {rhs!r}")
    return PolygenRelation.from_store(
        kernels.restrict(p.store, x_pos, theta, y_pos, literal)
    )


def union(p1: PolygenRelation, p2: PolygenRelation) -> PolygenRelation:
    """``p1 ∪ p2`` — union with tag merging on shared data portions.

    Operands must be union-compatible (same heading; reorder with
    :meth:`PolygenRelation.rename`/projection first if needed).  A tuple
    present (by data portion) in both operands appears once, with both
    operands' tags unioned attribute-wise (paper, §II, *Union*).
    """
    if p1.heading != p2.heading:
        raise UnionCompatibilityError(
            f"union operands must share a heading: "
            f"{list(p1.attributes)} vs {list(p2.attributes)}"
        )
    return PolygenRelation.from_store(kernels.union(p1.store, p2.store))


def difference(p1: PolygenRelation, p2: PolygenRelation) -> PolygenRelation:
    """``p1 − p2`` — difference with intermediate-source accounting.

    A tuple of ``p1`` survives when its data portion matches no tuple of
    ``p2``.  Because every tuple of ``p1`` had to be compared against *all*
    of ``p2``, the union of all of ``p2``'s originating sources, ``p2(o)``,
    is added to every surviving cell's intermediate set (paper, §II,
    *Difference*).
    """
    if p1.heading != p2.heading:
        raise UnionCompatibilityError(
            f"difference operands must share a heading: "
            f"{list(p1.attributes)} vs {list(p2.attributes)}"
        )
    return PolygenRelation.from_store(kernels.difference(p1.store, p2.store))


def coalesce(
    p: PolygenRelation,
    x: str,
    y: str,
    w: str | None = None,
    policy: ConflictPolicy = ConflictPolicy.DROP,
) -> PolygenRelation:
    """``p[x © y : w]`` — fold columns ``x`` and ``y`` into one column ``w``.

    The coalesced column takes ``x``'s position; ``y`` is removed.  Per cell
    pair: equal data (including nil/nil) union their tags; a single nil side
    yields the other side verbatim; conflicting non-nil data are resolved by
    ``policy`` (the paper's definition silently drops such tuples, which is
    the ``DROP`` default).

    Coalesce is the sixth orthogonal primitive of the polygen model; the
    outer natural joins and Merge are defined in terms of it (paper, §II).
    """
    if x == y:
        raise InvalidOperandError("coalesce requires two distinct attributes")
    if w is None:
        w = x
    x_pos = p.heading.index(x)
    y_pos = p.heading.index(y)
    heading = p.heading.replace(x, w).remove([y])
    return PolygenRelation.from_store(
        kernels.coalesce(p.store, x_pos, y_pos, heading, w, policy)
    )


def rename(p: PolygenRelation, mapping: dict[str, str]) -> PolygenRelation:
    """Attribute renaming (classical auxiliary; tags untouched).

    Not one of the paper's primitives, but required to qualify colliding
    attribute names before a Cartesian product — exactly how the executor
    implements the paper's same-named equijoins.
    """
    return p.rename(mapping)
