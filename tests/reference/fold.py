"""Merge evaluated exactly as the paper defines it (§II): a left fold of
Outer Natural Total Joins.

:func:`repro.core.derived.merge` runs the same operator as one
hash-partitioned pass (:func:`repro.storage.kernels.hash_merge`) and must
match this fold — ``tests/property/test_hash_merge.py`` holds the two equal,
and ``benchmarks/test_bench_merge_scaling.py`` measures the hash pass against it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.cell import ConflictPolicy
from repro.core.derived import outer_natural_total_join
from repro.core.relation import PolygenRelation
from repro.errors import InvalidOperandError

__all__ = ["merge_fold"]


def merge_fold(
    relations: Iterable[PolygenRelation],
    key: Sequence[str],
    policy: ConflictPolicy = ConflictPolicy.DROP,
) -> PolygenRelation:
    """Merge as a left fold of Outer Natural Total Joins over ``relations``
    on the primary ``key``, coalescing under ``policy``."""
    operands = list(relations)
    if not operands:
        raise InvalidOperandError("merge requires at least one relation")
    for relation in operands:
        relation.heading.require(*key)
    merged = operands[0]
    key_pairs = [(name, name) for name in key]
    for relation in operands[1:]:
        merged = outer_natural_total_join(merged, relation, key_pairs, policy=policy)
    return merged
