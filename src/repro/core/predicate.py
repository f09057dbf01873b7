"""Comparison predicates for Restrict and Select.

The paper's Restrict takes a binary relation θ between two data values.  This
module defines the supported θ symbols and their evaluation semantics over
polygen data:

- ``nil`` never satisfies any comparison (a missing datum cannot be selected
  on — consistent with the paper's outer-join example, where nil-padded rows
  never join),
- equality is Python ``==``, so it crosses types where Python's does
  (``1``, ``True`` and ``1.0`` are equal; ``1`` and ``"1"`` are not), and
  NaN equals nothing — the same rule the key index of Join, the outer
  joins and Merge applies (:mod:`repro.storage.keyed`),
- ordering comparisons across incompatible types raise
  :class:`repro.errors.IncomparableTypesError` rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.errors import IncomparableTypesError

__all__ = ["Theta", "Comparand", "AttributeRef", "Literal", "comparand_from"]


def _comparable(a: Any, b: Any) -> bool:
    """True when ``a`` and ``b`` may be order-compared without surprises."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    numeric = (int, float)
    if isinstance(a, numeric) and isinstance(b, numeric):
        return True
    return type(a) is type(b)


class Theta(Enum):
    """The binary comparison relations accepted by Restrict/Select."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @classmethod
    def from_symbol(cls, symbol: str) -> "Theta":
        """Parse a θ symbol; ``!=`` is accepted as a synonym for ``<>``.

        >>> Theta.from_symbol("=") is Theta.EQ
        True
        >>> Theta.from_symbol("!=") is Theta.NE
        True
        """
        if symbol == "!=":
            return cls.NE
        for member in cls:
            if member.value == symbol:
                return member
        raise ValueError(f"unknown comparison operator {symbol!r}")

    @property
    def symbol(self) -> str:
        return self.value

    def evaluate(self, left: Any, right: Any) -> bool:
        """Evaluate ``left θ right`` under polygen comparison semantics."""
        if left is None or right is None:
            return False
        if self is Theta.EQ:
            return left == right
        if self is Theta.NE:
            return left != right
        if not _comparable(left, right):
            raise IncomparableTypesError(
                f"cannot order-compare {type(left).__name__} with {type(right).__name__}"
            )
        if self is Theta.LT:
            return left < right
        if self is Theta.LE:
            return left <= right
        if self is Theta.GT:
            return left > right
        return left >= right

    def flipped(self) -> "Theta":
        """The relation with operands swapped (``a θ b`` ⇔ ``b θ' a``)."""
        flips = {
            Theta.EQ: Theta.EQ,
            Theta.NE: Theta.NE,
            Theta.LT: Theta.GT,
            Theta.LE: Theta.GE,
            Theta.GT: Theta.LT,
            Theta.GE: Theta.LE,
        }
        return flips[self]


@dataclass(frozen=True, slots=True)
class AttributeRef:
    """The right-hand side of a Restrict when it names an attribute."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Literal:
    """The right-hand side of a Select: a constant datum.

    Literals carry no source tags; comparing against a literal adds only the
    *attribute's* origins to the intermediate sets (paper, §II: Select "is
    defined through Restrict" and updates ``t(i)``).
    """

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


Comparand = AttributeRef | Literal


def comparand_from(value: Any) -> Comparand:
    """Coerce plain Python values to comparands.

    Strings become :class:`AttributeRef` only when explicitly wrapped by the
    caller; this helper always treats raw values as literals, which is the
    unambiguous interpretation for programmatic use.
    """
    if isinstance(value, (AttributeRef, Literal)):
        return value
    return Literal(value)
