"""An LQP over CSV documents.

The paper's prototype wrapped radically different access interfaces —
"I.P. Sharp's proprietary query language and Finsbury's menu-driven
interface" — behind the uniform LQP contract.  :class:`CsvLQP` demonstrates
the same encapsulation for a file-ish source: relations are CSV documents
(header row + data rows), parsed once at construction; Select falls back to
scan-and-filter since the source has no query capability of its own.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Mapping, Tuple

from repro.core.predicate import Theta
from repro.errors import LocalEngineError, UnknownRelationError
from repro.lqp.base import LocalQueryProcessor
from repro.relational import algebra
from repro.relational.relation import Relation

__all__ = ["CsvLQP"]


def _convert(text: str) -> Any:
    """Best-effort typing: int, then float, then stripped string.

    Empty fields become ``None`` (missing data)."""
    stripped = text.strip()
    if not stripped:
        return None
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError:
        pass
    return stripped


class CsvLQP(LocalQueryProcessor):
    """Serves relations parsed from CSV text.

    >>> lqp = CsvLQP("XD", {"T": "A,B\\n1,x\\n2,y\\n"})
    >>> lqp.retrieve("T").rows
    ((1, 'x'), (2, 'y'))
    """

    def __init__(
        self,
        name: str,
        documents: Mapping[str, str],
        infer_types: bool = True,
    ):
        self._name = name
        self._relations: dict[str, Relation] = {}
        for relation_name, text in documents.items():
            self._relations[relation_name] = self._parse(relation_name, text, infer_types)

    def _parse(self, relation_name: str, text: str, infer_types: bool) -> Relation:
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise LocalEngineError(
                f"CSV document for {self._name}.{relation_name} is empty"
            ) from None
        rows = []
        for line in reader:
            if not line:
                continue
            if len(line) != len(header):
                raise LocalEngineError(
                    f"CSV row of width {len(line)} in "
                    f"{self._name}.{relation_name} (header width {len(header)})"
                )
            if infer_types:
                rows.append(tuple(_convert(field) for field in line))
            else:
                rows.append(tuple(field.strip() for field in line))
        return Relation([column.strip() for column in header], rows)

    @property
    def name(self) -> str:
        return self._name

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def retrieve(self, relation_name: str) -> Relation:
        try:
            return self._relations[relation_name]
        except KeyError:
            raise UnknownRelationError(relation_name, self._name) from None

    def select(self, relation_name: str, attribute: str, theta: Theta, value: Any) -> Relation:
        return algebra.select(self.retrieve(relation_name), attribute, theta, value)
