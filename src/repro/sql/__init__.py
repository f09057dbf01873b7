"""The SQL front-end for polygen queries.

Supports the SQL subset the paper's polygen queries use (§I, §III)::

    SELECT attr [, attr]... | *
    FROM scheme [, scheme]...
    [WHERE predicate [AND predicate]...]

    predicate := attr θ (literal | attr)
               | attr IN ( <nested SELECT> )

Keywords are case-insensitive; string literals accept double or single
quotes.  The scanner is the algebra's (:mod:`repro.algebra_lang.lexer`),
bound to SQL's punctuation and folded keywords.  :func:`parse_sql` produces the AST in :mod:`repro.sql.ast`; the
translation to polygen algebra lives in :mod:`repro.translate`; the
reverse direction — rendering LQP verbs to parameterized SQLite SQL for
pushdown into a real SQL engine — lives in :mod:`repro.sql.render`.
"""

from repro.sql.ast import ComparisonPredicate, InPredicate, SelectStatement
from repro.sql.parser import parse_sql
from repro.sql.render import render_select

__all__ = [
    "parse_sql",
    "render_select",
    "SelectStatement",
    "ComparisonPredicate",
    "InPredicate",
]
