"""The polygen algebra expression language.

The paper writes polygen algebraic expressions in a bracket notation::

    ((((PALUMNUS [DEGREE = "MBA"]) [AID# = AID#] PCAREER)
        [ONAME = ONAME] PORGANIZATION) [CEO = ANAME]) [ONAME, CEO]

:func:`parse_expression` turns such text into the expression trees of
:mod:`repro.core.expression`.  The grammar (extended beyond the paper with
set operators and Coalesce for completeness)::

    expr     := term (("UNION" | "MINUS" | "TIMES" | "INTERSECT") term)*
    term     := primary postfix*
    postfix  := "[" body "]" [primary]        -- a following primary makes a Join
    primary  := NAME | "(" expr ")"
    body     := NAME "COALESCE" NAME "AS" NAME            -- coalesce
              | NAME theta (STRING | NUMBER)              -- select
              | NAME theta NAME                           -- restrict / join
              | NAME ("," NAME)*                          -- project
    theta    := "=" | "<>" | "!=" | "<" | "<=" | ">" | ">="

:mod:`repro.algebra_lang.lexer` is the one scanner of both front-end
languages: :func:`tokenize` binds it to the algebra's punctuation and its
case-sensitive keywords, and :mod:`repro.sql.parser` binds the same
scanner to SQL's.
"""

from repro.algebra_lang.lexer import tokenize
from repro.algebra_lang.parser import parse_expression

__all__ = ["parse_expression", "tokenize"]
