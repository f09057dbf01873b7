"""Shared fixtures for the benchmark harness.

Every benchmark *asserts* the regenerated artifact against the paper's
printed table before timing it — a benchmark of a wrong answer is
worthless.  Run with::

    pytest benchmarks/ --benchmark-only

The ``test_bench_*`` files that measure a ratio or a wall-clock budget
(columnar, merge scaling, backends, net, stream, trace) assert their
floors in-test, so a plain ``pytest benchmarks/<file>`` fails on a
breach.  Tracking performance across commits is the end-to-end referee's
job (``benchmarks/e2e``: ``run.py`` and ``compare.py``).
"""

import pytest

from repro.algebra_lang import parse_expression
from repro.datasets.paper import (
    build_paper_federation,
    paper_polygen_schema,
)
from repro.pqp.interpreter import PolygenOperationInterpreter
from repro.pqp.syntax_analyzer import SyntaxAnalyzer

PAPER_SQL = """
SELECT ONAME, CEO
FROM PORGANIZATION, PALUMNUS
WHERE CEO = ANAME AND ONAME IN
    (SELECT ONAME FROM PCAREER WHERE AID# IN
        (SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))
"""

PAPER_ALGEBRA = (
    '((((PALUMNUS [DEGREE = "MBA"]) [AID# = AID#] PCAREER)'
    " [ONAME = ONAME] PORGANIZATION) [CEO = ANAME]) [ONAME, CEO]"
)


@pytest.fixture(scope="session")
def pqp():
    return build_paper_federation()


@pytest.fixture(scope="session")
def paper_expression():
    return parse_expression(PAPER_ALGEBRA)


@pytest.fixture(scope="session")
def paper_pom(paper_expression):
    return SyntaxAnalyzer().analyze(paper_expression)


@pytest.fixture(scope="session")
def paper_interpreter():
    return PolygenOperationInterpreter(paper_polygen_schema())


@pytest.fixture(scope="session")
def paper_iom(paper_pom, paper_interpreter):
    return paper_interpreter.interpret(paper_pom)
