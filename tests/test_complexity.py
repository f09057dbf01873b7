"""The McCabe ceiling CI's ``ruff check --select C901`` step enforces.

ruff is not always installed where the tier-1 suite runs, so this test
recounts the same number with :mod:`ast`, over the same files: the path
list is read from the CI workflow and the ceiling from ``pyproject.toml``,
so neither can drift from what CI checks.  The count is ruff's: 1 per
function, +1 per ``if``/``elif``, loop, ``except``, ``try``-``else``,
``match`` case and nested function; ``else``, ``with`` and boolean
operators add nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ci_paths():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    command = re.search(r"ruff check --select C901((?:\s+\\?\s*src/\S+)+)", workflow)
    assert command, "CI's C901 step not found"
    return re.findall(r"src/\S+\.py", command.group(1))


def _ceiling() -> int:
    # A regex, not tomllib: the suite also runs on Python 3.10.
    config = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[tool\.ruff\.lint\.mccabe\]$(.*?)(?=^\[|\Z)", config, re.M | re.S)
    assert section, "pyproject.toml has no [tool.ruff.lint.mccabe] table"
    ceiling = re.search(r"^max-complexity\s*=\s*(\d+)\s*$", section.group(1), re.M)
    assert ceiling, "[tool.ruff.lint.mccabe] sets no max-complexity"
    return int(ceiling.group(1))


def _branches(statements) -> int:
    count = 0
    for node in statements:
        if isinstance(node, ast.If):
            count += 1 + _branches(node.body) + _branches(node.orelse)
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            count += 1 + _branches(node.body) + _branches(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            count += _branches(node.body)
        elif isinstance(node, ast.Try):
            count += _branches(node.body) + _branches(node.orelse)
            count += _branches(node.finalbody) + bool(node.orelse)
            for handler in node.handlers:
                count += 1 + _branches(handler.body)
        elif isinstance(node, ast.Match):
            for case in node.cases:
                count += 1 + _branches(case.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += 1 + _branches(node.body)
        elif isinstance(node, ast.ClassDef):
            count += _branches(node.body)
    return count


def complexity(function) -> int:
    return 1 + _branches(function.body)


def _functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def test_ci_path_list_stays_under_the_ceiling():
    ceiling = _ceiling()
    paths = _ci_paths()
    assert "src/repro/pqp/optimizer.py" in paths
    over = []
    for path in paths:
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        for function in _functions(tree):
            if complexity(function) > ceiling:
                over.append(f"{path}:{function.lineno} {function.name} {complexity(function)}")
    assert not over, f"over the C901 ceiling of {ceiling}:\n" + "\n".join(over)


def test_the_count_is_ruffs():
    source = '''
def f(x):
    if x:
        pass
    elif x > 1:
        pass
    else:
        pass
    for _ in x:
        while x:
            pass
    try:
        pass
    except ValueError:
        pass
    except TypeError:
        pass
    else:
        pass
    with x:
        if x and x:
            pass
    def g():
        if x:
            pass
    return [y for y in x if y]
'''
    (function,) = [
        node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    ]
    # 1 + if + elif + for + while + 2 excepts + try-else + with's if + g (1 + if)
    assert complexity(function) == 11
