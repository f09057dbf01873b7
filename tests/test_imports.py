"""Import hygiene.

Two checks the linter in CI does not make: every import a module of
``src/repro``, ``tests``, ``benchmarks`` or ``examples`` makes is used, and
every ``repro.<package>`` can be the first ``repro`` module an interpreter
loads, so an import cycle between packages cannot hide behind the order in
which ``import repro`` happens to load them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: Every tree whose modules must use what they import.
CHECKED = (SRC, ROOT / "tests", ROOT / "benchmarks", ROOT / "examples")


def _module_name(path: Path) -> str:
    relative = path.relative_to(SRC.parent).with_suffix("")
    parts = relative.parts[:-1] if relative.name == "__init__" else relative.parts
    return ".".join(parts)


def _unused_imports(source: str):
    """Names ``source`` imports and never mentions again.  A mention in a
    string — an ``__all__`` entry, a quoted annotation — counts as a use."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):  # not source, or not UTF-8
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    # Package ``__init__`` modules re-export by importing; they are exempt.
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for tree in CHECKED
        for path in sorted(tree.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_checker_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Any, Optional\n"
        "from x import Quoted, Exported, Idle\n"
        "__all__ = ['Exported']\n"
        "def f(a: 'Quoted') -> Any:\n"
        "    return os.path.join(a, '\\ud800')\n"
    )
    assert _unused_imports(source) == [(3, "Optional"), (4, "Idle")]



def test_no_module_under_src_imports_asyncio():
    # The library has one concurrency model, blocking sockets and threads,
    # on both ends of the wire.
    importers = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "asyncio" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "asyncio"
    ]
    assert not importers, "asyncio imported at:\n" + "\n".join(importers)
def test_every_package_imports_first_in_a_fresh_interpreter():
    modules = [
        _module_name(path)
        for path in sorted([*SRC.glob("*/__init__.py"), *SRC.glob("*.py")])
    ]
    # One child process; before each import it forgets every repro module,
    # so each one is loaded as the first, as in a fresh interpreter.
    script = (
        "import importlib, sys, traceback\n"
        "failed = []\n"
        "for name in sys.argv[1:]:\n"
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'repro']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception:\n"
        "        failed.append(name + ':\\n' + traceback.format_exc(limit=-2))\n"
        "print('\\n'.join(failed))\n"
        "sys.exit(1 if failed else 0)\n"
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", script, *modules],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, "modules that fail to import first:\n" + done.stdout + done.stderr
