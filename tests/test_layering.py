"""The package layering, enforced.

The README draws the layers as core → storage → lqp/pqp →
net/backends/service/obs.  This test reads every ``src/repro`` module's
import statements with :mod:`ast` and fails on an edge that points the
wrong way.  Only imports that run when the module is loaded count: those
inside functions (deliberately lazy, e.g. the registry opening a URL
scheme) and those under ``if TYPE_CHECKING:`` are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: importing package → packages it must not import at load time.
FORBIDDEN = {
    "net": {"storage", "pqp", "service"},
    "service": {"net"},
    "lqp": {"pqp", "net", "service", "backends"},
    "storage": {"lqp", "pqp", "net", "service", "backends"},
}

PACKAGES = sorted(path.name for path in SRC.iterdir() if (path / "__init__.py").is_file())
#: ``obs`` is the bottom of its own stack: it imports no other package.
FORBIDDEN["obs"] = set(PACKAGES) - {"obs"}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _load_time_imports(nodes, module: str, is_package: bool):
    """Absolute names imported by ``nodes`` when the module loads."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _load_time_imports(node.orelse, module, is_package)
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = module.split(".")
                base = parts if is_package else parts[:-1]
                base = base[: len(base) - node.level + 1]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module
            yield prefix
            for alias in node.names:
                yield f"{prefix}.{alias.name}"
        yield from _load_time_imports(ast.iter_child_nodes(node), module, is_package)


def _edges():
    """``(module, importing package, imported package)`` for every
    load-time import of one ``repro`` package by another."""
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC.parent).with_suffix("")
        is_package = relative.name == "__init__"
        module = ".".join(relative.parts[:-1] if is_package else relative.parts)
        parts = module.split(".")
        if len(parts) < 2 or parts[1] not in PACKAGES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _load_time_imports(tree.body, module, is_package):
            target = name.split(".")
            if len(target) >= 2 and target[0] == "repro" and target[1] in PACKAGES:
                if target[1] != parts[1]:
                    yield module, parts[1], target[1]


def test_no_package_imports_against_the_layering():
    wrong = sorted(
        f"{module} imports repro.{imported}"
        for module, importing, imported in set(_edges())
        if imported in FORBIDDEN.get(importing, ())
    )
    assert not wrong, "layering violated:\n" + "\n".join(wrong)


@pytest.mark.parametrize("package", sorted(FORBIDDEN))
def test_every_constrained_package_exists(package):
    # A renamed package would silently make its rule vacuous.
    assert package in PACKAGES


def test_the_walker_sees_load_time_imports_only():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import repro.storage.kernels\n"
        "from ..pqp import executor\n"
        "if TYPE_CHECKING:\n"
        "    from repro.service import options\n"
        "def later():\n"
        "    from repro.backends import sqlite_lqp\n"
    )
    names = set(_load_time_imports(ast.parse(source).body, "repro.net.client", False))
    assert "repro.storage.kernels" in names
    assert "repro.pqp.executor" in names
    assert not any(name.startswith(("repro.service", "repro.backends")) for name in names)
