"""Static checks on the package source that need no linter."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cutnets"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nprint(c)\n") == \
        ["line 1: os", "line 2: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def traced_names() -> list[str]:
    """The ``module.function`` names the bench tracer wraps, read from the
    ``LAYERS`` literal in ``perfbench/tracing.py`` without running it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            layers = ast.literal_eval(node.value)
            return [f"{module}.{name}" for module, names in layers.items() for name in names]
    raise AssertionError("perfbench/tracing.py has no LAYERS")


def test_traced_names_resolve():
    names = traced_names()
    assert "nets.eliminate_edge" in names
    missing = []
    for name in names:
        module, *path = name.split(".")
        target = importlib.import_module(f"cutnets.{module}")
        for part in path:
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(name)
    assert missing == []
